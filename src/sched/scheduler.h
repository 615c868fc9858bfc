// User-to-satellite link scheduling (the Starlink scheduler model).
//
// Starlink reassigns user terminals to satellites every 15 seconds (§3.1.2,
// [51]); at any instant a user sees 10+ candidate satellites. We model this
// as discrete epochs: per (epoch, city) we precompute the top-K visible
// satellites, and each logical user of that city is hashed onto one of
// them for the duration of the epoch. Precomputing the schedule once lets
// every simulator variant and cache configuration replay the same orbital
// dynamics without recomputing geometry.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "orbit/constellation.h"
#include "orbit/visibility.h"
#include "util/geo.h"
#include "util/ids.h"
#include "util/units.h"

namespace starcdn::sched {

struct Candidate {
  util::SatId sat = util::kNoSat;
  /// One-way GSL delay from the slant range at epoch start. Intentionally a
  /// raw float, not util::Millis: the schedule table is the simulator's
  /// largest resident structure and the paper's precision needs fit in 32
  /// bits (see DESIGN.md §10). Widen via Millis{candidate.gsl_one_way_ms}.
  float gsl_one_way_ms = 0.0F;
};

struct SchedulerParams {
  util::Seconds epoch{15.0};       // Starlink reconfigure interval
  util::Degrees min_elevation{25.0};
  int candidates_per_cell = 10;    // top-K satellites kept per (epoch, city)
  int users_per_city = 64;         // logical user terminals per city
};

/// Precomputed link schedule over a time horizon: one flat table of
/// candidates_per_cell slots (8 B each) per (epoch, city) cell.
class LinkSchedule {
 public:
  /// Throws std::invalid_argument, naming the field, for a non-finite or
  /// non-positive `params.epoch` or `duration`, `candidates_per_cell` or
  /// `users_per_city` below 1, or `min_elevation` outside [0, 90) degrees.
  LinkSchedule(const orbit::Constellation& constellation,
               const std::vector<util::City>& cities, util::Seconds duration,
               const SchedulerParams& params = {});

  [[nodiscard]] std::size_t epochs() const noexcept { return epochs_; }
  [[nodiscard]] util::Seconds epoch_duration() const noexcept {
    return params_.epoch;
  }
  /// epochs() * epoch_duration(); epoch_of clamps a later time.
  [[nodiscard]] util::Seconds horizon() const noexcept {
    return static_cast<double>(epochs_) * params_.epoch;
  }
  [[nodiscard]] const SchedulerParams& params() const noexcept {
    return params_;
  }

  [[nodiscard]] util::EpochIdx epoch_of(util::Seconds t) const noexcept;

  /// Candidate set for a city at an epoch (possibly empty during a
  /// coverage gap). Throws std::out_of_range when `city` is not one of the
  /// schedule's cities.
  [[nodiscard]] std::span<const Candidate> candidates(
      util::EpochIdx epoch, util::CityId city) const {
    if (city.value() >= n_cities_) throw_bad_city(city);
    const std::size_t cell = epoch.value() * n_cities_ + city.value();
    return {table_.data() + cell * stride_, counts_[cell]};
  }

  /// First-contact satellite for a logical user, stable within an epoch and
  /// re-randomized across epochs (the scheduler's 15 s reshuffle). Throws
  /// like candidates().
  [[nodiscard]] Candidate first_contact(util::EpochIdx epoch,
                                        util::CityId city,
                                        std::uint64_t user_id) const;

  /// Mean number of visible satellites across cells (sanity statistic; the
  /// paper quotes "10+ satellites in view").
  [[nodiscard]] double mean_candidates() const noexcept;

 private:
  [[noreturn]] void throw_bad_city(util::CityId city) const;

  SchedulerParams params_;
  std::size_t n_cities_ = 0;
  std::size_t epochs_ = 0;
  std::size_t stride_ = 0;
  /// Cell (epoch * n_cities + city) owns table_[cell * stride_, +stride_),
  /// of which the first counts_[cell] are its candidates, best first.
  std::vector<Candidate> table_;
  std::vector<std::uint32_t> counts_;
};

}  // namespace starcdn::sched
