#include "sched/scheduler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/tracer.h"
#include "util/hash.h"
#include "util/parallel.h"
#include "util/units.h"

namespace starcdn::sched {

namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("LinkSchedule: ") + what);
}

void validate(util::Seconds duration, const SchedulerParams& p) {
  require(std::isfinite(p.epoch.value()) && p.epoch.value() > 0.0,
          "epoch must be finite and positive");
  require(std::isfinite(duration.value()) && duration.value() > 0.0,
          "duration must be finite and positive");
  require(p.candidates_per_cell >= 1, "candidates_per_cell must be >= 1");
  require(p.users_per_city >= 1, "users_per_city must be >= 1");
  require(p.min_elevation.value() >= 0.0 && p.min_elevation.value() < 90.0,
          "min_elevation must be in [0, 90) degrees");
}

}  // namespace

LinkSchedule::LinkSchedule(const orbit::Constellation& constellation,
                           const std::vector<util::City>& cities,
                           util::Seconds duration,
                           const SchedulerParams& params)
    : params_(params), n_cities_(cities.size()) {
  validate(duration, params);
  epochs_ = static_cast<std::size_t>(
      std::max(1.0, std::ceil(duration / params.epoch)));
  const obs::TraceSpan span(
      obs::tracer(), "LinkSchedule::build", "sched",
      {obs::arg("epochs", static_cast<std::uint64_t>(epochs_)),
       obs::arg("cities", static_cast<std::uint64_t>(n_cities_))});
  // No cell can hold more candidates than the shell has slots.
  stride_ = std::min(static_cast<std::size_t>(params.candidates_per_cell),
                     static_cast<std::size_t>(constellation.size()));
  table_.resize(epochs_ * n_cities_ * stride_);
  counts_.resize(epochs_ * n_cities_);
  const orbit::VisibilityOracle oracle(params.min_elevation);
  // City ECEF points are epoch-invariant: convert once instead of inside
  // every visibility scan.
  std::vector<orbit::Vec3> city_ecef(n_cities_);
  for (std::size_t c = 0; c < n_cities_; ++c) {
    city_ecef[c] = orbit::geodetic_to_ecef(cities[c].coord);
  }
  // Epochs are independent: each worker propagates its epochs' satellite
  // positions and fills their cells. Static chunking plus disjoint writes
  // keep the table bitwise identical for any thread count.
  util::parallel_for_chunks(epochs_, [&](std::size_t begin, std::size_t end) {
    std::vector<orbit::Vec3> positions(
        static_cast<std::size_t>(constellation.size()));
    std::vector<orbit::VisibleSat> visible;
    for (std::size_t e = begin; e < end; ++e) {
      const util::Seconds t = static_cast<double>(e) * params_.epoch;
      constellation.all_positions_ecef(t, positions);
      for (std::size_t c = 0; c < n_cities_; ++c) {
        oracle.visible_into(city_ecef[c], constellation, positions, visible);
        const std::size_t cell = e * n_cities_ + c;
        const std::size_t k = std::min(visible.size(), stride_);
        Candidate* out = table_.data() + cell * stride_;
        for (std::size_t i = 0; i < k; ++i) {
          out[i] = {visible[i].sat,
                    static_cast<float>(
                        util::propagation_delay(visible[i].range).value())};
        }
        counts_[cell] = static_cast<std::uint32_t>(k);
      }
    }
  });
}

util::EpochIdx LinkSchedule::epoch_of(util::Seconds t) const noexcept {
  const auto e = static_cast<std::size_t>(std::max(0.0, t.value()) /
                                          params_.epoch.value());
  return util::EpochIdx{std::min(e, epochs_ - 1)};
}

void LinkSchedule::throw_bad_city(util::CityId city) const {
  throw std::out_of_range("LinkSchedule: city " +
                          std::to_string(city.value()) + " out of range (" +
                          std::to_string(n_cities_) + " cities)");
}

Candidate LinkSchedule::first_contact(util::EpochIdx epoch, util::CityId city,
                                      std::uint64_t user_id) const {
  const auto cell = candidates(epoch, city);
  if (cell.empty()) return {};
  // Hash (user, epoch) so each user sticks to one satellite within an epoch
  // but the population reshuffles when the scheduler reconfigures.
  const std::uint64_t h = util::hash_combine(
      util::splitmix64(user_id),
      util::splitmix64(epoch.value() * 1315423911ULL));
  return cell[h % cell.size()];
}

double LinkSchedule::mean_candidates() const noexcept {
  if (counts_.empty()) return 0.0;
  double total = 0.0;
  for (const std::uint32_t n : counts_) total += static_cast<double>(n);
  return total / static_cast<double>(counts_.size());
}

}  // namespace starcdn::sched
