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

LinkSchedule::LinkSchedule(const orbit::Constellation& constellation,
                           const std::vector<util::City>& cities,
                           util::Seconds duration,
                           const SchedulerParams& params)
    : params_(params), n_cities_(cities.size()) {
  epochs_ = static_cast<std::size_t>(
      std::max(1.0, std::ceil(duration / params.epoch)));
  const obs::TraceSpan span(
      obs::tracer(), "LinkSchedule::build", "sched",
      {obs::arg("epochs", static_cast<std::uint64_t>(epochs_)),
       obs::arg("cities", static_cast<std::uint64_t>(n_cities_))});
  table_.resize(epochs_ * n_cities_);
  const orbit::VisibilityOracle oracle(params.min_elevation);
  // City ECEF points are epoch-invariant: convert once instead of inside
  // every visibility scan.
  std::vector<orbit::Vec3> city_ecef(n_cities_);
  for (std::size_t c = 0; c < n_cities_; ++c) {
    city_ecef[c] = orbit::geodetic_to_ecef(cities[c].coord);
  }
  // Epochs are independent: each worker propagates its epoch's satellite
  // positions and fills that epoch's pre-sized table slots. Static chunking
  // plus disjoint writes keep the table bitwise identical for any thread
  // count.
  util::parallel_for(epochs_, [&](std::size_t e) {
    const util::Seconds t = static_cast<double>(e) * params_.epoch;
    const auto positions = constellation.all_positions_ecef(t);
    for (std::size_t c = 0; c < n_cities_; ++c) {
      const auto visible = oracle.visible_from_ecef(city_ecef[c],
                                                    constellation, positions);
      auto& cell = table_[e * n_cities_ + c];
      const std::size_t k = std::min<std::size_t>(
          visible.size(),
          static_cast<std::size_t>(params_.candidates_per_cell));
      cell.reserve(k);
      for (std::size_t i = 0; i < k; ++i) {
        cell.push_back(
            {visible[i].sat,
             static_cast<float>(
                 util::propagation_delay(visible[i].range).value())});
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
  const auto& cell = candidates(epoch, city);
  if (cell.empty()) return {};
  // Hash (user, epoch) so each user sticks to one satellite within an epoch
  // but the population reshuffles when the scheduler reconfigures.
  const std::uint64_t h = util::hash_combine(
      util::splitmix64(user_id),
      util::splitmix64(epoch.value() * 1315423911ULL));
  return cell[h % cell.size()];
}

double LinkSchedule::mean_candidates() const noexcept {
  if (table_.empty()) return 0.0;
  double total = 0.0;
  for (const auto& cell : table_) total += static_cast<double>(cell.size());
  return total / static_cast<double>(table_.size());
}

}  // namespace starcdn::sched
