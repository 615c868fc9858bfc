// Transient failure model (§3.4).
//
// Long-term failures (out-of-slot satellites) are modelled by the
// constellation's active mask plus BucketMapper's remapping. Transient
// failures — a cache server briefly down for a software update, a link
// paused for a collision-avoidance maneuver — are handled differently by
// StarCDN: the request simply reports a miss and is forwarded to the
// ground, with no remapping. This model marks each satellite down in
// pseudo-random windows, deterministically from a seed so every variant of
// a run observes the same outage schedule.
#pragma once

#include <cstdint>

#include "util/hash.h"
#include "util/ids.h"
#include "util/units.h"

namespace starcdn::core {

class TransientFailureModel {
 public:
  /// Each satellite is independently down for whole windows of
  /// `window` duration with probability `down_probability`.
  explicit TransientFailureModel(double down_probability,
                                 util::Seconds window = util::Seconds{300.0},
                                 std::uint64_t seed = 0x7e57ab1e) noexcept
      : p_(down_probability), window_s_(window.value()), seed_(seed) {}

  [[nodiscard]] double down_probability() const noexcept { return p_; }

  [[nodiscard]] bool down(util::SatId sat, util::Seconds t) const noexcept {
    if (p_ <= 0.0) return false;
    const auto window = static_cast<std::uint64_t>(t.value() / window_s_);
    const std::uint64_t h = util::hash_combine(
        util::splitmix64(seed_ + static_cast<std::uint64_t>(sat.value())),
        util::splitmix64(window));
    return static_cast<double>(h >> 11) * 0x1.0p-53 < p_;
  }

 private:
  double p_;
  double window_s_;
  std::uint64_t seed_;
};

}  // namespace starcdn::core
