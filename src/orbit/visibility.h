// Ground-to-satellite visibility: which satellites a user terminal or
// ground station can see above its elevation mask.
//
// Starlink user terminals require roughly 25 degrees of elevation; at
// 550 km this yields the "10+ satellites in view" property the paper relies
// on (§3.1.2) and defines the first-contact candidate set for the link
// scheduler.
#pragma once

#include <span>
#include <vector>

#include "orbit/constellation.h"
#include "orbit/vec3.h"
#include "util/geo.h"
#include "util/ids.h"
#include "util/units.h"

namespace starcdn::orbit {

/// Elevation angle of a satellite at `sat_ecef` as seen from the ground
/// point `ground_ecef`; negative when below the horizon.
[[nodiscard]] util::Degrees elevation(const Vec3& ground_ecef,
                                      const Vec3& sat_ecef) noexcept;

/// Slant range between a ground point and a satellite.
[[nodiscard]] util::Km slant_range(const Vec3& ground_ecef,
                                   const Vec3& sat_ecef) noexcept;

/// Maximum slant range at which a satellite on an orbit of radius
/// `orbit_radius` can sit at or above `min_elevation` as seen from a
/// ground point `ground_radius` from the geocentre:
///   sqrt(r^2 - (R cos el)^2) - R sin el.
/// Any satellite farther away is guaranteed below the mask.
[[nodiscard]] util::Km horizon_slant_range(util::Km orbit_radius,
                                           util::Km ground_radius,
                                           util::Degrees min_elevation) noexcept;

struct VisibleSat {
  util::SatId sat = util::SatId{0};  // linear index into the constellation
  util::Degrees elevation{0.0};
  util::Km range{0.0};
};

/// Computes per-ground-point visible sets against a position snapshot.
class VisibilityOracle {
 public:
  explicit VisibilityOracle(
      util::Degrees min_elevation = util::Degrees{25.0}) noexcept
      : min_elevation_(min_elevation) {}

  [[nodiscard]] util::Degrees min_elevation() const noexcept {
    return min_elevation_;
  }

  /// All active satellites above the mask, sorted by descending elevation
  /// (best first-contact candidate first).
  [[nodiscard]] std::vector<VisibleSat> visible(
      const util::GeoCoord& ground, const Constellation& constellation,
      const std::vector<Vec3>& sat_positions_ecef) const;

  /// Same, from a precomputed ground ECEF point — callers scanning many
  /// epochs for a fixed city should convert once and use this entry point.
  /// (Named, not overloaded: {lat, lon} braces would be ambiguous with
  /// GeoCoord otherwise.)
  [[nodiscard]] std::vector<VisibleSat> visible_from_ecef(
      const Vec3& ground_ecef, const Constellation& constellation,
      const std::vector<Vec3>& sat_positions_ecef) const;

  /// The scan behind both: replaces `out`'s contents, reusing its
  /// capacity, so a caller scanning many epochs (LinkSchedule) allocates
  /// nothing per scan.
  void visible_into(const Vec3& ground_ecef, const Constellation& constellation,
                    std::span<const Vec3> sat_positions_ecef,
                    std::vector<VisibleSat>& out) const;

 private:
  util::Degrees min_elevation_;
};

}  // namespace starcdn::orbit
