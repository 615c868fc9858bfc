#include "orbit/visibility.h"

#include <algorithm>
#include <cmath>

#include "orbit/propagator.h"

namespace starcdn::orbit {

util::Degrees elevation(const Vec3& ground_ecef, const Vec3& sat_ecef) noexcept {
  const Vec3 up = ground_ecef.normalized();
  const Vec3 to_sat = sat_ecef - ground_ecef;
  const double d = to_sat.norm();
  if (d <= 0.0) return util::Degrees{90.0};
  const double sin_el = up.dot(to_sat) / d;
  return util::to_degrees(
      util::Radians{std::asin(std::clamp(sin_el, -1.0, 1.0))});
}

util::Km slant_range(const Vec3& ground_ecef, const Vec3& sat_ecef) noexcept {
  return util::Km{distance(ground_ecef, sat_ecef)};
}

util::Km horizon_slant_range(util::Km orbit_radius, util::Km ground_radius,
                             util::Degrees min_elevation) noexcept {
  const double el = util::to_radians(min_elevation).value();
  const double rc = ground_radius.value() * std::cos(el);
  const double under = orbit_radius.value() * orbit_radius.value() - rc * rc;
  if (under <= 0.0) return util::Km{0.0};  // orbit never clears the mask
  return util::Km{std::sqrt(under) - ground_radius.value() * std::sin(el)};
}

std::vector<VisibleSat> VisibilityOracle::visible(
    const util::GeoCoord& ground, const Constellation& constellation,
    const std::vector<Vec3>& sat_positions_ecef) const {
  return visible_from_ecef(geodetic_to_ecef(ground), constellation,
                           sat_positions_ecef);
}

std::vector<VisibleSat> VisibilityOracle::visible_from_ecef(
    const Vec3& ground_ecef, const Constellation& constellation,
    const std::vector<Vec3>& sat_positions_ecef) const {
  std::vector<VisibleSat> out;
  visible_into(ground_ecef, constellation, sat_positions_ecef, out);
  return out;
}

void VisibilityOracle::visible_into(const Vec3& ground_ecef,
                                    const Constellation& constellation,
                                    std::span<const Vec3> sat_positions_ecef,
                                    std::vector<VisibleSat>& out) const {
  const Vec3& g = ground_ecef;
  // Cheap reject: any satellite of this constellation whose slant range
  // exceeds the horizon slant range at the mask — derived from the shell's
  // actual orbital radius, so higher-altitude shells are never culled
  // (at 550 km / 25 deg this is ~1,124 km) — is below the mask. The test
  // is on the squared range, so a rejected satellite costs no sqrt and no
  // asin; the +1 km absorbs floating-point slack, so a satellite near the
  // bound is one the exact elevation test below rejects too.
  const double reject =
      (horizon_slant_range(constellation.max_orbital_radius(),
                           util::Km{g.norm()}, min_elevation_) +
       util::Km{1.0})
          .value();
  const double reject_sq = reject * reject;
  out.clear();
  for (int i = 0; i < constellation.size(); ++i) {
    const util::SatId sat{i};
    if (!constellation.active(sat)) continue;
    const Vec3& s = sat_positions_ecef[static_cast<std::size_t>(i)];
    const Vec3 d = g - s;
    if (d.dot(d) > reject_sq) continue;
    const util::Degrees el = elevation(g, s);
    if (el >= min_elevation_) {
      out.push_back({sat, el, slant_range(g, s)});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const VisibleSat& a, const VisibleSat& b) {
              return a.elevation > b.elevation;
            });
}

}  // namespace starcdn::orbit
