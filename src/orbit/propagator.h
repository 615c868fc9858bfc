// Circular two-body propagation, ECI/ECEF frames, and geodetic conversion.
//
// This is the orbital-mechanics substrate that substitutes for the paper's
// use of Microsoft CosmicBeats: it produces satellite positions over time,
// ground tracks (Fig. 3), and the inputs for visibility and link-delay
// computation (Table 1).
//
// Times are strong util::Seconds and angles util::Radians; Vec3 components
// are implicit km (see DESIGN.md §10 for why the vector stays raw).
#pragma once

#include <cmath>

#include "orbit/elements.h"
#include "orbit/vec3.h"
#include "util/geo.h"
#include "util/units.h"

namespace starcdn::orbit {

/// Mean motion n = sqrt(mu/a^3) in rad/s (rate composite; raw by design).
[[nodiscard]] double mean_motion_rad_s(const CircularElements& e) noexcept;

/// Orbital period (~5'740 s, i.e. about 95 min, for 550 km).
[[nodiscard]] util::Seconds orbital_period(const CircularElements& e) noexcept;

/// A circular orbit's propagation constants, derived once from its
/// elements, so that a position costs one cos/sin of the argument of
/// latitude. eci_position(e, t) is CircularOrbit(e).eci_position(t): one
/// implementation, and a batch over many satellites (Constellation::
/// all_positions_ecef) matches the single-satellite path bit for bit.
struct CircularOrbit {
  explicit CircularOrbit(const CircularElements& e) noexcept;

  /// Position in the Earth-Centered Inertial frame at `t` past epoch.
  [[nodiscard]] Vec3 eci_position(util::Seconds t) const noexcept {
    const double u = u0 + mean_motion * t.value();
    const double cu = std::cos(u), su = std::sin(u);
    // Position in the orbital plane rotated by inclination, then RAAN.
    const Vec3 in_plane{a * cu, a * su * cos_i, a * su * sin_i};
    return rotate_z(in_plane, cos_raan, sin_raan);
  }

  double u0 = 0.0;           // argument of latitude at epoch, rad
  double mean_motion = 0.0;  // rad/s
  double a = 0.0;            // semi-major axis, km
  double cos_i = 1.0, sin_i = 0.0;
  double cos_raan = 1.0, sin_raan = 0.0;
};

/// Position in the Earth-Centered Inertial frame at `t` past epoch.
[[nodiscard]] Vec3 eci_position(const CircularElements& e,
                                util::Seconds t) noexcept;

/// Rotate ECI -> ECEF given elapsed time (Earth rotates by w_e * t; the
/// epoch is defined with ECI and ECEF aligned, which is sufficient for a
/// self-consistent simulation).
[[nodiscard]] Vec3 eci_to_ecef(const Vec3& eci, util::Seconds t) noexcept;

/// Satellite position directly in ECEF.
[[nodiscard]] Vec3 ecef_position(const CircularElements& e,
                                 util::Seconds t) noexcept;

/// Geodetic (spherical-Earth) <-> ECEF for ground points at given altitude.
[[nodiscard]] Vec3 geodetic_to_ecef(const util::GeoCoord& g,
                                    util::Km altitude = util::Km{0.0}) noexcept;
[[nodiscard]] util::GeoCoord ecef_to_geodetic(const Vec3& ecef) noexcept;

/// Sub-satellite point (ground track sample) at time t.
[[nodiscard]] util::GeoCoord ground_track_point(const CircularElements& e,
                                                util::Seconds t) noexcept;

// --- Elliptical (full Keplerian) propagation --------------------------------

/// Solve Kepler's equation M = E - e*sin(E) for the eccentric anomaly E
/// via Newton iteration; accurate to ~1e-12 rad for e < 0.9.
[[nodiscard]] util::Radians solve_kepler(util::Radians mean_anomaly,
                                         double eccentricity) noexcept;

[[nodiscard]] double mean_motion_rad_s(const KeplerianElements& e) noexcept;

/// ECI position of an elliptical orbit at `t` past epoch.
[[nodiscard]] Vec3 eci_position(const KeplerianElements& e,
                                util::Seconds t) noexcept;

/// ECEF position of an elliptical orbit.
[[nodiscard]] Vec3 ecef_position(const KeplerianElements& e,
                                 util::Seconds t) noexcept;

}  // namespace starcdn::orbit
