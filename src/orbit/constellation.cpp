#include "orbit/constellation.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/units.h"

namespace starcdn::orbit {

namespace {

int wrap(int v, int n) noexcept {
  v %= n;
  return v < 0 ? v + n : v;
}

}  // namespace

Constellation::Constellation(const WalkerParams& params) : params_(params) {
  if (params.planes <= 0 || params.slots_per_plane <= 0) {
    throw std::invalid_argument("Constellation: non-positive grid shape");
  }
  const int P = params.planes;
  const int S = params.slots_per_plane;
  elements_.resize(static_cast<std::size_t>(P) * S);
  active_.assign(elements_.size(), true);
  const util::Km a = util::kEarthRadius + params.altitude;
  for (int p = 0; p < P; ++p) {
    for (int s = 0; s < S; ++s) {
      CircularElements e;
      e.semi_major_axis = a;
      e.inclination = util::to_radians(params.inclination);
      e.raan = util::Radians{2.0 * M_PI * p / P};
      // Walker-delta phasing: in-plane spacing plus per-plane phase offset.
      e.arg_latitude_epoch = util::Radians{
          2.0 * M_PI * (static_cast<double>(s) / S +
                        static_cast<double>(params.phase_factor) * p /
                            (static_cast<double>(P) * S))};
      elements_[util::as_index(index_of(grid_id(p, s)))] = e;
    }
  }
  recompute_orbits();
}

Constellation::Constellation(const WalkerParams& grid_shape,
                             std::span<const Tle> tles)
    : Constellation(grid_shape) {
  // Slots without a matching TLE become inactive; matched slots adopt the
  // TLE's elements. Planes are recovered from RAAN, slots from argument of
  // latitude within the plane.
  active_.assign(elements_.size(), false);
  const int P = params_.planes;
  const int S = params_.slots_per_plane;
  for (const Tle& t : tles) {
    const CircularElements e = t.to_circular();
    const double raan_frac = e.raan.value() / (2.0 * M_PI);
    const int p = wrap(static_cast<int>(std::lround(raan_frac * P)), P);
    const double phase_offset =
        static_cast<double>(params_.phase_factor) * p /
        (static_cast<double>(P) * S);
    double u_frac = e.arg_latitude_epoch.value() / (2.0 * M_PI) - phase_offset;
    u_frac -= std::floor(u_frac);
    const int s = wrap(static_cast<int>(std::lround(u_frac * S)), S);
    const std::size_t idx = util::as_index(index_of(grid_id(p, s)));
    elements_[idx] = e;
    active_[idx] = true;
  }
  recompute_orbits();
}

void Constellation::recompute_orbits() {
  orbits_.clear();
  orbits_.reserve(elements_.size());
  max_orbital_radius_ = util::Km{0.0};
  for (const auto& e : elements_) {
    orbits_.emplace_back(e);
    max_orbital_radius_ = std::max(max_orbital_radius_, e.semi_major_axis);
  }
}

int Constellation::active_count() const noexcept {
  return static_cast<int>(std::count(active_.begin(), active_.end(), true));
}

void Constellation::knock_out_random(double fraction, util::Rng& rng) {
  if (fraction <= 0.0) return;
  // Clamp to the currently-active population: asking for more knockouts
  // than there are active satellites (repeated calls, or a TLE-built shell
  // with empty slots) must not spin the rejection loop forever.
  const auto target = std::min(
      static_cast<std::size_t>(
          std::llround(fraction * static_cast<double>(size()))),
      static_cast<std::size_t>(active_count()));
  std::size_t knocked = 0;
  while (knocked < target) {
    const auto idx = static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(size())));
    if (active_[idx]) {
      active_[idx] = false;
      ++knocked;
    }
  }
}

void Constellation::set_active(SatelliteId id, bool active_flag) noexcept {
  active_[util::as_index(index_of(id))] = active_flag;
}

Vec3 Constellation::position_ecef(SatelliteId id,
                                  util::Seconds t) const noexcept {
  return orbit::ecef_position(elements(id), t);
}

std::vector<Vec3> Constellation::all_positions_ecef(util::Seconds t) const {
  std::vector<Vec3> out(static_cast<std::size_t>(size()));
  all_positions_ecef(t, out);
  return out;
}

void Constellation::all_positions_ecef(util::Seconds t,
                                       std::span<Vec3> out) const {
  if (out.size() != orbits_.size()) {
    throw std::invalid_argument(
        "Constellation::all_positions_ecef: buffer size != size()");
  }
  // eci_to_ecef's rotation, its cos/sin taken once for every slot.
  const double earth = -util::kEarthRotationRadPerS * t.value();
  const double c = std::cos(earth), s = std::sin(earth);
  for (std::size_t i = 0; i < orbits_.size(); ++i) {
    out[i] = rotate_z(orbits_[i].eci_position(t), c, s);
  }
}

SatelliteId Constellation::intra_next(SatelliteId id) const noexcept {
  return {id.plane,
          util::SlotIdx{wrap(id.slot.value() + 1, params_.slots_per_plane)}};
}
SatelliteId Constellation::intra_prev(SatelliteId id) const noexcept {
  return {id.plane,
          util::SlotIdx{wrap(id.slot.value() - 1, params_.slots_per_plane)}};
}
SatelliteId Constellation::inter_east(SatelliteId id) const noexcept {
  return {util::PlaneIdx{wrap(id.plane.value() + 1, params_.planes)}, id.slot};
}
SatelliteId Constellation::inter_west(SatelliteId id) const noexcept {
  return {util::PlaneIdx{wrap(id.plane.value() - 1, params_.planes)}, id.slot};
}
SatelliteId Constellation::plane_offset(SatelliteId id, int dp) const noexcept {
  return {util::PlaneIdx{wrap(id.plane.value() + dp, params_.planes)}, id.slot};
}
SatelliteId Constellation::slot_offset(SatelliteId id, int ds) const noexcept {
  return {id.plane,
          util::SlotIdx{wrap(id.slot.value() + ds, params_.slots_per_plane)}};
}

int Constellation::grid_hops(SatelliteId a, SatelliteId b) const noexcept {
  const int P = params_.planes;
  const int S = params_.slots_per_plane;
  const int dp = std::abs(a.plane.value() - b.plane.value());
  const int ds = std::abs(a.slot.value() - b.slot.value());
  return std::min(dp, P - dp) + std::min(ds, S - ds);
}

}  // namespace starcdn::orbit
