// Walker-delta constellation model of the Starlink 53-degree shell.
//
// The paper simulates 1,170 active satellites out of the 72-plane / 18-slot
// (=1,296 slot) Starlink Gen-1 shell at 53 degrees inclination and 550 km
// altitude. This module generates that shell (or ingests TLEs), tracks
// which slots are occupied by an active satellite, and exposes the
// (plane, slot) grid structure that both the ISL topology and the
// consistent-hashing bucket layout are built on.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "orbit/elements.h"
#include "orbit/propagator.h"
#include "orbit/tle.h"
#include "orbit/vec3.h"
#include "util/ids.h"
#include "util/rng.h"
#include "util/units.h"

namespace starcdn::orbit {

/// Grid coordinate of a satellite slot. `plane` indexes the orbital plane
/// (RAAN order), `slot` the position within the plane (argument-of-latitude
/// order). Both wrap: the grid is a torus. The two coordinates are distinct
/// strong types, so transposing them no longer compiles.
struct SatelliteId {
  util::PlaneIdx plane{0};
  util::SlotIdx slot{0};

  constexpr SatelliteId() = default;
  constexpr SatelliteId(util::PlaneIdx p, util::SlotIdx s) noexcept
      : plane(p), slot(s) {}
  /// Grid literals like `{3, 5}` stay ergonomic: a (plane, slot) pair of
  /// ints is unambiguous here, and the members remain strongly typed for
  /// every read. Single ints still do not convert (no one-arg ctor).
  constexpr SatelliteId(int p, int s) noexcept
      : plane(util::PlaneIdx{p}), slot(util::SlotIdx{s}) {}

  friend bool operator==(const SatelliteId&, const SatelliteId&) = default;
};

/// Brace-friendly constructor from raw grid coordinates; the single named
/// entry point for int -> (PlaneIdx, SlotIdx).
[[nodiscard]] constexpr SatelliteId grid_id(int plane, int slot) noexcept {
  return {util::PlaneIdx{plane}, util::SlotIdx{slot}};
}

struct WalkerParams {
  int planes = 72;
  int slots_per_plane = 18;
  util::Degrees inclination{53.0};
  util::Km altitude{550.0};
  /// Walker phasing factor F: slot k of plane p leads by F*p/(P*S) orbits.
  int phase_factor = 1;
};

/// The constellation: a fixed slot grid plus per-slot elements and an
/// active/out-of-slot mask (the paper found 126/1296 slots inactive, §5.4).
class Constellation {
 public:
  /// Generate a Walker-delta shell.
  explicit Constellation(const WalkerParams& params);

  /// Build from parsed TLEs: planes are recovered by clustering RAAN, slots
  /// by sorting argument of latitude within each plane. Slots without a TLE
  /// are marked inactive.
  Constellation(const WalkerParams& grid_shape, std::span<const Tle> tles);

  [[nodiscard]] int planes() const noexcept { return params_.planes; }
  [[nodiscard]] int slots_per_plane() const noexcept {
    return params_.slots_per_plane;
  }
  [[nodiscard]] int size() const noexcept {
    return params_.planes * params_.slots_per_plane;
  }
  [[nodiscard]] const WalkerParams& params() const noexcept { return params_; }

  [[nodiscard]] util::SatId index_of(SatelliteId id) const noexcept {
    return util::SatId{id.plane.value() * params_.slots_per_plane +
                       id.slot.value()};
  }
  [[nodiscard]] SatelliteId id_of(util::SatId index) const noexcept {
    return grid_id(index.value() / params_.slots_per_plane,
                   index.value() % params_.slots_per_plane);
  }

  [[nodiscard]] bool active(SatelliteId id) const noexcept {
    return active_[util::as_index(index_of(id))];
  }
  [[nodiscard]] bool active(util::SatId index) const noexcept {
    return active_[util::as_index(index)];
  }
  [[nodiscard]] int active_count() const noexcept;

  /// Mark `fraction` of slots inactive, chosen uniformly (fault
  /// experiments, Fig. 11). Deterministic given `rng`.
  void knock_out_random(double fraction, util::Rng& rng);
  void set_active(SatelliteId id, bool active_flag) noexcept;

  [[nodiscard]] const CircularElements& elements(SatelliteId id) const noexcept {
    return elements_[util::as_index(index_of(id))];
  }

  /// Largest orbital radius (semi-major axis) over all slots; bounds the
  /// slant range any satellite of this constellation can have at a given
  /// elevation (used by VisibilityOracle's cheap reject).
  [[nodiscard]] util::Km max_orbital_radius() const noexcept {
    return max_orbital_radius_;
  }

  /// ECEF position of one satellite at time t past epoch.
  [[nodiscard]] Vec3 position_ecef(SatelliteId id, util::Seconds t) const noexcept;

  /// ECEF positions of all slots (inactive slots still get their nominal
  /// position; callers must consult `active`). Size == size().
  [[nodiscard]] std::vector<Vec3> all_positions_ecef(util::Seconds t) const;

  /// Same, written into `out` without allocating: one Earth-rotation
  /// cos/sin per call and one cos/sin per slot, from the constants each
  /// slot's CircularOrbit holds. Bitwise equal to orbit::ecef_position for
  /// every slot. Throws std::invalid_argument unless out.size() == size().
  void all_positions_ecef(util::Seconds t, std::span<Vec3> out) const;

  // --- Toroidal grid neighbours (+grid ISL endpoints) ---------------------
  [[nodiscard]] SatelliteId intra_next(SatelliteId id) const noexcept;   // ahead in orbit
  [[nodiscard]] SatelliteId intra_prev(SatelliteId id) const noexcept;   // behind in orbit
  [[nodiscard]] SatelliteId inter_east(SatelliteId id) const noexcept;   // plane + 1
  [[nodiscard]] SatelliteId inter_west(SatelliteId id) const noexcept;   // plane - 1
  /// Neighbour `dp` planes east (negative = west), same slot.
  [[nodiscard]] SatelliteId plane_offset(SatelliteId id, int dp) const noexcept;
  /// Neighbour `ds` slots ahead (negative = behind), same plane.
  [[nodiscard]] SatelliteId slot_offset(SatelliteId id, int ds) const noexcept;

  /// Minimal toroidal grid hop distance between two slots.
  [[nodiscard]] int grid_hops(SatelliteId a, SatelliteId b) const noexcept;

 private:
  /// Derive orbits_ and max_orbital_radius_ from elements_.
  void recompute_orbits();

  WalkerParams params_;
  std::vector<CircularElements> elements_;
  std::vector<CircularOrbit> orbits_;  // one per slot, from elements_
  std::vector<bool> active_;
  util::Km max_orbital_radius_{0.0};
};

}  // namespace starcdn::orbit
