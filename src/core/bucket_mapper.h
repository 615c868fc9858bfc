// StarCDN's LSN-specific consistent hashing (§3.2) and its relayed-fetch
// replica geometry (§3.3) plus failure remapping (§3.4).
//
// Objects hash into L buckets; buckets tile the (plane, slot) grid in a
// repeating sqrt(L) x sqrt(L) pattern, so any bucket is reachable from any
// first-contact satellite within 2*floor(sqrt(L)/2) grid hops. Same-bucket
// replicas sit sqrt(L) planes to the west/east — the neighbours relayed
// fetch probes on a miss, exploiting that a satellite's west inter-orbit
// neighbour traces (almost) the requester's ground track one period
// earlier (Fig. 3). When the nominal owner of a bucket is out of slot, the
// bucket remaps to the nearest active satellite, which then serves
// multiple buckets (§3.4, evaluated in Fig. 11).
//
// Once the active mask is fixed, every answer is a function of the
// first-contact satellite and the bucket alone, so the constructor
// resolves all of them into flat tables indexed by util::SatId and the
// serving path is one load per question. The mapper reads the
// constellation's active mask once, at construction: knock satellites out
// before building a mapper (a later mask change is not seen).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "orbit/constellation.h"
#include "util/hash.h"
#include "util/ids.h"

namespace starcdn::core {

class BucketMapper {
 public:
  /// `buckets` must be a perfect square (the paper uses L = 4 and L = 9).
  BucketMapper(const orbit::Constellation& constellation, int buckets);

  [[nodiscard]] int buckets() const noexcept { return l_; }
  [[nodiscard]] int tile_side() const noexcept { return side_; }

  /// Bucket an object hashes into (splitmix-mixed, uniform over L).
  [[nodiscard]] util::BucketId bucket_of_object(
      cache::ObjectId id) const noexcept {
    return util::BucketId{static_cast<std::int32_t>(
        util::splitmix64(id) % static_cast<std::uint64_t>(l_))};
  }

  /// Bucket assigned to a satellite slot by the grid tiling.
  [[nodiscard]] util::BucketId bucket_of_slot(
      orbit::SatelliteId id) const noexcept;

  /// Nominal owner of `bucket` nearest to `from` on the torus — ignores
  /// failures. Reachable within 2*floor(side/2) hops by construction.
  [[nodiscard]] orbit::SatelliteId nominal_owner(
      orbit::SatelliteId from, util::BucketId bucket) const noexcept;

  // --- Serving path: one table load each; util::kNoSat means none --------

  /// Remap target of a slot: itself if active, else the nearest active
  /// satellite by grid distance (deterministic ring search, so every
  /// requester resolves the same substitute).
  [[nodiscard]] util::SatId remap_of(util::SatId sat) const noexcept {
    return remap_[util::as_index(sat)];
  }
  /// Actual owner of `bucket` seen from first contact `from`: the remapped
  /// nominal owner.
  [[nodiscard]] util::SatId owner_of(util::SatId from,
                                     util::BucketId bucket) const noexcept {
    return owner_[cell(from, bucket)];
  }
  /// (inter, intra) hop split from `from` to owner_of(from, bucket);
  /// {0, 0} when there is no owner.
  struct Hops {
    std::uint8_t inter;
    std::uint8_t intra;
  };
  [[nodiscard]] Hops hops_of(util::SatId from,
                             util::BucketId bucket) const noexcept {
    return hops_[cell(from, bucket)];
  }
  /// Same-bucket replicas `side` planes west / east of `owner` (remapped
  /// if inactive); never `owner` itself.
  [[nodiscard]] util::SatId west_of(util::SatId owner) const noexcept {
    return west_[util::as_index(owner)];
  }
  [[nodiscard]] util::SatId east_of(util::SatId owner) const noexcept {
    return east_[util::as_index(owner)];
  }
  /// Immediate inter-plane neighbours one plane west / east of `sat` if
  /// active — the relay partners without hashing. Inactive neighbours are
  /// dropped, not remapped.
  [[nodiscard]] util::SatId west_adjacent(util::SatId sat) const noexcept {
    return west_adjacent_[util::as_index(sat)];
  }
  [[nodiscard]] util::SatId east_adjacent(util::SatId sat) const noexcept {
    return east_adjacent_[util::as_index(sat)];
  }

  // --- Grid-coordinate views of the same tables ---------------------------

  /// owner_of for grid coordinates; nullopt only if the whole
  /// constellation is down.
  [[nodiscard]] std::optional<orbit::SatelliteId> owner(
      orbit::SatelliteId from, util::BucketId bucket) const noexcept {
    return id_or_none(owner_of(constellation_->index_of(from), bucket));
  }
  /// remap_of for an arbitrary (possibly inactive) slot. Exposed for the
  /// fault-tolerance experiments.
  [[nodiscard]] std::optional<orbit::SatelliteId> remap(
      orbit::SatelliteId nominal) const noexcept {
    return id_or_none(remap_of(constellation_->index_of(nominal)));
  }
  [[nodiscard]] std::optional<orbit::SatelliteId> west_replica(
      orbit::SatelliteId owner_sat) const noexcept {
    return id_or_none(west_of(constellation_->index_of(owner_sat)));
  }
  [[nodiscard]] std::optional<orbit::SatelliteId> east_replica(
      orbit::SatelliteId owner_sat) const noexcept {
    return id_or_none(east_of(constellation_->index_of(owner_sat)));
  }

  /// Toroidal (inter, intra) hop split between two slots; used by the
  /// latency model (inter- and intra-orbit hops cost differently).
  [[nodiscard]] std::pair<int, int> hop_split(orbit::SatelliteId a,
                                              orbit::SatelliteId b) const noexcept;

  /// Worst-case routing hop count from any satellite to any bucket:
  /// 2 * floor(side/2) on a healthy grid (Fig. 9's x-axis relation).
  [[nodiscard]] int worst_case_hops() const noexcept;

 private:
  [[nodiscard]] std::size_t cell(util::SatId from,
                                 util::BucketId bucket) const noexcept {
    return util::as_index(from) * static_cast<std::size_t>(l_) +
           util::as_index(bucket);
  }
  [[nodiscard]] std::optional<orbit::SatelliteId> id_or_none(
      util::SatId sat) const noexcept {
    if (sat.value() < 0) return std::nullopt;
    return constellation_->id_of(sat);
  }

  const orbit::Constellation* constellation_;
  int l_;
  int side_;
  // Per satellite.
  std::vector<util::SatId> remap_;
  std::vector<util::SatId> west_;
  std::vector<util::SatId> east_;
  std::vector<util::SatId> west_adjacent_;
  std::vector<util::SatId> east_adjacent_;
  // Per (first contact, bucket), at [sat * L + bucket].
  std::vector<util::SatId> owner_;
  std::vector<Hops> hops_;
};

}  // namespace starcdn::core
