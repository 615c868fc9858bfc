#include "core/bucket_mapper.h"

#include <cmath>
#include <stdexcept>

namespace starcdn::core {

using util::SatId;

namespace {

int wrap(int v, int n) noexcept {
  v %= n;
  return v < 0 ? v + n : v;
}

/// Minimal toroidal distance and its signed direction.
int toroidal_abs(int d, int n) noexcept {
  d = wrap(d, n);
  return std::min(d, n - d);
}

/// Nearest active satellite to `nominal` by grid distance, kNoSat if none.
/// Deterministic scan order so every requester resolves the same
/// substitute (§3.4: "the next available satellite").
SatId ring_search(const orbit::Constellation& c, orbit::SatelliteId nominal) {
  if (c.active(nominal)) return c.index_of(nominal);
  const int max_r = c.planes() / 2 + c.slots_per_plane() / 2;
  for (int r = 1; r <= max_r; ++r) {
    for (int dp = -r; dp <= r; ++dp) {
      const int rem = r - std::abs(dp);
      for (int ds = -rem;; ds += 2 * rem) {
        const SatId cand = c.index_of(orbit::grid_id(
            wrap(nominal.plane.value() + dp, c.planes()),
            wrap(nominal.slot.value() + ds, c.slots_per_plane())));
        if (c.active(cand)) return cand;
        if (ds >= rem) break;
      }
    }
  }
  return util::kNoSat;
}

}  // namespace

BucketMapper::BucketMapper(const orbit::Constellation& constellation,
                           int buckets)
    : constellation_(&constellation), l_(buckets) {
  side_ = static_cast<int>(std::lround(std::sqrt(static_cast<double>(buckets))));
  if (side_ * side_ != buckets || buckets <= 0) {
    throw std::invalid_argument(
        "BucketMapper: bucket count must be a positive perfect square");
  }
  const orbit::Constellation& c = constellation;
  // Hop splits are stored as bytes; a toroidal distance is at most n/2.
  if (c.planes() / 2 > 255 || c.slots_per_plane() / 2 > 255) {
    throw std::invalid_argument(
        "BucketMapper: grid wider than 511 planes or slots per plane");
  }
  const auto n = static_cast<std::size_t>(c.size());
  remap_.resize(n);
  west_.resize(n);
  east_.resize(n);
  west_adjacent_.resize(n);
  east_adjacent_.resize(n);
  owner_.resize(n * static_cast<std::size_t>(l_));
  hops_.resize(owner_.size());

  for (int i = 0; i < c.size(); ++i) {
    remap_[static_cast<std::size_t>(i)] = ring_search(c, c.id_of(SatId{i}));
  }
  const auto remapped = [&](orbit::SatelliteId id) {
    return remap_[util::as_index(c.index_of(id))];
  };
  const auto active_or_none = [&](orbit::SatelliteId id) {
    return c.active(id) ? c.index_of(id) : util::kNoSat;
  };
  for (int i = 0; i < c.size(); ++i) {
    const SatId sat{i};
    const auto s = util::as_index(sat);
    const orbit::SatelliteId id = c.id_of(sat);
    // "West" in the paper's sense: the same-bucket neighbour that traced
    // this satellite's current ground track one drift interval earlier
    // (Fig. 3) and therefore holds the region's recent footprint. Ground
    // tracks drift westward relative to the planes, so the trailing
    // neighbour is the one `side_` planes in the +RAAN direction.
    const SatId west = remapped(c.plane_offset(id, side_));
    const SatId east = remapped(c.plane_offset(id, -side_));
    west_[s] = west == sat ? util::kNoSat : west;
    east_[s] = east == sat ? util::kNoSat : east;
    west_adjacent_[s] = active_or_none(c.inter_east(id));
    east_adjacent_[s] = active_or_none(c.inter_west(id));
    for (int b = 0; b < l_; ++b) {
      const std::size_t k = cell(sat, util::BucketId{b});
      owner_[k] = remapped(nominal_owner(id, util::BucketId{b}));
      hops_[k] = Hops{0, 0};
      if (owner_[k].value() >= 0) {
        const auto [inter, intra] = hop_split(id, c.id_of(owner_[k]));
        hops_[k] = Hops{static_cast<std::uint8_t>(inter),
                        static_cast<std::uint8_t>(intra)};
      }
    }
  }
}

util::BucketId BucketMapper::bucket_of_slot(
    orbit::SatelliteId id) const noexcept {
  return util::BucketId{(id.plane.value() % side_) * side_ +
                        (id.slot.value() % side_)};
}

orbit::SatelliteId BucketMapper::nominal_owner(
    orbit::SatelliteId from, util::BucketId bucket) const noexcept {
  const int bp = bucket.value() / side_;  // required plane residue (mod side)
  const int bs = bucket.value() % side_;  // required slot residue (mod side)
  const auto nearest = [&](int cur, int residue, int n) {
    // Candidate coordinates with the right residue on either side of `cur`.
    const int fwd = wrap(residue - cur, side_);        // 0..side-1 steps ahead
    const int back = side_ - fwd;                      // steps behind
    const int cand_fwd = wrap(cur + fwd, n);
    const int cand_back = wrap(cur - back, n);
    if (fwd == 0) return cand_fwd;
    return toroidal_abs(fwd, n) <= toroidal_abs(back, n) ? cand_fwd
                                                         : cand_back;
  };
  return orbit::grid_id(
      nearest(from.plane.value(), bp, constellation_->planes()),
      nearest(from.slot.value(), bs, constellation_->slots_per_plane()));
}

std::pair<int, int> BucketMapper::hop_split(
    orbit::SatelliteId a, orbit::SatelliteId b) const noexcept {
  return {toroidal_abs(b.plane.value() - a.plane.value(),
                       constellation_->planes()),
          toroidal_abs(b.slot.value() - a.slot.value(),
                       constellation_->slots_per_plane())};
}

int BucketMapper::worst_case_hops() const noexcept { return 2 * (side_ / 2); }

}  // namespace starcdn::core
