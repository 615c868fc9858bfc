// The StarCDN serve decision that core::Simulator and replay::replay_cluster
// both run: contact, route to the bucket owner (§3.2), then fetch with the
// relayed fetch (§3.3). DESIGN.md §5.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "cache/cache.h"
#include "core/bucket_mapper.h"
#include "core/variant.h"
#include "sched/scheduler.h"
#include "util/hash.h"
#include "util/ids.h"

namespace starcdn::core {

struct Contact {
  util::EpochIdx epoch{0};
  std::uint64_t user = 0;  // the city's user terminal
  sched::Candidate fc;     // first contact; fc.sat < 0 in a coverage gap
};

/// Step 1. `counter`, the request's position, rotates the city's `users`
/// terminals so an epoch's requests spread over its candidates as
/// CosmicBeats splits them (§5.1). Throws std::out_of_range on an unknown
/// city.
[[nodiscard]] inline Contact contact(const sched::LinkSchedule& schedule,
                                     std::uint64_t users, double timestamp_s,
                                     util::CityId city,
                                     std::uint64_t counter) {
  Contact c;
  c.epoch = schedule.epoch_of(util::Seconds{timestamp_s});
  c.user = util::splitmix64(counter) % users;
  c.fc = schedule.first_contact(c.epoch, city, c.user);
  return c;
}

/// Step 2, for a hashed variant: the owner of `bucket` seen from first
/// contact `fc`, or `fc` when no satellite owns it.
[[nodiscard]] inline util::SatId route(const BucketMapper& mapper,
                                       util::SatId fc,
                                       util::BucketId bucket) noexcept {
  const util::SatId owner = mapper.owner_of(fc, bucket);
  return owner.value() >= 0 ? owner : fc;
}

/// The replicas a miss at `sat` probes (§3.3): the same-bucket ones for
/// kStarCdn, the adjacent planes for kRelayOnly, none for the other
/// variants; util::kNoSat where there is none or when `relay_east` is off.
struct RelayPartners {
  util::SatId west = util::kNoSat;
  util::SatId east = util::kNoSat;
};

[[nodiscard]] inline RelayPartners relay_partners(const BucketMapper& mapper,
                                                  Variant v, bool relay_east,
                                                  util::SatId sat) noexcept {
  if (v == Variant::kStarCdn) {
    return {mapper.west_of(sat),
            relay_east ? mapper.east_of(sat) : util::kNoSat};
  }
  if (v == Variant::kRelayOnly) {
    return {mapper.west_adjacent(sat),
            relay_east ? mapper.east_adjacent(sat) : util::kNoSat};
  }
  return {};
}

/// Cache-disjoint groups of `v`'s `satellites` caches: a serve at `sat`
/// touches `sat`, its relay partners and, for kPrefetch, the west replica
/// it prefetches from, so a union over those links leaves groups that no
/// request crosses. Returns each satellite's group, numbered densely in
/// order of the group's lowest satellite. DESIGN.md §6.
[[nodiscard]] inline std::vector<std::uint32_t> cache_groups(
    const BucketMapper& mapper, int satellites, Variant v, bool relay_east) {
  const auto n = static_cast<std::size_t>(satellites);
  std::vector<std::uint32_t> root(n);
  std::iota(root.begin(), root.end(), 0U);
  const auto find = [&root](std::uint32_t x) {
    while (root[x] != x) x = root[x] = root[root[x]];
    return x;
  };
  const auto link = [&](std::uint32_t a, util::SatId b) {
    if (b.value() < 0) return;
    const std::uint32_t ra = find(a);
    const std::uint32_t rb = find(static_cast<std::uint32_t>(b.value()));
    root[std::max(ra, rb)] = std::min(ra, rb);  // a root is its set's minimum
  };
  for (std::uint32_t s = 0; s < n; ++s) {
    const util::SatId sat{static_cast<std::int32_t>(s)};
    const RelayPartners p = relay_partners(mapper, v, relay_east, sat);
    link(s, p.west);
    link(s, p.east);
    if (v == Variant::kPrefetch) link(s, mapper.west_of(sat));
  }
  std::vector<std::uint32_t> group(n);
  std::uint32_t groups = 0;
  for (std::uint32_t s = 0; s < n; ++s) {
    const std::uint32_t r = find(s);
    group[s] = r == s ? groups++ : group[r];
  }
  return group;
}

struct Fetch {
  enum class Source : std::uint8_t { kOwner, kWest, kEast, kGround };
  Source source = Source::kGround;
  // Which relay partners held the object (Table 3). After a west hit the
  // east partner is probed only when the cache access sets kPeekBoth.
  bool west_has = false;
  bool east_has = false;
};

/// Step 3 at the serving satellite `owner`. `Caches` has touch(sat, id) (a
/// hit refreshes the entry), peek(sat, id) (no side effect), admit(sat, id,
/// size) and `kPeekBoth`: probe the east partner after a west hit too. The
/// replica that serves a relay hit is touched. Forced inline: it is on the
/// Simulator's per-request path.
template <class Caches>
[[nodiscard, gnu::always_inline]] inline Fetch fetch(
    const BucketMapper& mapper, Variant v, bool relay_east, util::SatId owner,
    cache::ObjectId object, util::Bytes size, Caches& caches) {
  Fetch f;
  if (caches.touch(owner, object)) {
    f.source = Fetch::Source::kOwner;
    return f;
  }
  const RelayPartners p = relay_partners(mapper, v, relay_east, owner);
  f.west_has = p.west.value() >= 0 && caches.peek(p.west, object);
  f.east_has = (Caches::kPeekBoth || !f.west_has) && p.east.value() >= 0 &&
               caches.peek(p.east, object);
  if (f.west_has || f.east_has) {
    f.source = f.west_has ? Fetch::Source::kWest : Fetch::Source::kEast;
    (void)caches.touch(f.west_has ? p.west : p.east, object);
  }
  caches.admit(owner, object, size);  // backflow or ground fill
  return f;
}

}  // namespace starcdn::core
