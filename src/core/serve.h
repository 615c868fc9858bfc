// The StarCDN serve decision that core::Simulator and replay::replay_cluster
// both run: contact, route to the bucket owner (§3.2), then fetch with the
// relayed fetch (§3.3). DESIGN.md §5.
#pragma once

#include <cstdint>

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
  if (v == Variant::kStarCdn || v == Variant::kRelayOnly) {
    // Same-bucket replicas when hashed, else the adjacent planes.
    const bool star = v == Variant::kStarCdn;
    const util::SatId west =
        star ? mapper.west_of(owner) : mapper.west_adjacent(owner);
    const util::SatId east = !relay_east ? util::kNoSat
                             : star      ? mapper.east_of(owner)
                                         : mapper.east_adjacent(owner);
    f.west_has = west.value() >= 0 && caches.peek(west, object);
    f.east_has = (Caches::kPeekBoth || !f.west_has) && east.value() >= 0 &&
                 caches.peek(east, object);
    if (f.west_has || f.east_has) {
      f.source = f.west_has ? Fetch::Source::kWest : Fetch::Source::kEast;
      (void)caches.touch(f.west_has ? west : east, object);
    }
  }
  caches.admit(owner, object, size);  // backflow or ground fill
  return f;
}

}  // namespace starcdn::core
