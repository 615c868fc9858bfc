#include "core/bucket_mapper.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace starcdn::core {
namespace {

orbit::WalkerParams shell_params() {
  orbit::WalkerParams p;
  p.planes = 12;
  p.slots_per_plane = 6;
  return p;
}

TEST(BucketMapper, RejectsNonSquareBucketCounts) {
  const orbit::Constellation c{shell_params()};
  EXPECT_THROW(BucketMapper(c, 5), std::invalid_argument);
  EXPECT_THROW(BucketMapper(c, 0), std::invalid_argument);
  EXPECT_THROW(BucketMapper(c, -4), std::invalid_argument);
  EXPECT_NO_THROW(BucketMapper(c, 1));
  EXPECT_NO_THROW(BucketMapper(c, 4));
  EXPECT_NO_THROW(BucketMapper(c, 9));
}

TEST(BucketMapper, RejectsGridTooWideForByteHopSplits) {
  // Hop splits are stored as bytes: a toroidal distance must fit in 255.
  orbit::WalkerParams wide;
  wide.planes = 511;
  wide.slots_per_plane = 1;
  EXPECT_NO_THROW(BucketMapper(orbit::Constellation{wide}, 1));
  wide.planes = 512;
  EXPECT_THROW(BucketMapper(orbit::Constellation{wide}, 1),
               std::invalid_argument);
}

TEST(BucketMapper, ObjectHashingUniform) {
  const orbit::Constellation c{shell_params()};
  const BucketMapper m(c, 4);
  int counts[4] = {};
  for (cache::ObjectId id = 0; id < 40'000; ++id) {
    const int b = m.bucket_of_object(id).value();
    ASSERT_GE(b, 0);
    ASSERT_LT(b, 4);
    ++counts[b];
  }
  for (const int n : counts) EXPECT_NEAR(n, 10'000, 500);
}

TEST(BucketMapper, SlotTilingPattern) {
  // Fig. 5a: each sqrt(L) x sqrt(L) tile holds all L distinct buckets.
  const orbit::Constellation c{shell_params()};
  const BucketMapper m(c, 4);
  for (int p = 0; p < c.planes(); p += 2) {
    for (int s = 0; s < c.slots_per_plane(); s += 2) {
      std::set<int> tile;
      for (int dp = 0; dp < 2; ++dp) {
        for (int ds = 0; ds < 2; ++ds) {
          tile.insert(m.bucket_of_slot({p + dp, s + ds}).value());
        }
      }
      EXPECT_EQ(tile.size(), 4u) << "tile at " << p << "," << s;
    }
  }
}

class BucketHopBoundTest : public ::testing::TestWithParam<int> {};

TEST_P(BucketHopBoundTest, EveryBucketWithinWorstCaseHops) {
  // §3.2: any bucket reachable within 2*floor(sqrt(L)/2) hops.
  const int L = GetParam();
  const orbit::Constellation c{shell_params()};
  const BucketMapper m(c, L);
  const int bound = m.worst_case_hops();
  for (int p = 0; p < c.planes(); ++p) {
    for (int s = 0; s < c.slots_per_plane(); ++s) {
      const orbit::SatelliteId from{p, s};
      for (int b = 0; b < L; ++b) {
        const auto owner = m.nominal_owner(from, util::BucketId{b});
        EXPECT_EQ(m.bucket_of_slot(owner).value(), b)
            << "L=" << L << " from=" << p << "," << s << " bucket=" << b;
        EXPECT_LE(c.grid_hops(from, owner), bound);
      }
    }
  }
}

// L=4 and L=9 divide the 12x6 grid evenly (the Starlink-compatible values
// the paper uses, §3.2).
INSTANTIATE_TEST_SUITE_P(SquareCounts, BucketHopBoundTest,
                         ::testing::Values(1, 4, 9));

TEST(BucketMapper, WorstCaseHopsFormula) {
  const orbit::Constellation c{shell_params()};
  EXPECT_EQ(BucketMapper(c, 1).worst_case_hops(), 0);
  EXPECT_EQ(BucketMapper(c, 4).worst_case_hops(), 2);
  EXPECT_EQ(BucketMapper(c, 9).worst_case_hops(), 2);   // same as L=4 (§5.3)
  EXPECT_EQ(BucketMapper(c, 16).worst_case_hops(), 4);
  EXPECT_EQ(BucketMapper(c, 25).worst_case_hops(), 4);
}

TEST(BucketMapper, OwnerIsNominalWhenHealthy) {
  const orbit::Constellation c{shell_params()};
  const BucketMapper m(c, 4);
  const auto owner = m.owner({3, 3}, util::BucketId{2});
  ASSERT_TRUE(owner.has_value());
  EXPECT_EQ(*owner, m.nominal_owner({3, 3}, util::BucketId{2}));
}

TEST(BucketMapper, RemapPicksNearestActive) {
  orbit::Constellation c{shell_params()};
  c.set_active({2, 2}, false);
  const BucketMapper m(c, 4);
  const auto target = m.remap({2, 2});
  ASSERT_TRUE(target.has_value());
  EXPECT_TRUE(c.active(c.index_of(*target)));
  EXPECT_EQ(c.grid_hops({2, 2}, *target), 1);  // a direct neighbour is alive
}

TEST(BucketMapper, RemapIsDeterministicAcrossRequesters) {
  // §3.4: all requesters must agree on the substitute owner.
  orbit::Constellation c{shell_params()};
  util::Rng rng(3);
  c.knock_out_random(0.2, rng);
  const BucketMapper m(c, 9);
  for (int i = 0; i < c.size(); ++i) {
    const auto a = m.remap(c.id_of(util::SatId{i}));
    const auto b = m.remap(c.id_of(util::SatId{i}));
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) {
      EXPECT_EQ(*a, *b);
    }
  }
}

TEST(BucketMapper, RemapOfActiveSatelliteIsIdentity) {
  const orbit::Constellation c{shell_params()};
  const BucketMapper m(c, 4);
  for (int i = 0; i < c.size(); ++i) {
    const auto t = m.remap(c.id_of(util::SatId{i}));
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(*t, c.id_of(util::SatId{i}));
  }
}

TEST(BucketMapper, AllDownYieldsNullopt) {
  orbit::Constellation c{shell_params()};
  for (int i = 0; i < c.size(); ++i) c.set_active(c.id_of(util::SatId{i}), false);
  const BucketMapper m(c, 4);
  EXPECT_FALSE(m.remap({0, 0}).has_value());
  EXPECT_FALSE(m.owner({0, 0}, util::BucketId{1}).has_value());
}

TEST(BucketMapper, ReplicasAreSameBucketAndDistinct) {
  const orbit::Constellation c{shell_params()};
  const BucketMapper m(c, 4);
  const orbit::SatelliteId owner{4, 2};
  const auto west = m.west_replica(owner);
  const auto east = m.east_replica(owner);
  ASSERT_TRUE(west && east);
  // Replicas sit sqrt(L) planes away: same bucket column (§3.3).
  EXPECT_EQ(m.bucket_of_slot(*west), m.bucket_of_slot(owner));
  EXPECT_EQ(m.bucket_of_slot(*east), m.bucket_of_slot(owner));
  EXPECT_FALSE(*west == owner);
  EXPECT_FALSE(*east == owner);
  // "West" = trailing (+RAAN) plane, "east" = leading (-RAAN) plane.
  EXPECT_EQ(west->plane.value(), 6);
  EXPECT_EQ(east->plane.value(), 2);
}

TEST(BucketMapper, ReplicaRemapsAroundFailure) {
  orbit::Constellation c{shell_params()};
  c.set_active({6, 2}, false);  // the nominal west replica of (4,2)
  const BucketMapper m(c, 4);
  const auto west = m.west_replica({4, 2});
  ASSERT_TRUE(west.has_value());
  EXPECT_TRUE(c.active(c.index_of(*west)));
  EXPECT_FALSE(*west == (orbit::SatelliteId{4, 2}));
}

TEST(BucketMapper, ReplicaNeverReturnsOwnerItself) {
  // Kill everything except one satellite: replicas must be nullopt, not
  // the owner.
  orbit::Constellation c{shell_params()};
  for (int i = 1; i < c.size(); ++i) c.set_active(c.id_of(util::SatId{i}), false);
  const BucketMapper m(c, 4);
  EXPECT_FALSE(m.west_replica({0, 0}).has_value());
  EXPECT_FALSE(m.east_replica({0, 0}).has_value());
}

TEST(BucketMapper, HopSplitToroidal) {
  const orbit::Constellation c{shell_params()};
  const BucketMapper m(c, 4);
  const auto [inter, intra] = m.hop_split({0, 0}, {11, 5});
  EXPECT_EQ(inter, 1);  // wraps
  EXPECT_EQ(intra, 1);  // wraps
  const auto [i2, a2] = m.hop_split({0, 0}, {6, 3});
  EXPECT_EQ(i2, 6);
  EXPECT_EQ(a2, 3);
}

// Reference for the tables, recomputed from the grid geometry alone: the
// nearest active slot by (plane, slot) ring search in the mapper's scan
// order, nominal_owner, hop_split and the constellation's neighbours.
std::optional<orbit::SatelliteId> reference_remap(
    const orbit::Constellation& c, orbit::SatelliteId nominal) {
  if (c.active(nominal)) return nominal;
  const int max_r = c.planes() / 2 + c.slots_per_plane() / 2;
  for (int r = 1; r <= max_r; ++r) {
    for (int dp = -r; dp <= r; ++dp) {
      const int rem = r - std::abs(dp);
      const std::vector<int> slot_steps =
          rem == 0 ? std::vector<int>{0} : std::vector<int>{-rem, rem};
      for (const int ds : slot_steps) {
        const auto cand = c.slot_offset(c.plane_offset(nominal, dp), ds);
        if (c.active(cand)) return cand;
      }
    }
  }
  return std::nullopt;
}

util::SatId sat_or_none(const orbit::Constellation& c,
                        const std::optional<orbit::SatelliteId>& id) {
  return id ? c.index_of(*id) : util::kNoSat;
}

/// Reference remap target of every slot, by SatId.
std::vector<util::SatId> reference_remaps(const orbit::Constellation& c) {
  std::vector<util::SatId> out;
  for (int i = 0; i < c.size(); ++i) {
    out.push_back(sat_or_none(c, reference_remap(c, c.id_of(util::SatId{i}))));
  }
  return out;
}

util::SatId adjacent_or_none(const orbit::Constellation& c,
                             orbit::SatelliteId id) {
  return c.active(id) ? c.index_of(id) : util::kNoSat;
}

/// Compares every table entry of an L-bucket mapper over `c` with the
/// reference; `remap` is reference_remaps(c). Stops after a few
/// mismatching satellites so a broken table reports briefly.
void expect_tables_match(const orbit::Constellation& c,
                         const std::vector<util::SatId>& remap, int L) {
  const BucketMapper m(c, L);
  const int side = m.tile_side();
  const auto remapped = [&](orbit::SatelliteId id) {
    return remap[util::as_index(c.index_of(id))];
  };
  const auto replica = [&](orbit::SatelliteId owner, int dp) {
    const util::SatId r = remapped(c.plane_offset(owner, dp));
    return r == c.index_of(owner) ? util::kNoSat : r;
  };
  int bad_sats = 0;
  for (int i = 0; i < c.size() && bad_sats < 5; ++i) {
    const util::SatId sat{i};
    const orbit::SatelliteId id = c.id_of(sat);
    int bad = 0;
    const auto check = [&](auto got, auto want, const char* what, int b) {
      EXPECT_EQ(got, want) << what << " of sat " << i << " bucket " << b;
      bad += got == want ? 0 : 1;
    };
    check(m.remap_of(sat), remap[util::as_index(sat)], "remap_of", -1);
    check(sat_or_none(c, m.remap(id)), remap[util::as_index(sat)], "remap",
          -1);
    check(m.west_of(sat), replica(id, side), "west_of", -1);
    check(m.east_of(sat), replica(id, -side), "east_of", -1);
    check(sat_or_none(c, m.west_replica(id)), replica(id, side),
          "west_replica", -1);
    check(sat_or_none(c, m.east_replica(id)), replica(id, -side),
          "east_replica", -1);
    check(m.west_adjacent(sat), adjacent_or_none(c, c.inter_east(id)),
          "west_adjacent", -1);
    check(m.east_adjacent(sat), adjacent_or_none(c, c.inter_west(id)),
          "east_adjacent", -1);
    for (int b = 0; b < L; ++b) {
      const util::BucketId bucket{b};
      const util::SatId want = remapped(m.nominal_owner(id, bucket));
      check(m.owner_of(sat, bucket), want, "owner_of", b);
      check(sat_or_none(c, m.owner(id, bucket)), want, "owner", b);
      const auto [inter, intra] = want.value() >= 0
                                      ? m.hop_split(id, c.id_of(want))
                                      : std::pair<int, int>{0, 0};
      const BucketMapper::Hops hops = m.hops_of(sat, bucket);
      check(int{hops.inter}, inter, "hops.inter", b);
      check(int{hops.intra}, intra, "hops.intra", b);
    }
    bad_sats += bad > 0 ? 1 : 0;
  }
}

TEST(BucketMapper, TablesMatchReferenceGeometry) {
  // Exhaustive over every (SatId, bucket) of the paper's 72x18 shell.
  const orbit::Constellation healthy{orbit::WalkerParams{}};
  orbit::Constellation knocked{orbit::WalkerParams{}};
  util::Rng rng(2025);
  knocked.knock_out_random(0.097, rng);  // the paper's out-of-slot rate
  orbit::Constellation one_alive{orbit::WalkerParams{}};
  orbit::Constellation all_down{orbit::WalkerParams{}};
  for (int i = 0; i < all_down.size(); ++i) {
    const orbit::SatelliteId id = all_down.id_of(util::SatId{i});
    all_down.set_active(id, false);
    one_alive.set_active(id, i == 700);
  }
  const std::pair<const char*, const orbit::Constellation*> shells[] = {
      {"healthy", &healthy},
      {"9.7% knocked out", &knocked},
      {"one alive", &one_alive},
      {"all down", &all_down}};
  for (const auto& [name, shell] : shells) {
    const std::vector<util::SatId> remap = reference_remaps(*shell);
    for (const int L : {1, 4, 9, 16, 25}) {
      SCOPED_TRACE(std::string(name) + " L=" + std::to_string(L));
      expect_tables_match(*shell, remap, L);
    }
  }
}

}  // namespace
}  // namespace starcdn::core
