// Differential test of the serve plan (core/serve.h): the trace-driven
// Simulator and the message-driven cluster execute the same plan, so on the
// same trace they must count the same hits, relay hits, misses and uplink
// bytes — over either transport, and at a capacity that evicts.
#include "core/serve.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/simulator.h"
#include "replay/replayer.h"
#include "trace/workload.h"
#include "util/geo.h"

namespace starcdn {
namespace {

class ServeParity : public ::testing::Test {
 protected:
  /// A 12x6 shell, its one-hour schedule and a one-hour nine-city video
  /// trace of about 22,400 requests, built once for the suite.
  static void SetUpTestSuite() {
    orbit::WalkerParams shell;
    shell.planes = 12;
    shell.slots_per_plane = 6;
    shell_ = std::make_unique<orbit::Constellation>(shell);
    schedule_ = std::make_unique<sched::LinkSchedule>(
        *shell_, util::paper_cities(), util::kHour);
    auto p = trace::default_params(trace::TrafficClass::kVideo);
    p.duration_s = util::kHour.value();
    p.requests_per_weight = 2'000;
    const trace::WorkloadModel model(util::paper_cities(), p);
    requests_ = std::make_unique<std::vector<trace::Request>>(
        trace::merge_by_time(model.generate()));
  }
  static void TearDownTestSuite() {
    requests_.reset();
    schedule_.reset();
    shell_.reset();
  }

  /// The Simulator's kStarCdn counters in the cluster's report shape.
  static replay::ReplayReport simulate(util::Bytes capacity, bool relay_east) {
    const core::SimConfig cfg = core::SimConfig::Builder{}
                                    .cache_capacity(capacity)
                                    .buckets(4)
                                    .relay_east(relay_east)
                                    .sample_latency(false)
                                    .variant(core::Variant::kStarCdn)
                                    .build();
    core::Simulator sim(*shell_, *schedule_, cfg);
    trace::VectorStream stream(*requests_);
    sim.run(stream);
    const core::RunReport report = sim.finish();
    const core::VariantMetrics& m =
        report.variant(core::Variant::kStarCdn).metrics;
    replay::ReplayReport r;
    r.requests = m.requests;
    r.hits = m.hits();
    r.relay_hits = m.relay_west_hits + m.relay_east_hits;
    r.misses = m.misses;
    r.uplink_bytes = m.uplink_bytes;
    return r;
  }

  static replay::ReplayReport cluster(util::Bytes capacity, bool relay_east,
                                      replay::TransportKind transport) {
    replay::ReplayConfig cfg;
    cfg.cache_capacity = capacity;
    cfg.buckets = 4;
    cfg.relay_east = relay_east;
    cfg.transport = transport;
    trace::VectorStream stream(*requests_);
    return replay::replay_cluster(*shell_, *schedule_, stream, cfg);
  }

  /// Simulator == in-process cluster == TCP cluster, east relay on and off.
  static void expect_parity(util::Bytes capacity) {
    for (const bool east : {true, false}) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + " B, relay_east " +
                   std::to_string(east));
      const replay::ReplayReport sim = simulate(capacity, east);
      ASSERT_EQ(sim.requests, requests_->size());
      EXPECT_GT(sim.relay_hits, 0u);
      EXPECT_GT(sim.misses, 0u);
      EXPECT_EQ(cluster(capacity, east, replay::TransportKind::kInProcess),
                sim);
      EXPECT_EQ(cluster(capacity, east, replay::TransportKind::kTcp), sim);
    }
  }

  static inline std::unique_ptr<orbit::Constellation> shell_;
  static inline std::unique_ptr<sched::LinkSchedule> schedule_;
  static inline std::unique_ptr<std::vector<trace::Request>> requests_;
};

TEST_F(ServeParity, EvictingCapacity64MiB) { expect_parity(util::mib(64)); }

TEST_F(ServeParity, Capacity512MiB) { expect_parity(util::mib(512)); }

TEST_F(ServeParity, Capacity8GiB) { expect_parity(util::gib(8)); }

/// Cache access that logs each call and holds `object` at `holders`.
template <bool PeekBoth>
struct LoggedCaches {
  static constexpr bool kPeekBoth = PeekBoth;
  std::vector<util::SatId> holders;
  std::vector<std::string> log;

  bool holds(util::SatId sat) const {
    for (const util::SatId h : holders) {
      if (h == sat) return true;
    }
    return false;
  }
  bool touch(util::SatId sat, cache::ObjectId) {
    log.push_back("touch " + std::to_string(sat.value()));
    return holds(sat);
  }
  bool peek(util::SatId sat, cache::ObjectId) {
    log.push_back("peek " + std::to_string(sat.value()));
    return holds(sat);
  }
  void admit(util::SatId sat, cache::ObjectId, util::Bytes) {
    log.push_back("admit " + std::to_string(sat.value()));
  }
};

std::string call(const char* op, util::SatId sat) {
  return std::string(op) + " " + std::to_string(sat.value());
}

using Log = std::vector<std::string>;

TEST(ServePlan, RelayHitRefreshesTheServingReplicaThenFillsTheOwner) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  const core::BucketMapper mapper(shell, 4);
  const auto star = core::Variant::kStarCdn;
  const util::SatId owner{0};
  const util::SatId west = mapper.west_of(owner);
  const util::SatId east = mapper.east_of(owner);

  LoggedCaches<true> both{{west, east}, {}};
  core::Fetch f = core::fetch(mapper, star, true, owner, 7, 100, both);
  EXPECT_EQ(f.source, core::Fetch::Source::kWest);
  EXPECT_TRUE(f.west_has && f.east_has);
  EXPECT_EQ(both.log, (Log{call("touch", owner), call("peek", west),
                           call("peek", east), call("touch", west),
                           call("admit", owner)}));

  LoggedCaches<true> east_only{{east}, {}};
  f = core::fetch(mapper, star, true, owner, 7, 100, east_only);
  EXPECT_EQ(f.source, core::Fetch::Source::kEast);
  EXPECT_EQ(east_only.log.at(3), call("touch", east));

  LoggedCaches<true> at_owner{{owner}, {}};
  f = core::fetch(mapper, star, true, owner, 7, 100, at_owner);
  EXPECT_EQ(f.source, core::Fetch::Source::kOwner);
  EXPECT_EQ(at_owner.log, Log{call("touch", owner)});

  LoggedCaches<true> nowhere{{}, {}};
  f = core::fetch(mapper, star, true, owner, 7, 100, nowhere);
  EXPECT_EQ(f.source, core::Fetch::Source::kGround);
  EXPECT_FALSE(f.west_has || f.east_has);
  EXPECT_EQ(nowhere.log.back(), call("admit", owner));
}

TEST(ServePlan, WestHitSkipsTheEastProbeUnlessPeekBoth) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  const core::BucketMapper mapper(shell, 4);
  const auto star = core::Variant::kStarCdn;
  const util::SatId owner{0};
  const util::SatId west = mapper.west_of(owner);
  const util::SatId east = mapper.east_of(owner);

  LoggedCaches<false> both{{west, east}, {}};
  core::Fetch f = core::fetch(mapper, star, true, owner, 7, 100, both);
  EXPECT_EQ(f.source, core::Fetch::Source::kWest);
  EXPECT_TRUE(f.west_has);
  EXPECT_FALSE(f.east_has);  // not probed
  EXPECT_EQ(both.log, (Log{call("touch", owner), call("peek", west),
                           call("touch", west), call("admit", owner)}));

  LoggedCaches<false> east_only{{east}, {}};
  f = core::fetch(mapper, star, true, owner, 7, 100, east_only);
  EXPECT_EQ(f.source, core::Fetch::Source::kEast);
  EXPECT_EQ(east_only.log, (Log{call("touch", owner), call("peek", west),
                                call("peek", east), call("touch", east),
                                call("admit", owner)}));
}

TEST(ServePlan, VariantsProbeTheirRelayPartners) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  const core::BucketMapper mapper(shell, 4);
  const util::SatId owner{0};

  // Without hashing, the relay partners are the adjacent planes.
  LoggedCaches<true> adjacent{{}, {}};
  (void)core::fetch(mapper, core::Variant::kRelayOnly, true, owner, 7, 100,
                    adjacent);
  EXPECT_EQ(adjacent.log,
            (Log{call("touch", owner), call("peek", mapper.west_adjacent(owner)),
                 call("peek", mapper.east_adjacent(owner)),
                 call("admit", owner)}));

  LoggedCaches<true> west_only{{}, {}};
  (void)core::fetch(mapper, core::Variant::kStarCdn, false, owner, 7, 100,
                    west_only);
  EXPECT_EQ(west_only.log,
            (Log{call("touch", owner), call("peek", mapper.west_of(owner)),
                 call("admit", owner)}));

  for (const core::Variant v :
       {core::Variant::kStatic, core::Variant::kVanillaLru,
        core::Variant::kHashOnly, core::Variant::kPrefetch}) {
    LoggedCaches<true> none{{}, {}};
    (void)core::fetch(mapper, v, true, owner, 7, 100, none);
    EXPECT_EQ(none.log, (Log{call("touch", owner), call("admit", owner)}));
  }
}

}  // namespace
}  // namespace starcdn
