#include "core/simulator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "trace/trace_io.h"
#include "trace/workload.h"
#include "util/geo.h"

namespace starcdn::core {
namespace {

/// Shared fixture: a small-but-real scenario so each test stays fast.
class SimulatorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    shell_ = new orbit::Constellation{orbit::WalkerParams{}};
    auto p = trace::default_params(trace::TrafficClass::kVideo);
    p.object_count = 20'000;
    p.requests_per_weight = 10'000;
    p.duration_s = 2 * util::kHour.value();
    workload_ = new trace::WorkloadModel(util::paper_cities(), p);
    requests_ = new std::vector<trace::Request>(
        trace::merge_by_time(workload_->generate()));
    schedule_ = new sched::LinkSchedule(*shell_, util::paper_cities(),
                                        util::Seconds{p.duration_s});
  }
  static void TearDownTestSuite() {
    delete requests_;
    delete workload_;
    delete schedule_;
    delete shell_;
    requests_ = nullptr;
    workload_ = nullptr;
    schedule_ = nullptr;
    shell_ = nullptr;
  }

  static SimConfig small_config() {
    SimConfig cfg;
    cfg.cache_capacity = util::mib(256);
    cfg.buckets = 4;
    return cfg;
  }

  /// Replay the shared trace through `sim` and seal the run.
  static RunReport replay(Simulator& sim) {
    trace::VectorStream stream(*requests_);
    sim.run(stream);
    return sim.finish();
  }

  static orbit::Constellation* shell_;
  static trace::WorkloadModel* workload_;
  static std::vector<trace::Request>* requests_;
  static sched::LinkSchedule* schedule_;
};

orbit::Constellation* SimulatorTest::shell_ = nullptr;
trace::WorkloadModel* SimulatorTest::workload_ = nullptr;
std::vector<trace::Request>* SimulatorTest::requests_ = nullptr;
sched::LinkSchedule* SimulatorTest::schedule_ = nullptr;

TEST_F(SimulatorTest, ConservationInvariants) {
  Simulator sim(*shell_, *schedule_, small_config());
  sim.add_variant(Variant::kStarCdn);
  sim.add_variant(Variant::kVanillaLru);
  const RunReport report = replay(sim);
  for (const auto v : {Variant::kStarCdn, Variant::kVanillaLru}) {
    const auto& m = report.variant(v).metrics;
    EXPECT_EQ(m.requests, requests_->size());
    EXPECT_EQ(m.hits() + m.misses, m.requests);
    EXPECT_EQ(m.bytes_hit + m.uplink_bytes, m.bytes_requested);
    EXPECT_GT(m.hits(), 0u);
    EXPECT_GT(m.misses, 0u);
  }
}

TEST_F(SimulatorTest, UplinkEqualsOneMinusByteHitRate) {
  Simulator sim(*shell_, *schedule_, small_config());
  sim.add_variant(Variant::kStarCdn);
  const RunReport report = replay(sim);
  const auto& m = report.variant(Variant::kStarCdn).metrics;
  EXPECT_NEAR(m.normalized_uplink(), 1.0 - m.byte_hit_rate(), 1e-12);
}

TEST_F(SimulatorTest, VariantOrderingHolds) {
  // The paper's headline ordering at any reasonable configuration:
  // StarCDN > hashing-only > vanilla LRU (Fig. 7).
  Simulator sim(*shell_, *schedule_, small_config());
  for (const auto v : {Variant::kStarCdn, Variant::kHashOnly,
                       Variant::kRelayOnly, Variant::kVanillaLru}) {
    sim.add_variant(v);
  }
  const RunReport report = replay(sim);
  const auto hit_rate = [&](Variant v) {
    return report.variant(v).metrics.request_hit_rate();
  };
  const double full = hit_rate(Variant::kStarCdn);
  const double hash = hit_rate(Variant::kHashOnly);
  const double relay = hit_rate(Variant::kRelayOnly);
  const double lru = hit_rate(Variant::kVanillaLru);
  EXPECT_GT(full, hash);
  EXPECT_GT(hash, lru);
  EXPECT_GT(relay, lru);
  EXPECT_GT(full, relay);
}

TEST_F(SimulatorTest, RelayedFetchOnlyInRelayVariants) {
  Simulator sim(*shell_, *schedule_, small_config());
  for (const auto v : {Variant::kStarCdn, Variant::kHashOnly}) {
    sim.add_variant(v);
  }
  const RunReport report = replay(sim);
  const auto& star = report.variant(Variant::kStarCdn).metrics;
  const auto& hash = report.variant(Variant::kHashOnly).metrics;
  EXPECT_GT(star.relay_west_hits + star.relay_east_hits, 0u);
  EXPECT_EQ(hash.relay_west_hits, 0u);
  EXPECT_EQ(hash.relay_east_hits, 0u);
}

TEST_F(SimulatorTest, WestNeighbourDominatesRelays) {
  // §3.3/Fig. 3: the west inter-orbit neighbour traces the requester's
  // recent ground track, so most relayed hits come from the west.
  Simulator sim(*shell_, *schedule_, small_config());
  sim.add_variant(Variant::kStarCdn);
  const RunReport report = replay(sim);
  const auto& m = report.variant(Variant::kStarCdn).metrics;
  EXPECT_GT(m.relay_west_hits, m.relay_east_hits);
}

TEST_F(SimulatorTest, RelayAvailabilityTracked) {
  Simulator sim(*shell_, *schedule_, small_config());
  sim.add_variant(Variant::kStarCdn);
  const RunReport report = replay(sim);
  const auto& rel = report.variant(Variant::kStarCdn).metrics.relay;
  // Table 3's pattern: west-only dominates east-only and both.
  EXPECT_GT(rel.west_only_requests, rel.east_only_requests);
  EXPECT_GT(rel.west_only_requests, rel.both_requests);
  EXPECT_GT(rel.west_only_bytes, 0u);
}

TEST_F(SimulatorTest, DisablingEastRelayRemovesEastHits) {
  auto cfg = small_config();
  cfg.relay_east = false;
  Simulator sim(*shell_, *schedule_, cfg);
  sim.add_variant(Variant::kStarCdn);
  const RunReport report = replay(sim);
  const auto& m = report.variant(Variant::kStarCdn).metrics;
  EXPECT_EQ(m.relay_east_hits, 0u);
  EXPECT_GT(m.relay_west_hits, 0u);
}

TEST_F(SimulatorTest, LatencySamplesCollected) {
  Simulator sim(*shell_, *schedule_, small_config());
  sim.add_variant(Variant::kStarCdn);
  const RunReport report = replay(sim);
  const auto& lat = report.variant(Variant::kStarCdn).metrics.latency_ms;
  EXPECT_EQ(lat.count(), requests_->size());
  // Hits cost a couple of GSL+ISL traversals; misses tens of ms.
  EXPECT_GT(lat.median(), 3.0);
  EXPECT_LT(lat.median(), 80.0);
  EXPECT_GT(lat.quantile(0.99), lat.median());
}

TEST_F(SimulatorTest, LatencySamplingCanBeDisabled) {
  auto cfg = small_config();
  cfg.sample_latency = false;
  Simulator sim(*shell_, *schedule_, cfg);
  sim.add_variant(Variant::kVanillaLru);
  EXPECT_TRUE(
      replay(sim).variant(Variant::kVanillaLru).metrics.latency_ms.empty());
}

TEST_F(SimulatorTest, BiggerCacheNeverHurts) {
  auto small_cfg = small_config();
  small_cfg.cache_capacity = util::mib(64);
  Simulator small_sim(*shell_, *schedule_, small_cfg);
  small_sim.add_variant(Variant::kVanillaLru);
  const RunReport small = replay(small_sim);

  auto big_cfg = small_config();
  big_cfg.cache_capacity = util::gib(4);
  Simulator big_sim(*shell_, *schedule_, big_cfg);
  big_sim.add_variant(Variant::kVanillaLru);
  const RunReport big = replay(big_sim);

  EXPECT_GE(
      big.variant(Variant::kVanillaLru).metrics.request_hit_rate() + 0.001,
      small.variant(Variant::kVanillaLru).metrics.request_hit_rate());
}

TEST_F(SimulatorTest, MoreBucketsImproveHashedHitRate) {
  // §5.2.1: L=9 beats L=4 in hit rate (bigger effective cache).
  auto cfg4 = small_config();
  cfg4.buckets = 4;
  Simulator s4(*shell_, *schedule_, cfg4);
  s4.add_variant(Variant::kHashOnly);
  const RunReport r4 = replay(s4);

  auto cfg9 = small_config();
  cfg9.buckets = 9;
  Simulator s9(*shell_, *schedule_, cfg9);
  s9.add_variant(Variant::kHashOnly);
  const RunReport r9 = replay(s9);

  EXPECT_GT(r9.variant(Variant::kHashOnly).metrics.request_hit_rate(),
            r4.variant(Variant::kHashOnly).metrics.request_hit_rate());
}

TEST_F(SimulatorTest, PerSatelliteTracking) {
  auto cfg = small_config();
  cfg.track_per_satellite = true;
  Simulator sim(*shell_, *schedule_, cfg);
  sim.add_variant(Variant::kStarCdn);
  const RunReport report = replay(sim);
  const auto& m = report.variant(Variant::kStarCdn).metrics;
  ASSERT_EQ(m.sat_requests.size(), static_cast<std::size_t>(shell_->size()));
  std::uint64_t total = 0, hits = 0;
  for (std::size_t i = 0; i < m.sat_requests.size(); ++i) {
    total += m.sat_requests[i];
    hits += m.sat_hits[i];
    ASSERT_LE(m.sat_hits[i], m.sat_requests[i]);
  }
  // Relay hits are not attributed to the serving satellite's counters, so
  // the per-satellite totals cover requests that reached a cache.
  EXPECT_EQ(total, m.requests);
  EXPECT_EQ(hits, m.local_hits + m.routed_hits);
}

TEST_F(SimulatorTest, BucketsServedHealthyGridIsOnePerSatellite) {
  Simulator sim(*shell_, *schedule_, small_config());
  const auto served = sim.buckets_served_per_satellite();
  for (int i = 0; i < shell_->size(); ++i) {
    EXPECT_EQ(served[static_cast<std::size_t>(i)], 1);
  }
}

TEST_F(SimulatorTest, UnregisteredVariantThrows) {
  Simulator sim(*shell_, *schedule_, small_config());
  sim.add_variant(Variant::kStarCdn);
  EXPECT_THROW((void)sim.finish().variant(Variant::kVanillaLru),
               std::out_of_range);
}

TEST_F(SimulatorTest, DuplicateVariantRegistrationIsNoop) {
  Simulator sim(*shell_, *schedule_, small_config());
  sim.add_variant(Variant::kStarCdn);
  sim.add_variant(Variant::kStarCdn);
  EXPECT_EQ(replay(sim).variant(Variant::kStarCdn).metrics.requests,
            requests_->size());
}

TEST_F(SimulatorTest, StreamedRunsAccumulate) {
  Simulator whole(*shell_, *schedule_, small_config());
  whole.add_variant(Variant::kStarCdn);
  const RunReport a = replay(whole);

  Simulator chunked(*shell_, *schedule_, small_config());
  chunked.add_variant(Variant::kStarCdn);
  const auto half = static_cast<std::ptrdiff_t>(requests_->size() / 2);
  const std::vector<trace::Request> first(requests_->begin(),
                                          requests_->begin() + half);
  const std::vector<trace::Request> second(requests_->begin() + half,
                                           requests_->end());
  trace::VectorStream first_stream(first);
  trace::VectorStream second_stream(second);
  chunked.run(first_stream);
  chunked.run(second_stream);
  const RunReport b = chunked.finish();

  EXPECT_EQ(a.variant(Variant::kStarCdn).metrics.hits(),
            b.variant(Variant::kStarCdn).metrics.hits());
  EXPECT_EQ(a.variant(Variant::kStarCdn).metrics.uplink_bytes,
            b.variant(Variant::kStarCdn).metrics.uplink_bytes);
}

TEST_F(SimulatorTest, RejectsLocationOutsideSchedule) {
  // location == n_cities at the last epoch would read past the end of the
  // schedule table; the schedule rejects it instead.
  Simulator sim(*shell_, *schedule_, small_config());
  sim.add_variant(Variant::kStarCdn);
  trace::Request r = requests_->front();
  r.location = static_cast<std::uint16_t>(util::paper_cities().size());
  r.timestamp_s = 2 * util::kHour.value() - 1.0;
  const std::vector<trace::Request> bad{r};
  trace::VectorStream stream(bad);
  EXPECT_THROW(sim.run(stream), std::out_of_range);
}

/// Runs `requests` through a fresh StarCDN simulator in `chunk`-request
/// blocks and returns the message of the std::invalid_argument it throws
/// ("" when it does not throw).
std::string time_order_error(const orbit::Constellation& shell,
                             const sched::LinkSchedule& schedule,
                             const SimConfig& cfg,
                             const std::vector<trace::Request>& requests,
                             std::size_t chunk) {
  Simulator sim(shell, schedule, cfg);
  sim.add_variant(Variant::kStarCdn);
  trace::VectorStream stream(requests, chunk);
  try {
    sim.run(stream);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST_F(SimulatorTest, RejectsOutOfOrderNaNAndNegativeTimestamps) {
  std::vector<trace::Request> ok(requests_->begin(), requests_->begin() + 6);
  ASSERT_EQ(time_order_error(*shell_, *schedule_, small_config(), ok, 64), "");

  auto reversed = ok;
  std::swap(reversed[3].timestamp_s, reversed[4].timestamp_s);
  ASSERT_LT(reversed[4].timestamp_s, reversed[3].timestamp_s);
  EXPECT_EQ(time_order_error(*shell_, *schedule_, small_config(), reversed, 64)
                .rfind("request 4:", 0),
            0u);

  auto nan = ok;
  nan[2].timestamp_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(time_order_error(*shell_, *schedule_, small_config(), nan, 64)
                .rfind("request 2:", 0),
            0u);

  auto negative = ok;
  negative[0].timestamp_s = -1.0;
  EXPECT_EQ(time_order_error(*shell_, *schedule_, small_config(), negative, 64)
                .rfind("request 0:", 0),
            0u);
}

TEST_F(SimulatorTest, RejectsStepBackAcrossChunkBoundary) {
  // Chunks of 3: the step back is the first request of the second chunk,
  // so only a check that carries the last timestamp across blocks sees it.
  std::vector<trace::Request> split(requests_->begin(),
                                    requests_->begin() + 6);
  split[3].timestamp_s = std::nextafter(split[2].timestamp_s, 0.0);
  EXPECT_EQ(time_order_error(*shell_, *schedule_, small_config(), split, 3)
                .rfind("request 3:", 0),
            0u);
  // The same requests in one block are rejected at the same position.
  EXPECT_EQ(time_order_error(*shell_, *schedule_, small_config(), split, 64)
                .rfind("request 3:", 0),
            0u);
}

TEST_F(SimulatorTest, RejectsTimestampAtScheduleHorizon) {
  // The two-hour schedule ends at 480 epochs x 15 s = 7,200 s; a request
  // there would read the last epoch's geometry. The first one at the
  // horizon opens the second 3-request chunk.
  const double horizon = 2 * util::kHour.value();
  std::vector<trace::Request> late(requests_->begin(), requests_->begin() + 6);
  for (std::size_t i = 3; i < late.size(); ++i) late[i].timestamp_s = horizon;
  EXPECT_EQ(time_order_error(*shell_, *schedule_, small_config(), late, 3)
                .rfind("request 3:", 0),
            0u);
  EXPECT_EQ(time_order_error(*shell_, *schedule_, small_config(), late, 64)
                .rfind("request 3:", 0),
            0u);

  auto below = late;
  for (std::size_t i = 3; i < below.size(); ++i) {
    below[i].timestamp_s = std::nextafter(horizon, 0.0);
  }
  EXPECT_EQ(time_order_error(*shell_, *schedule_, small_config(), below, 3),
            "");
}

// --- Golden regression -------------------------------------------------------
//
// End-to-end metrics captured from the pre-rewrite (node-based) cache
// implementations on a fixed scenario: every policy x variant combination
// must stay bitwise-identical after the arena-backed cache-core rewrite.
// Any intentional behaviour change to a policy must re-capture these rows.

struct GoldenRow {
  cache::Policy policy;
  Variant variant;
  std::uint64_t local_hits, routed_hits, relay_west_hits, relay_east_hits;
  std::uint64_t misses, unreachable;
  std::uint64_t bytes_hit, uplink_bytes, isl_bytes, prefetch_bytes;
  std::uint64_t relay_both_requests;
};

TEST(SimulatorGolden, MetricsBitwiseIdenticalAcrossCacheRewrite) {
  using cache::Policy;
  static constexpr GoldenRow kGolden[] = {
    {Policy::kLru, Variant(0), 7990u, 0u, 0u, 0u, 14410u, 0u, 96787506361u, 274881501435u, 0u, 0u, 0u},
    {Policy::kLru, Variant(1), 7660u, 0u, 0u, 0u, 14740u, 0u, 92165935056u, 279503072740u, 0u, 0u, 0u},
    {Policy::kLru, Variant(2), 2645u, 8440u, 0u, 0u, 11315u, 0u, 151690795490u, 219978212306u, 115466108068u, 0u, 0u},
    {Policy::kLru, Variant(3), 7732u, 0u, 1989u, 721u, 11958u, 0u, 138921015034u, 232747992762u, 45238780024u, 0u, 708u},
    {Policy::kLru, Variant(4), 2645u, 8466u, 1486u, 789u, 9014u, 0u, 191293095456u, 180375912340u, 155038749696u, 0u, 384u},
    {Policy::kLru, Variant(5), 2601u, 7836u, 0u, 0u, 11963u, 0u, 138708494608u, 232960513188u, 390158118394u, 285769149839u, 0u},
    {Policy::kLfu, Variant(0), 8726u, 0u, 0u, 0u, 13674u, 0u, 105472851524u, 266196156272u, 0u, 0u, 0u},
    {Policy::kLfu, Variant(1), 8206u, 0u, 0u, 0u, 14194u, 0u, 99462369008u, 272206638788u, 0u, 0u, 0u},
    {Policy::kLfu, Variant(2), 2694u, 8792u, 0u, 0u, 10914u, 0u, 155638276977u, 216030730819u, 118953887871u, 0u, 0u},
    {Policy::kLfu, Variant(3), 8236u, 0u, 1739u, 605u, 11820u, 0u, 140337646961u, 231331360835u, 40298404643u, 0u, 511u},
    {Policy::kLfu, Variant(4), 2691u, 8855u, 1432u, 682u, 8740u, 0u, 192385707288u, 179283300508u, 155885714663u, 0u, 345u},
    {Policy::kLfu, Variant(5), 2843u, 8790u, 0u, 0u, 10767u, 0u, 152231310786u, 219437697010u, 374903166854u, 260071178471u, 0u},
    {Policy::kFifo, Variant(0), 7325u, 0u, 0u, 0u, 15075u, 0u, 88976178047u, 282692829749u, 0u, 0u, 0u},
    {Policy::kFifo, Variant(1), 7044u, 0u, 0u, 0u, 15356u, 0u, 85128297738u, 286540710058u, 0u, 0u, 0u},
    {Policy::kFifo, Variant(2), 2551u, 8085u, 0u, 0u, 11764u, 0u, 144579126785u, 227089881011u, 110005529554u, 0u, 0u},
    {Policy::kFifo, Variant(3), 7044u, 0u, 2341u, 931u, 12084u, 0u, 136616281255u, 235052726541u, 51487983517u, 0u, 908u},
    {Policy::kFifo, Variant(4), 2551u, 8085u, 1800u, 854u, 9110u, 0u, 188976908912u, 182692098884u, 154403311681u, 0u, 597u},
    {Policy::kFifo, Variant(5), 2554u, 7517u, 0u, 0u, 12329u, 0u, 134554984129u, 237114023667u, 400408757564u, 299670656678u, 0u},
    {Policy::kSieve, Variant(0), 8388u, 0u, 0u, 0u, 14012u, 0u, 102856128994u, 268812878802u, 0u, 0u, 0u},
    {Policy::kSieve, Variant(1), 8001u, 0u, 0u, 0u, 14399u, 0u, 97193160155u, 274475847641u, 0u, 0u, 0u},
    {Policy::kSieve, Variant(2), 2671u, 8613u, 0u, 0u, 11116u, 0u, 154695959799u, 216973047997u, 117940201255u, 0u, 0u},
    {Policy::kSieve, Variant(3), 7989u, 0u, 1892u, 657u, 11862u, 0u, 140220447544u, 231448560252u, 42527583734u, 0u, 659u},
    {Policy::kSieve, Variant(4), 2672u, 8637u, 1486u, 738u, 8867u, 0u, 192928998479u, 178740009317u, 156113287152u, 0u, 386u},
    {Policy::kSieve, Variant(5), 2828u, 8565u, 0u, 0u, 11007u, 0u, 151212530239u, 220456477557u, 383937073604u, 270437432151u, 0u},
    {Policy::kSlru, Variant(0), 8665u, 0u, 0u, 0u, 13735u, 0u, 105797751966u, 265871255830u, 0u, 0u, 0u},
    {Policy::kSlru, Variant(1), 8192u, 0u, 0u, 0u, 14208u, 0u, 99443628356u, 272225379440u, 0u, 0u, 0u},
    {Policy::kSlru, Variant(2), 2697u, 8766u, 0u, 0u, 10937u, 0u, 155576692066u, 216092315730u, 118736773090u, 0u, 0u},
    {Policy::kSlru, Variant(3), 8203u, 0u, 1793u, 621u, 11783u, 0u, 140985093692u, 230683914104u, 41161523463u, 0u, 554u},
    {Policy::kSlru, Variant(4), 2693u, 8795u, 1447u, 699u, 8766u, 0u, 192960452402u, 178708555394u, 156128473520u, 0u, 354u},
    {Policy::kSlru, Variant(5), 2851u, 8756u, 0u, 0u, 10793u, 0u, 152686670229u, 218982337567u, 380174331869u, 265298917542u, 0u},
    {Policy::kGdsf, Variant(0), 8793u, 0u, 0u, 0u, 13607u, 0u, 97527119254u, 274141888542u, 0u, 0u, 0u},
    {Policy::kGdsf, Variant(1), 8169u, 0u, 0u, 0u, 14231u, 0u, 92141949169u, 279527058627u, 0u, 0u, 0u},
    {Policy::kGdsf, Variant(2), 2716u, 8967u, 0u, 0u, 10717u, 0u, 149443822622u, 222225185174u, 114544699941u, 0u, 0u},
    {Policy::kGdsf, Variant(3), 8237u, 0u, 1889u, 688u, 11586u, 0u, 134264732932u, 237404274864u, 40875012310u, 0u, 575u},
    {Policy::kGdsf, Variant(4), 2726u, 9015u, 1441u, 680u, 8538u, 0u, 186106804782u, 185562203014u, 151095667198u, 0u, 352u},
    {Policy::kGdsf, Variant(5), 2843u, 8754u, 0u, 0u, 10803u, 0u, 140550871860u, 231118135936u, 354138320335u, 247567169119u, 0u},
  };

  const orbit::Constellation shell{orbit::WalkerParams{}};
  // The trace is a checked-in fixture, so these rows pin the simulator and
  // the caches only, never the generator: merge_by_time(generate()) of the
  // video model with 5,000 objects, 2,000 requests per weight and a
  // 1,800 s day (22,400 requests, seed 42), written with
  // write_binary_stream before SpaceGEN moved to minute-major draws.
  const std::string golden_trace =
      std::string(STARCDN_TEST_DATA_DIR) + "/golden_trace.scdnstr";
  const sched::LinkSchedule schedule(shell, util::paper_cities(),
                                     util::Seconds{1'800.0});
  constexpr Variant kVariants[] = {
      Variant::kStatic,   Variant::kVanillaLru, Variant::kHashOnly,
      Variant::kRelayOnly, Variant::kStarCdn,   Variant::kPrefetch,
  };

  std::size_t row = 0;
  for (const auto policy :
       {Policy::kLru, Policy::kLfu, Policy::kFifo, Policy::kSieve,
        Policy::kSlru, Policy::kGdsf}) {
    SimConfig cfg;
    cfg.policy = policy;
    cfg.cache_capacity = util::mib(64);
    cfg.buckets = 4;
    Simulator sim(shell, schedule, cfg);
    for (const auto v : kVariants) sim.add_variant(v);
    const auto stream = trace::open_binary_stream(golden_trace);
    ASSERT_EQ(stream->size_hint(), 22'400u);
    sim.run(*stream);
    const RunReport report = sim.finish();
    for (const auto v : kVariants) {
      const GoldenRow& g = kGolden[row++];
      ASSERT_EQ(g.policy, policy);
      ASSERT_EQ(g.variant, v);
      const auto& m = report.variant(v).metrics;
      const auto label = std::string(cache::to_string(policy)) + "/variant " +
                         std::to_string(static_cast<int>(v));
      EXPECT_EQ(m.local_hits, g.local_hits) << label;
      EXPECT_EQ(m.routed_hits, g.routed_hits) << label;
      EXPECT_EQ(m.relay_west_hits, g.relay_west_hits) << label;
      EXPECT_EQ(m.relay_east_hits, g.relay_east_hits) << label;
      EXPECT_EQ(m.misses, g.misses) << label;
      EXPECT_EQ(m.unreachable, g.unreachable) << label;
      EXPECT_EQ(m.bytes_hit, g.bytes_hit) << label;
      EXPECT_EQ(m.uplink_bytes, g.uplink_bytes) << label;
      EXPECT_EQ(m.isl_bytes, g.isl_bytes) << label;
      EXPECT_EQ(m.prefetch_bytes, g.prefetch_bytes) << label;
      EXPECT_EQ(m.relay.both_requests, g.relay_both_requests) << label;
    }
  }
  EXPECT_EQ(row, std::size(kGolden));
}

TEST(SimulatorFailures, KnockedOutConstellationStillServes) {
  orbit::Constellation shell{orbit::WalkerParams{}};
  util::Rng rng(7);
  shell.knock_out_random(0.097, rng);  // the paper's out-of-slot rate
  auto p = trace::default_params(trace::TrafficClass::kVideo);
  p.object_count = 10'000;
  p.requests_per_weight = 4'000;
  p.duration_s = util::kHour.value();
  const trace::WorkloadModel w(util::paper_cities(), p);
  const auto requests = trace::merge_by_time(w.generate());
  const sched::LinkSchedule schedule(shell, util::paper_cities(), util::Seconds{p.duration_s});

  SimConfig cfg;
  cfg.cache_capacity = util::mib(256);
  cfg.buckets = 9;
  cfg.track_per_satellite = true;
  Simulator sim(shell, schedule, cfg);
  sim.add_variant(Variant::kStarCdn);
  trace::VectorStream stream(requests);
  sim.run(stream);
  const RunReport report = sim.finish();

  const auto& m = report.variant(Variant::kStarCdn).metrics;
  EXPECT_EQ(m.requests, requests.size());
  EXPECT_GT(m.request_hit_rate(), 0.2);

  // Fig. 11 structure: some satellites inherit extra bucket slots.
  const auto served = sim.buckets_served_per_satellite();
  int multi = 0;
  for (int i = 0; i < shell.size(); ++i) {
    if (!shell.active(util::SatId{i})) {
      EXPECT_EQ(served[static_cast<std::size_t>(i)], 0);
    } else if (served[static_cast<std::size_t>(i)] > 1) {
      ++multi;
    }
  }
  EXPECT_GT(multi, 0);
}

}  // namespace
}  // namespace starcdn::core
