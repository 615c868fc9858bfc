// The parallel engine's contract: simulation results are a function of the
// configuration and seed only — never of the thread count. These tests run
// the same scenario with STARCDN_THREADS-equivalent overrides of 1 and 8
// and require bitwise-identical outputs.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/simulator.h"
#include "sched/scheduler.h"
#include "trace/workload.h"
#include "util/geo.h"
#include "util/parallel.h"

namespace starcdn {
namespace {

struct ThreadOverrideGuard {
  explicit ThreadOverrideGuard(int n) { util::set_parallel_threads(n); }
  ~ThreadOverrideGuard() { util::set_parallel_threads(0); }
};

TEST(Determinism, LinkScheduleIdenticalAcrossThreadCounts) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  const double horizon_s = 30 * util::kMinute.value();

  auto build = [&](int threads) {
    ThreadOverrideGuard guard(threads);
    return sched::LinkSchedule(shell, util::paper_cities(), util::Seconds{horizon_s});
  };
  const sched::LinkSchedule serial = build(1);
  const sched::LinkSchedule parallel = build(8);

  ASSERT_EQ(serial.epochs(), parallel.epochs());
  for (std::size_t e = 0; e < serial.epochs(); ++e) {
    for (std::size_t c = 0; c < util::paper_cities().size(); ++c) {
      const auto& a =
          serial.candidates(util::EpochIdx{e},
                            util::CityId{static_cast<std::uint32_t>(c)});
      const auto& b =
          parallel.candidates(util::EpochIdx{e},
                              util::CityId{static_cast<std::uint32_t>(c)});
      ASSERT_EQ(a.size(), b.size()) << "epoch " << e << " city " << c;
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].sat, b[i].sat)
            << "epoch " << e << " city " << c << " rank " << i;
        // Bitwise, not approximate: identical code on identical inputs.
        ASSERT_EQ(a[i].gsl_one_way_ms, b[i].gsl_one_way_ms)
            << "epoch " << e << " city " << c << " rank " << i;
      }
    }
  }
  EXPECT_DOUBLE_EQ(serial.mean_candidates(), parallel.mean_candidates());
}

void expect_identical(const core::VariantMetrics& a,
                      const core::VariantMetrics& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.local_hits, b.local_hits);
  EXPECT_EQ(a.routed_hits, b.routed_hits);
  EXPECT_EQ(a.relay_west_hits, b.relay_west_hits);
  EXPECT_EQ(a.relay_east_hits, b.relay_east_hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.unreachable, b.unreachable);
  EXPECT_EQ(a.transient_misses, b.transient_misses);
  EXPECT_EQ(a.bytes_requested, b.bytes_requested);
  EXPECT_EQ(a.bytes_hit, b.bytes_hit);
  EXPECT_EQ(a.uplink_bytes, b.uplink_bytes);
  EXPECT_EQ(a.isl_bytes, b.isl_bytes);
  EXPECT_EQ(a.prefetch_bytes, b.prefetch_bytes);
  EXPECT_EQ(a.relay.west_only_requests, b.relay.west_only_requests);
  EXPECT_EQ(a.relay.east_only_requests, b.relay.east_only_requests);
  EXPECT_EQ(a.relay.both_requests, b.relay.both_requests);
  ASSERT_EQ(a.latency_ms.count(), b.latency_ms.count());
  // Latency samples come from each variant's private RNG stream; they must
  // not shift when other variants run on other threads.
  EXPECT_EQ(a.latency_ms.median(), b.latency_ms.median());
  EXPECT_EQ(a.latency_ms.quantile(0.99), b.latency_ms.quantile(0.99));
  ASSERT_EQ(a.sat_requests.size(), b.sat_requests.size());
  for (std::size_t i = 0; i < a.sat_requests.size(); ++i) {
    ASSERT_EQ(a.sat_requests[i], b.sat_requests[i]) << "satellite " << i;
    ASSERT_EQ(a.sat_hits[i], b.sat_hits[i]) << "satellite " << i;
  }
}

TEST(Determinism, SimulatorIdenticalAcrossThreadCounts) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  auto p = trace::default_params(trace::TrafficClass::kVideo);
  p.object_count = 10'000;
  p.requests_per_weight = 4'000;
  p.duration_s = util::kHour.value();
  const trace::WorkloadModel workload(util::paper_cities(), p);
  const auto requests = trace::merge_by_time(workload.generate());
  const sched::LinkSchedule schedule(shell, util::paper_cities(), util::Seconds{p.duration_s});

  const std::vector<core::Variant> variants = {
      core::Variant::kStatic, core::Variant::kStarCdn,
      core::Variant::kHashOnly, core::Variant::kRelayOnly,
      core::Variant::kVanillaLru, core::Variant::kPrefetch};

  auto simulate = [&](int threads) {
    ThreadOverrideGuard guard(threads);
    core::SimConfig cfg;
    cfg.cache_capacity = util::mib(256);
    cfg.buckets = 4;
    cfg.track_per_satellite = true;
    cfg.transient_down_prob = 0.02;  // exercise the per-variant outage model
    core::Simulator sim(shell, schedule, cfg);
    for (const auto v : variants) sim.add_variant(v);
    trace::VectorStream stream(requests, requests.size());
    sim.run(stream);
    return sim.finish();
  };

  const core::RunReport serial = simulate(1);
  const core::RunReport parallel = simulate(8);
  for (const auto v : variants) {
    SCOPED_TRACE(core::to_string(v));
    expect_identical(serial.variant(v).metrics, parallel.variant(v).metrics);
  }
}

TEST(Determinism, StreamedChunksMatchWholeRunInParallel) {
  // Streaming a trace in chunks under the parallel engine must agree with
  // one whole-trace run: per-variant request counters keep the user
  // rotation aligned across run() calls.
  ThreadOverrideGuard guard(8);
  const orbit::Constellation shell{orbit::WalkerParams{}};
  auto p = trace::default_params(trace::TrafficClass::kVideo);
  p.object_count = 5'000;
  p.requests_per_weight = 2'000;
  p.duration_s = util::kHour.value();
  const trace::WorkloadModel workload(util::paper_cities(), p);
  const auto requests = trace::merge_by_time(workload.generate());
  const sched::LinkSchedule schedule(shell, util::paper_cities(), util::Seconds{p.duration_s});

  core::SimConfig cfg;
  cfg.cache_capacity = util::mib(128);
  core::Simulator whole(shell, schedule, cfg);
  whole.add_variant(core::Variant::kStarCdn);
  trace::VectorStream whole_stream(requests, requests.size());
  whole.run(whole_stream);
  const core::RunReport whole_report = whole.finish();

  core::Simulator chunked(shell, schedule, cfg);
  chunked.add_variant(core::Variant::kStarCdn);
  const auto third = static_cast<std::ptrdiff_t>(requests.size() / 3);
  const auto at = [&](std::ptrdiff_t k) { return requests.begin() + k; };
  for (const auto& part :
       {std::vector<trace::Request>(at(0), at(third)),
        std::vector<trace::Request>(at(third), at(2 * third)),
        std::vector<trace::Request>(at(2 * third), requests.end())}) {
    trace::VectorStream stream(part);
    chunked.run(stream);
  }
  const core::RunReport chunked_report = chunked.finish();

  const auto& a = whole_report.variant(core::Variant::kStarCdn).metrics;
  const auto& b = chunked_report.variant(core::Variant::kStarCdn).metrics;
  EXPECT_EQ(a.hits(), b.hits());
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.uplink_bytes, b.uplink_bytes);
  EXPECT_EQ(a.isl_bytes, b.isl_bytes);
}

// The replay pipeline's contract (DESIGN.md §6): each variant's cache step
// runs in parallel over cache-disjoint satellite groups and its accounting
// runs in trace order, so every output — counters, latency reservoir,
// epoch series, uplink statistics, per-satellite arrays — is bitwise the
// same for any thread count and chunk size. The shell has 9.7 % of its
// slots out, so remapped owners join the StarCDN groups into a few large
// ones; every variant, transient outages and prefetch are on.
class PipelineDeterminism : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    shell_ = std::make_unique<orbit::Constellation>(orbit::WalkerParams{});
    util::Rng rng(2025);
    shell_->knock_out_random(0.097, rng);
    auto p = trace::default_params(trace::TrafficClass::kVideo);
    p.object_count = 10'000;
    p.requests_per_weight = 8'000;
    p.duration_s = util::kHour.value();
    const trace::WorkloadModel workload(util::paper_cities(), p);
    requests_ = std::make_unique<std::vector<trace::Request>>(
        trace::merge_by_time(workload.generate()));
    schedule_ = std::make_unique<sched::LinkSchedule>(
        *shell_, util::paper_cities(), util::Seconds{p.duration_s});
  }
  static void TearDownTestSuite() {
    requests_.reset();
    schedule_.reset();
    shell_.reset();
  }

  static core::SimConfig config() {
    return core::SimConfig::Builder{}
        .cache_capacity(util::mib(256))
        .buckets(9)
        .sample_latency(true)
        .record_epoch_series(true)
        .track_per_satellite(true)
        .transient_failures(0.02, util::Seconds{300.0})
        .variants({core::Variant::kStatic, core::Variant::kVanillaLru,
                   core::Variant::kHashOnly, core::Variant::kRelayOnly,
                   core::Variant::kStarCdn, core::Variant::kPrefetch})
        .prefetch_objects_per_epoch(16)
        .build();
  }

  static core::RunReport simulate(int threads, std::size_t chunk) {
    ThreadOverrideGuard guard(threads);
    core::Simulator sim(*shell_, *schedule_, config());
    trace::VectorStream stream(*requests_, chunk);
    sim.run(stream);
    return sim.finish();
  }

  static std::unique_ptr<orbit::Constellation> shell_;
  static std::unique_ptr<sched::LinkSchedule> schedule_;
  static std::unique_ptr<std::vector<trace::Request>> requests_;
};

std::unique_ptr<orbit::Constellation> PipelineDeterminism::shell_;
std::unique_ptr<sched::LinkSchedule> PipelineDeterminism::schedule_;
std::unique_ptr<std::vector<trace::Request>> PipelineDeterminism::requests_;

/// Bitwise equality of two reports, every field a caller can read.
void expect_same_report(const core::RunReport& a, const core::RunReport& b) {
  ASSERT_EQ(a.variants.size(), b.variants.size());
  EXPECT_EQ(a.totals, b.totals);
  for (std::size_t v = 0; v < a.variants.size(); ++v) {
    const core::VariantReport& va = a.variants[v];
    const core::VariantReport& vb = b.variants[v];
    SCOPED_TRACE(va.name);
    EXPECT_EQ(va.variant, vb.variant);
    EXPECT_EQ(va.counters, vb.counters);
    EXPECT_EQ(va.series.columns, vb.series.columns);
    EXPECT_EQ(va.series.epochs, vb.series.epochs);
    EXPECT_EQ(va.series.values, vb.series.values);
    const core::VariantMetrics& ma = va.metrics;
    const core::VariantMetrics& mb = vb.metrics;
    EXPECT_EQ(ma.latency_ms.count(), mb.latency_ms.count());
    EXPECT_EQ(ma.latency_ms.samples(), mb.latency_ms.samples());
    if (!ma.latency_ms.empty()) {
      // On copies: a quantile query sorts the reservoir in place.
      const util::QuantileSampler qa = ma.latency_ms;
      const util::QuantileSampler qb = mb.latency_ms;
      for (const double q : {0.05, 0.5, 0.95, 0.99}) {
        EXPECT_EQ(qa.quantile(q), qb.quantile(q)) << q;
      }
    }
    const util::RunningStats& ua = ma.uplink_meter.throughput_gbps();
    const util::RunningStats& ub = mb.uplink_meter.throughput_gbps();
    EXPECT_EQ(ua.count(), ub.count());
    EXPECT_EQ(ua.mean(), ub.mean());
    EXPECT_EQ(ua.variance(), ub.variance());
    EXPECT_EQ(ua.max(), ub.max());
    EXPECT_EQ(ma.uplink_meter.overloaded_cells(),
              mb.uplink_meter.overloaded_cells());
    EXPECT_EQ(ma.uplink_meter.total_bytes(), mb.uplink_meter.total_bytes());
    EXPECT_EQ(ma.sat_requests, mb.sat_requests);
    EXPECT_EQ(ma.sat_hits, mb.sat_hits);
    EXPECT_EQ(ma.sat_bytes_requested, mb.sat_bytes_requested);
    EXPECT_EQ(ma.sat_bytes_hit, mb.sat_bytes_hit);
  }
}

TEST_F(PipelineDeterminism, EveryMetricIdenticalAcrossThreadsAndChunks) {
  // More than one 65,536-request chunk, so the pipeline runs a cache step
  // next to an accounting pass at both chunk sizes.
  ASSERT_GT(requests_->size(), 65'536u);
  const core::RunReport reference = simulate(1, 65'536);
  const core::VariantMetrics& star =
      reference.variant(core::Variant::kStarCdn).metrics;
  // The paths under test all run: relay hits, outages, prefetch, uplink.
  EXPECT_GT(star.relay_west_hits + star.relay_east_hits, 0u);
  EXPECT_GT(star.transient_misses, 0u);
  EXPECT_GT(reference.variant(core::Variant::kPrefetch).metrics.prefetch_bytes,
            0u);
  EXPECT_GT(star.uplink_meter.throughput_gbps().count(), 0u);
  for (const std::size_t chunk : {std::size_t{1'000}, std::size_t{65'536}}) {
    for (const int threads : {1, 2, 3, 4, 7}) {
      if (threads == 1 && chunk == 65'536) continue;  // the reference
      SCOPED_TRACE(testing::Message()
                   << threads << " threads, chunk " << chunk);
      expect_same_report(reference, simulate(threads, chunk));
    }
  }
}

// A bad timestamp in chunk k+1 stops the run after chunk k, as a run of the
// first k+1 chunks alone would: the producer's error waits until the
// accounting of the chunk whose cache step ran beside it is drained.
TEST_F(PipelineDeterminism, FailedChunkStopsAfterTheLastWholeChunk) {
  constexpr std::size_t kChunk = 1'000;
  for (const std::size_t k : {std::size_t{0}, std::size_t{4}}) {
    std::vector<trace::Request> bad(*requests_);
    bad[(k + 1) * kChunk + 17].timestamp_s = -1.0;
    const std::vector<trace::Request> whole(
        requests_->begin(),
        requests_->begin() + static_cast<std::ptrdiff_t>((k + 1) * kChunk));
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "k " << k << ", " << threads
                                      << " threads");
      ThreadOverrideGuard guard(threads);
      core::Simulator failed(*shell_, *schedule_, config());
      trace::VectorStream bad_stream(bad, kChunk);
      EXPECT_THROW(failed.run(bad_stream), std::invalid_argument);
      // An empty run() folds the uplink meter, as the end of a run does.
      const std::vector<trace::Request> nothing;
      trace::VectorStream none(nothing);
      failed.run(none);

      core::Simulator clean(*shell_, *schedule_, config());
      trace::VectorStream clean_stream(whole, kChunk);
      clean.run(clean_stream);
      expect_same_report(clean.finish(), failed.finish());
    }
  }
}

TEST(Determinism, KnockOutClampTerminates) {
  // Satellite-task regression: over-asking must clamp, not spin forever.
  orbit::Constellation shell{orbit::WalkerParams{}};
  util::Rng rng(3);
  shell.knock_out_random(0.9, rng);
  shell.knock_out_random(0.9, rng);  // second call exceeds remaining actives
  EXPECT_EQ(shell.active_count(), 0);

  orbit::Constellation small{orbit::WalkerParams{}};
  util::Rng rng2(4);
  small.knock_out_random(2.0, rng2);  // fraction > 1 clamps to everything
  EXPECT_EQ(small.active_count(), 0);
}

}  // namespace
}  // namespace starcdn
