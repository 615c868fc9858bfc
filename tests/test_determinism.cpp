// The parallel engine's contract: simulation results are a function of the
// configuration and seed only — never of the thread count. These tests run
// the same scenario with STARCDN_THREADS-equivalent overrides of 1 and 8
// and require bitwise-identical outputs.
#include <gtest/gtest.h>

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
