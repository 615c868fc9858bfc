// Paper-scale streaming gate: generate and replay a >=100M-request video
// trace through the simulator WITHOUT ever materializing it, and assert
// the process stays under a fixed RSS budget (--rss-budget-mb; CI wires
// this to the smoke job). With the legacy materialized path this workload
// needs ~32 bytes/request of trace memory (~3.2 GB at 100M) before the
// simulator even starts; the streamed path holds one SoA chunk plus the
// generator's current fill (the whole minutes one chunk needs) regardless
// of --scale.
//
//   $ bench_stream_scale --scale=61 --chunk=65536 --rss-budget-mb=1500
//
// Defaults to a small scale so the binary is cheap to run by hand; the CI
// smoke job passes the paper-scale flags explicitly.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace starcdn;
  bench::Harness harness(argc, argv,
                         "paper-scale streamed replay (bounded RSS)",
                         "Section 4.2 (SpaceGEN at production scale)");
  harness.default_scale(1.0);

  bench::VideoScenario& scenario = harness.scenario();
  if (scenario.stream_chunk == 0) {
    // Materialized baseline mode: same workload through the legacy
    // whole-trace path, for the EXPERIMENTS.md before/after RSS table.
    // The CI gate always passes --chunk; a misconfigured gate still fails
    // because the materialized path blows the --rss-budget-mb ceiling.
    std::printf("materialized baseline mode (--chunk=0): trace held fully "
                "in memory\n");
  }

  core::SimConfig cfg = harness.sim_config();
  cfg.cache_capacity = util::gib(8);
  cfg.buckets = 9;
  cfg.sample_latency = false;
  core::Simulator sim(*scenario.shell, *scenario.schedule, cfg);
  sim.add_variant(core::Variant::kStarCdn);

  bench::WallTimer timer;
  scenario.replay_into(sim);
  const double wall = timer.seconds();

  const core::RunReport report = sim.finish();
  const auto& m = report.variant(core::Variant::kStarCdn).metrics;
  const auto total = scenario.workload->total_request_count();
  std::printf(
      "streamed %llu requests in %.1f s (%.2f Mreq/s): request hit rate "
      "%.2f%%, byte hit rate %.2f%%\n",
      static_cast<unsigned long long>(total), wall,
      static_cast<double>(total) / wall / 1e6, 100.0 * m.request_hit_rate(),
      100.0 * m.byte_hit_rate());
  return 0;
}
