// Microbenchmarks (google-benchmark): throughput of the hot paths — cache
// operations, bucket hashing, orbital propagation, visibility, codec, and
// the SpaceGEN byte stack — plus a serial-vs-parallel speedup report for
// the deterministic parallel engine (printed before the gbench table).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>

#include "cache/cache.h"
#include "core/bucket_mapper.h"
#include "core/run_report.h"
#include "core/simulator.h"
#include "net/codec.h"
#include "obs/registry.h"
#include "obs/series.h"
#include "obs/tracer.h"
#include "orbit/constellation.h"
#include "orbit/visibility.h"
#include "sched/scheduler.h"
#include "trace/bytestack.h"
#include "trace/workload.h"
#include "trace/zipf.h"
#include "util/geo.h"
#include "util/hash.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/units.h"

namespace {

using namespace starcdn;

void BM_CacheAccess(benchmark::State& state) {
  const auto policy = static_cast<cache::Policy>(state.range(0));
  const auto cache = cache::make_cache(policy, util::mib(64));
  util::Rng rng(1);
  std::vector<cache::ObjectId> ids(1 << 16);
  for (auto& id : ids) id = rng.below(20'000);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache->access(ids[i++ & (ids.size() - 1)], 4096));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(cache::to_string(policy));
}
BENCHMARK(BM_CacheAccess)->DenseRange(0, 5)->Unit(benchmark::kNanosecond);

void BM_CacheEvictChurn(benchmark::State& state) {
  // Eviction-heavy path: a flood of one-hit-wonder ids (random draws from a
  // universe 1000x the cache) through a small cache, so nearly every access
  // admits a new object and evicts a resident one. Exercises the slab free
  // list and the index's backward-shift deletion.
  const auto policy = static_cast<cache::Policy>(state.range(0));
  const auto cache = cache::make_cache(
      policy, util::mib(4), cache::presize_hint(util::mib(4), 4096));
  util::Rng rng(3);
  std::vector<cache::ObjectId> ids(1 << 16);
  for (auto& id : ids) id = rng.below(1'048'576);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache->access(ids[i++ & (ids.size() - 1)], 4096));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(cache::to_string(policy));
}
BENCHMARK(BM_CacheEvictChurn)->DenseRange(0, 5)->Unit(benchmark::kNanosecond);

void BM_CachePeekProbe(benchmark::State& state) {
  // The relayed-fetch pattern: side-effect-free neighbour probes, ~75%
  // absent — the index's negative-lookup fast path.
  const auto policy = static_cast<cache::Policy>(state.range(0));
  const auto cache = cache::make_cache(policy, util::mib(64));
  for (cache::ObjectId id = 0; id < 16'384; ++id) cache->admit(id, 4096);
  util::Rng rng(2);
  std::vector<cache::ObjectId> ids(1 << 16);
  for (auto& id : ids) id = rng.below(65'536);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache->peek(ids[i++ & (ids.size() - 1)]));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(cache::to_string(policy));
}
BENCHMARK(BM_CachePeekProbe)->DenseRange(0, 5)->Unit(benchmark::kNanosecond);

void BM_BucketMapping(benchmark::State& state) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  const core::BucketMapper mapper(shell, static_cast<int>(state.range(0)));
  std::uint64_t id = 0;
  for (auto _ : state) {
    const util::BucketId b = mapper.bucket_of_object(++id);
    benchmark::DoNotOptimize(
        mapper.owner({static_cast<int>(id % 72), static_cast<int>(id % 18)}, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BucketMapping)->Arg(4)->Arg(9)->Arg(25);

// The replay's form of the same lookup: SatId in, SatId out, one load.
void BM_BucketMappingTable(benchmark::State& state) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  const core::BucketMapper mapper(shell, static_cast<int>(state.range(0)));
  std::uint64_t id = 0;
  for (auto _ : state) {
    const util::BucketId b = mapper.bucket_of_object(++id);
    benchmark::DoNotOptimize(
        mapper.owner_of(util::SatId{static_cast<int>(id % 1296)}, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BucketMappingTable)->Arg(4)->Arg(9)->Arg(25);

// Construction cost of the mapping tables on the paper's shell with 9.7%
// of slots out: the work moved out of replay into the Simulator
// constructor.
void BM_BucketMapperBuild(benchmark::State& state) {
  orbit::Constellation shell{orbit::WalkerParams{}};
  util::Rng rng(2025);
  shell.knock_out_random(0.097, rng);
  for (auto _ : state) {
    const core::BucketMapper mapper(shell, static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(&mapper);
  }
}
BENCHMARK(BM_BucketMapperBuild)
    ->Arg(4)
    ->Arg(9)
    ->Arg(25)
    ->Unit(benchmark::kMicrosecond);

void BM_Propagation(benchmark::State& state) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  double t = 0.0;
  for (auto _ : state) {
    t += 15.0;
    benchmark::DoNotOptimize(shell.position_ecef({31, 7}, util::Seconds{t}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Propagation);

void BM_VisibilitySweep(benchmark::State& state) {
  // One (epoch, city) scan as LinkSchedule makes it: a precomputed ground
  // point and a reused output buffer.
  const orbit::Constellation shell{orbit::WalkerParams{}};
  const orbit::VisibilityOracle oracle(util::Degrees{25.0});
  const auto positions = shell.all_positions_ecef(util::Seconds{0.0});
  const orbit::Vec3 ny = orbit::geodetic_to_ecef({40.71, -74.01});
  std::vector<orbit::VisibleSat> visible;
  for (auto _ : state) {
    oracle.visible_into(ny, shell, positions, visible);
    benchmark::DoNotOptimize(visible.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * shell.size());
}
BENCHMARK(BM_VisibilitySweep);

void BM_LinkScheduleBuild(benchmark::State& state) {
  // One simulated day (5,760 epochs) of the 72x18 shell for the nine paper
  // cities, at `threads` parallel width. Items are (epoch, city) cells.
  const orbit::Constellation shell{orbit::WalkerParams{}};
  util::set_parallel_threads(static_cast<int>(state.range(0)));
  std::size_t cells = 0;
  for (auto _ : state) {
    const sched::LinkSchedule schedule(shell, util::paper_cities(),
                                       util::kDay);
    cells = schedule.epochs() * util::paper_cities().size();
    benchmark::DoNotOptimize(&schedule);
  }
  util::set_parallel_threads(0);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cells));
}
BENCHMARK(BM_LinkScheduleBuild)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_WorkloadModelBuild(benchmark::State& state) {
  // The video default (300,000 objects, nine cities) at `threads` parallel
  // width: the object universe, then one popularity table per city.
  const auto p = trace::default_params(trace::TrafficClass::kVideo);
  util::set_parallel_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const trace::WorkloadModel model(util::paper_cities(), p);
    benchmark::DoNotOptimize(&model);
  }
  util::set_parallel_threads(0);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.object_count));
}
BENCHMARK(BM_WorkloadModelBuild)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_CodecRoundTrip(benchmark::State& state) {
  net::Message m;
  m.type = net::MessageType::kRequest;
  m.object_id = 42;
  m.payload.assign(static_cast<std::size_t>(state.range(0)), 'x');
  net::FrameDecoder decoder;
  for (auto _ : state) {
    const auto bytes = net::encode(m);
    decoder.feed(bytes);
    benchmark::DoNotOptimize(decoder.next());
  }
  state.SetBytesProcessed(state.iterations() *
                          (static_cast<std::int64_t>(state.range(0)) + 48));
}
BENCHMARK(BM_CodecRoundTrip)->Arg(0)->Arg(1024)->Arg(65536);

void BM_ByteStackAlgorithm1Step(benchmark::State& state) {
  // Algorithm 1's inner loop: pop the top, reinsert at a sampled depth.
  trace::ByteStack stack;
  util::Rng rng(7);
  for (int i = 0; i < state.range(0); ++i) {
    trace::StackItem item;
    item.object = static_cast<trace::ObjectId>(i);
    item.size = 1 + rng.below(1'000'000);
    item.popularity = 1'000'000;  // never retires during the benchmark
    stack.push_back(item);
  }
  const util::Bytes total = stack.total_bytes();
  for (auto _ : state) {
    auto item = stack.pop_front();
    ++item.emitted;
    stack.insert_at_depth(rng.below(total), item);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ByteStackAlgorithm1Step)->Arg(1'000)->Arg(100'000);

void BM_MergeByTime(benchmark::State& state) {
  // Loser-tree k-way merge over the nine per-city traces. Items/s is the
  // merged-request throughput; the tree does one O(log k) replay per item.
  auto p = trace::default_params(trace::TrafficClass::kVideo);
  p.object_count = 20'000;
  p.requests_per_weight = static_cast<std::size_t>(state.range(0));
  p.duration_s = util::kHour.value();
  const trace::WorkloadModel workload(util::paper_cities(), p);
  const auto traces = workload.generate();
  std::uint64_t total = 0;
  for (auto _ : state) {
    const auto merged = trace::merge_by_time(traces);
    total = merged.size();
    benchmark::DoNotOptimize(merged.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(total));
}
BENCHMARK(BM_MergeByTime)->Arg(10'000)->Arg(50'000)->Unit(benchmark::kMillisecond);

void BM_GenerateStream(benchmark::State& state) {
  // End-to-end streamed SpaceGEN generation: chunked SoA blocks pulled
  // from the windowed skip-replay generator, never materializing the
  // trace. Compare items/s against BM_GenerateMaterialized.
  auto p = trace::default_params(trace::TrafficClass::kVideo);
  p.object_count = 20'000;
  p.requests_per_weight = static_cast<std::size_t>(state.range(0));
  p.duration_s = util::kHour.value();
  const trace::WorkloadModel workload(util::paper_cities(), p);
  std::uint64_t total = 0;
  for (auto _ : state) {
    const auto stream = workload.generate_stream();
    trace::RequestBlock block;
    total = 0;
    while (stream->next(block)) {
      total += block.count();
      benchmark::DoNotOptimize(block.timestamp_s.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(total));
}
BENCHMARK(BM_GenerateStream)->Arg(10'000)->Arg(50'000)->Unit(benchmark::kMillisecond);

void BM_GenerateMaterialized(benchmark::State& state) {
  // Baseline for BM_GenerateStream: generate() all city traces, then the
  // loser-tree merge — the legacy materialize-everything path.
  auto p = trace::default_params(trace::TrafficClass::kVideo);
  p.object_count = 20'000;
  p.requests_per_weight = static_cast<std::size_t>(state.range(0));
  p.duration_s = util::kHour.value();
  const trace::WorkloadModel workload(util::paper_cities(), p);
  std::uint64_t total = 0;
  for (auto _ : state) {
    const auto merged = trace::merge_by_time(workload.generate());
    total = merged.size();
    benchmark::DoNotOptimize(merged.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(total));
}
BENCHMARK(BM_GenerateMaterialized)
    ->Arg(10'000)
    ->Arg(50'000)
    ->Unit(benchmark::kMillisecond);

void BM_DiscreteSamplerIndexOf(benchmark::State& state) {
  // One inverse-CDF draw from a city-shaped popularity table: Zipf(1.2)
  // weights in random rank order (object ids are a shuffle of the ranks),
  // so consecutive draws land at unrelated places in the CDF. The 1,440
  // row is the size of a day's diurnal minute table.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::size_t> ranks(n);
  for (std::size_t i = 0; i < n; ++i) ranks[i] = i;
  util::Rng rng(3);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(ranks[i - 1], ranks[rng.below(i)]);
  }
  std::vector<double> weights(n);
  for (std::size_t i = 0; i < n; ++i) {
    weights[i] = std::pow(static_cast<double>(ranks[i] + 1), -1.2);
  }
  const trace::DiscreteSampler sampler(weights);
  std::vector<double> units(1 << 16);
  for (auto& u : units) u = rng.uniform();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sampler.index_of(units[i++ & (units.size() - 1)]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiscreteSamplerIndexOf)->Arg(1'440)->Arg(300'000);

void BM_Splitmix(benchmark::State& state) {
  std::uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(x = util::splitmix64(x + 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Splitmix);

void BM_ParallelForOverhead(benchmark::State& state) {
  // Fork-join cost of an (almost) empty loop at the configured width.
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::uint64_t sink = 0;
    util::parallel_for(
        1024, [&sink](std::size_t i) { benchmark::DoNotOptimize(sink += i); },
        threads);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParallelForOverhead)->Arg(1)->Arg(4);

void BM_ObsShardAdd(benchmark::State& state) {
  // The registry hot path the simulator took on: one handle-indexed array
  // add per counter update. Compare against BM_Splitmix-level costs — the
  // DESIGN.md §11 budget wants this within noise of a raw `+=`.
  obs::Registry registry;
  const core::CoreMetricIds ids = core::register_core_metrics(registry);
  obs::Shard shard(registry);
  for (auto _ : state) {
    shard.add(ids.requests);
    shard.add(ids.bytes_requested, 4096);
    benchmark::DoNotOptimize(shard.value(ids.requests));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsShardAdd);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::Registry registry;
  const obs::HistogramId latency = registry.histogram(
      "latency_ms", "end-to-end request latency",
      {5, 10, 20, 30, 40, 50, 75, 100, 150, 200, 300, 500, 1000}, "ms");
  obs::Shard shard(registry);
  double x = 0.0;
  for (auto _ : state) {
    shard.observe(latency, x);
    x = x < 900.0 ? x + 7.3 : 0.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsSeriesAdvance(benchmark::State& state) {
  // Per-request cost of the epoch-series recorder when the epoch does NOT
  // change — the common case (thousands of requests per 15 s epoch). Must
  // stay a single compare.
  obs::Registry registry;
  const core::CoreMetricIds ids = core::register_core_metrics(registry);
  obs::Shard shard(registry);
  obs::EpochSeries series(&registry, core::core_series_columns(ids));
  series.advance_to(1, shard);
  for (auto _ : state) {
    series.advance_to(1, shard);
    benchmark::DoNotOptimize(&series);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSeriesAdvance);

void BM_ObsTraceSpanNull(benchmark::State& state) {
  // Cost of one obs::TraceSpan with no tracer installed: what every
  // untraced run pays per instrumented phase.
  obs::set_tracer(nullptr);
  for (auto _ : state) {
    const obs::TraceSpan span(obs::tracer(), "bench_micro", "core");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsTraceSpanNull);

double time_s(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Serial-vs-parallel wall-clock comparison for the two parallelized hot
/// paths: LinkSchedule construction (fan-out over epochs) and a 4-variant
/// Simulator::run (fan-out over variants). Both paths are bitwise
/// deterministic for any thread count (see tests/test_determinism.cpp), so
/// the speedup is free accuracy-wise. Numbers are recorded in
/// EXPERIMENTS.md ("parallel engine").
void report_parallel_speedup() {
  const int threads = util::parallel_threads();
  std::printf("\n=== parallel engine speedup (STARCDN_THREADS=%d) ===\n",
              threads);

  const orbit::Constellation shell{orbit::WalkerParams{}};
  const double horizon_s = 2 * util::kHour.value();  // 480 epochs x 1,296 slots

  auto build_schedule = [&](int n) {
    util::set_parallel_threads(n);
    const double s = time_s([&] {
      const sched::LinkSchedule schedule(shell, util::paper_cities(),
                                         util::Seconds{horizon_s});
      benchmark::DoNotOptimize(&schedule);
    });
    util::set_parallel_threads(0);
    return s;
  };
  const double sched_serial = build_schedule(1);
  const double sched_parallel = build_schedule(threads);
  std::printf("LinkSchedule(2h, 9 cities): serial %.3f s, parallel %.3f s, "
              "speedup %.2fx\n",
              sched_serial, sched_parallel, sched_serial / sched_parallel);

  auto p = trace::default_params(trace::TrafficClass::kVideo);
  p.object_count = 50'000;
  p.requests_per_weight = 40'000;
  p.duration_s = horizon_s;
  const trace::WorkloadModel workload(util::paper_cities(), p);
  const auto requests = trace::merge_by_time(workload.generate());
  const sched::LinkSchedule schedule(shell, util::paper_cities(), util::Seconds{horizon_s});

  auto simulate = [&](int n) {
    util::set_parallel_threads(n);
    core::SimConfig cfg;
    cfg.cache_capacity = util::mib(512);
    core::Simulator sim(shell, schedule, cfg);
    for (const auto v :
         {core::Variant::kStarCdn, core::Variant::kHashOnly,
          core::Variant::kRelayOnly, core::Variant::kVanillaLru}) {
      sim.add_variant(v);
    }
    const double s = time_s([&] {
      trace::VectorStream stream(requests);
      sim.run(stream);
    });
    util::set_parallel_threads(0);
    return s;
  };
  const double sim_serial = simulate(1);
  const double sim_parallel = simulate(threads);
  std::printf("Simulator::run(4 variants, %zu requests): serial %.3f s, "
              "parallel %.3f s, speedup %.2fx\n\n",
              requests.size(), sim_serial, sim_parallel,
              sim_serial / sim_parallel);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  report_parallel_speedup();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
