// Trace-replay benchmark for the StarCDN simulator.
//
//   starcdn_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 (end to end, tracing off): builds the workload's set-up
// several times and reports the median as setup_s, makes one untimed
// warm-up replay, then replays the workload's kContents trace contents in
// turn until S seconds have passed (each at least once) and reports the
// median replay. --trace 1 (per layer): one set-up, pairs of untraced and
// traced replays of the first content until S seconds have passed, a
// replay through an undecorated stream, a Simulator/cluster cross-check
// and the layer pass; prints the per-layer metrics.
//
// Every replay is checked (see workloads.cpp); the last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "layer_pass.h"
#include "obs/tracer.h"
#include "spans.h"
#include "trace/stream.h"
#include "util/mem.h"
#include "util/parallel.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace starcdn;

constexpr int kSetups = 5;
/// No new replay starts once this much of a run has passed, so a run ends
/// well inside three minutes even on a slow machine.
constexpr double kHardStopSeconds = 120.0;
/// Requests of the workload's trace replayed through both the cluster and
/// the Simulator for replay.* and replay.divergence_hits on the workloads
/// that do not run the cluster themselves.
constexpr std::size_t kCrossCheckRequests = 8192;
constexpr std::size_t kCrossCheckChunk = 512;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics in print order; `json` marks the ones in the result line.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           bool json = true) {
    items_.push_back({{name, value, unit}, json});
  }
  void print_table() const {
    for (const auto& [m, json] : items_) {
      std::printf("  %-34s %16.6g %-7s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), json ? "" : "  (report only)");
    }
  }
  /// False when a reported value is NaN or infinite (a metric with no
  /// samples); such a run is not a correct result.
  [[nodiscard]] bool finite() const {
    for (const auto& [m, json] : items_) {
      if (json && !std::isfinite(m.value)) return false;
    }
    return true;
  }
  void print_json(bool correct, std::uint64_t attempted,
                  std::uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    bool first = true;
    for (const auto& [m, json] : items_) {
      if (!json) continue;
      const double v = std::isfinite(m.value) ? m.value : 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
      first = false;
    }
    std::printf("}}\n");
  }

 private:
  std::vector<std::pair<Metric, bool>> items_;
};

/// Linear-interpolated quantile (0 <= q <= 1); NaN on no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  return static_cast<double>(util::peak_rss_bytes()) / (1024.0 * 1024.0);
}

/// Attempted/failed request accounting of one benchmark run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::size_t, std::uint64_t> digest;  ///< by trace content

  /// Counts a replay of trace content `content`; it fails when it failed
  /// its checks or its digest differs from the first replay of the content.
  void take(const Iteration& it, std::size_t content, const char* label) {
    attempted += it.requests;
    bool ok = it.errors.empty();
    for (const std::string& e : it.errors) {
      std::printf("CHECK FAILED (%s): %s\n", label, e.c_str());
    }
    const auto [first, inserted] = digest.emplace(content, it.digest);
    if (!inserted && first->second != it.digest) {
      std::printf("CHECK FAILED (%s): digest %016llx != %016llx\n", label,
                  static_cast<unsigned long long>(it.digest),
                  static_cast<unsigned long long>(first->second));
      ok = false;
    }
    if (!ok) failed += it.requests;
  }
};

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics

void run_end_to_end(const WorkloadSpec& spec, const Options& o, Metrics& out,
                    Tally& tally) {
  std::vector<double> setup_s;
  Setup setup;
  for (int k = 0; k < kSetups; ++k) {
    setup = Setup{};  // release the previous build before the next one
    setup = build_setup(spec, o.seed);
    setup_s.push_back(setup.seconds());
    std::printf("set-up %d: %.4f s (model %.4f, orbit %.6f, schedule %.4f)\n",
                k + 1, setup.seconds(), setup.model_s, setup.orbit_s,
                setup.sched_s);
  }

  // Warm-up: one untimed replay of the first trace, so that page faults
  // and allocator growth of a cold process are not in the medians. It is
  // checked like every other replay. Peak RSS is read after it, before
  // the other trace contents are built: they exist only to steady the
  // timings, and later replays add only allocator fragmentation.
  {
    const Iteration it = run_iteration(spec, setup, 0, true);
    tally.take(it, 0, "warm-up");
    std::printf("warm-up (trace 0): %.4f s, %llu requests\n", it.replay_s,
                static_cast<unsigned long long>(it.requests));
  }
  const double rss_mb = peak_rss_mb();
  add_contents(setup, spec, o.seed);

  std::vector<double> replay_s, rate;
  // Chunk-interval percentiles are taken per replay and then the median
  // over replays, so a burst of contention that slows one replay does not
  // move the tail of the whole run.
  std::vector<double> chunk_p50, chunk_p90;
  std::size_t chunk_samples = 0;
  // Every trace once, then on in turn until --seconds have passed.
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;
       i < kContents || (seconds_since(start) < o.seconds &&
                         seconds_since(start) < kHardStopSeconds);
       ++i) {
    const std::size_t c = i % kContents;
    const Iteration it = run_iteration(spec, setup, c, true);
    tally.take(it, c, "replay");
    std::printf("replay %zu (trace %zu): %.4f s, %llu requests, %llu "
                "chunks\n",
                i + 1, c, it.replay_s,
                static_cast<unsigned long long>(it.requests),
                static_cast<unsigned long long>(it.chunks));
    replay_s.push_back(it.replay_s);
    rate.push_back(static_cast<double>(it.requests) / it.replay_s / 1e6);
    chunk_p50.push_back(quantile(it.chunk_ms, 0.5));
    chunk_p90.push_back(quantile(it.chunk_ms, 0.9));
    chunk_samples = std::min(chunk_samples == 0 ? it.chunk_ms.size()
                                                : chunk_samples,
                             it.chunk_ms.size());
  }

  std::printf("replays: %zu, chunk intervals per replay: >= %zu, "
              "set-ups: %d\n",
              replay_s.size(), chunk_samples, kSetups);
  out.add("setup_s", median(setup_s), "s");
  out.add("replay_s", median(replay_s), "s");
  out.add("mreq_per_s", median(rate), "Mreq/s");
  out.add("chunk_ms_p50", median(chunk_p50), "ms");
  out.add("chunk_ms_p90", median(chunk_p90), "ms");
  out.add("peak_rss_mb", rss_mb, "MB");
  out.add("failed_frac",
          tally.attempted != 0 ? static_cast<double>(tally.failed) /
                                     static_cast<double>(tally.attempted)
                               : 1.0,
          "ratio", false);
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics

/// Metrics of one traced replay, merged across replays by median.
using Sample = std::map<std::string, double>;

struct TracedReplay {
  Iteration it;
  std::vector<Span> spans;
};

TracedReplay traced(const std::function<Iteration()>& body) {
  obs::Tracer tracer;
  obs::set_tracer(&tracer);
  TracedReplay r;
  try {
    r.it = body();
  } catch (...) {
    obs::set_tracer(nullptr);
    throw;
  }
  obs::set_tracer(nullptr);
  r.spans = harvest(tracer);
  return r;
}

/// core.* from the spans and reports of a set of Simulator runs.
void core_sample(const std::vector<SimRecord>& sims,
                 const std::vector<Span>& spans, Sample& s,
                 std::map<std::string, double>& per_variant_s) {
  double run_s = 0, finish_s = 0, stage1_s = 0, wait_s = 0, variants_s = 0;
  std::uint64_t requests = 0, hits = 0, relay = 0, misses = 0, unreachable = 0,
                handovers = 0, uplink = 0, isl = 0;
  for (const SimRecord& rec : sims) {
    const Window w{rec.begin_us, rec.end_us};
    run_s += span_seconds(spans, "Simulator::run", w);
    finish_s += span_seconds(spans, "Simulator::finish", w);
    stage1_s += span_seconds(spans, "stage1_context", w);
    wait_s += producer_wait_seconds(spans, w, rec.pulls);
    for (const core::VariantReport& vr : rec.report.variants) {
      const double t = span_seconds(spans, vr.name, w);
      per_variant_s[vr.name] += t;
      variants_s += t;
      if (vr.variant != core::Variant::kStarCdn) continue;
      const core::VariantMetrics& m = vr.metrics;
      requests += m.requests;
      hits += m.hits();
      relay += m.relay_west_hits + m.relay_east_hits;
      misses += m.misses;
      unreachable += m.unreachable;
      handovers += m.handovers;
      uplink += m.uplink_bytes;
      isl += m.isl_bytes;
      if (m.latency_ms.count() > 0) {
        s["core.latency_ms_p50"] = m.latency_ms.quantile(0.5);
        s["core.latency_ms_p99"] = m.latency_ms.quantile(0.99);
      }
    }
  }
  const double starcdn_s =
      per_variant_s[core::to_string(core::Variant::kStarCdn)];
  s["core.run_s"] = run_s;
  s["core.finish_s"] = finish_s;
  s["core.stage1_s"] = stage1_s;
  s["core.replay_s.StarCDN"] = starcdn_s;
  s["core.replay_ns_per_req.StarCDN"] =
      requests != 0 ? starcdn_s * 1e9 / static_cast<double>(requests) : 0.0;
  s["core.variant_replay_s"] = variants_s;
  s["core.producer_wait_s"] = wait_s;
  s["core.producer_wait_frac"] = run_s > 0.0 ? wait_s / run_s : 0.0;
  s["core.hits.StarCDN"] = static_cast<double>(hits);
  s["core.relay_hits.StarCDN"] = static_cast<double>(relay);
  s["core.misses.StarCDN"] = static_cast<double>(misses);
  s["core.unreachable"] = static_cast<double>(unreachable);
  s["core.handovers"] = static_cast<double>(handovers);
  s["core.uplink_bytes.StarCDN"] = static_cast<double>(uplink);
  s["core.isl_bytes.StarCDN"] = static_cast<double>(isl);
  s["core.hit_ratio.StarCDN"] =
      requests != 0 ? static_cast<double>(hits) / static_cast<double>(requests)
                    : 0.0;
}

void trace_sample(const Iteration& it, Sample& s) {
  s["trace.open_s"] = it.open_s;
  s["trace.next_s"] = it.next_s;
  s["trace.next_ns_per_req"] =
      it.requests != 0 ? it.next_s * 1e9 / static_cast<double>(it.requests)
                       : 0.0;
  s["trace.next_ms_max"] = it.longest_pull_s * 1e3;
  s["trace.requests"] = static_cast<double>(it.requests);
  s["trace.chunks"] = static_cast<double>(it.chunks);
}

void replay_sample(double replay_s, std::uint64_t requests,
                   const replay::ReplayReport& r,
                   const std::vector<Span>& spans, Sample& s) {
  const Window all{0, INT64_MAX};
  s["replay.spawn_s"] = span_seconds(spans, "spawn_cluster", all);
  s["replay.shutdown_s"] = span_seconds(spans, "cluster_shutdown", all);
  s["replay.us_per_req"] =
      requests != 0 ? replay_s * 1e6 / static_cast<double>(requests) : 0.0;
  s["replay.hits"] = static_cast<double>(r.hits);
  s["replay.relay_hits"] = static_cast<double>(r.relay_hits);
  s["replay.uplink_bytes"] = static_cast<double>(r.uplink_bytes);
}

/// The first `n` requests of the workload's trace.
std::vector<trace::Request> trace_prefix(const Setup& setup, std::size_t n) {
  const auto stream = setup.model().generate_stream({kCrossCheckChunk});
  std::vector<trace::Request> out;
  trace::RequestBlock block;
  while (out.size() < n && stream->next(block)) {
    for (std::size_t i = 0; i < block.count() && out.size() < n; ++i) {
      out.push_back(block.at(i));
    }
  }
  return out;
}

/// Output checks of the cross-check replays, counted like a replay.
void cross_errors(const SimRecord& sim,
                  const std::optional<replay::ReplayReport>& cluster,
                  Tally& tally) {
  std::vector<std::string> errors;
  check_sim(sim, std::nullopt, errors);
  if (cluster) check_cluster(*cluster, sim.requests, errors);
  for (const std::string& e : errors) {
    std::printf("CHECK FAILED (cross-check): %s\n", e.c_str());
  }
  tally.attempted += sim.requests;
  if (!errors.empty()) tally.failed += sim.requests;
}

std::uint64_t starcdn_hits(const SimRecord& rec) {
  const core::VariantReport* vr = rec.report.find(core::Variant::kStarCdn);
  return vr != nullptr ? vr->metrics.hits() : 0;
}

void run_per_layer(const WorkloadSpec& spec, const Options& o, Metrics& out,
                   Tally& tally) {
  const Setup setup = build_setup(spec, o.seed);
  const bool cluster = spec.kind == Kind::kClusterInproc;

  // Pairs of untraced and traced replays; per-layer values are medians
  // over the traced ones.
  std::vector<Sample> samples;
  std::vector<double> untraced_s, traced_s;
  std::map<std::string, double> variant_s;
  std::optional<replay::ReplayReport> cluster_report;
  const Clock::time_point start = Clock::now();
  while (samples.empty() || seconds_since(start) < o.seconds) {
    if (seconds_since(start) > kHardStopSeconds / 2) break;
    const Iteration u = run_iteration(spec, setup, 0, true);
    tally.take(u, 0, "untraced");
    untraced_s.push_back(u.replay_s);
    if (u.cluster) cluster_report = u.cluster;

    TracedReplay t =
        traced([&] { return run_iteration(spec, setup, 0, true); });
    tally.take(t.it, 0, "traced");
    traced_s.push_back(t.it.replay_s);
    Sample s;
    trace_sample(t.it, s);
    if (cluster) {
      replay_sample(t.it.replay_s, t.it.requests, *t.it.cluster, t.spans, s);
    } else {
      variant_s.clear();
      core_sample(t.it.sims, t.spans, s, variant_s);
    }
    samples.push_back(std::move(s));
  }

  // Decorator self-test: the same replay through the bare stream must give
  // the same digest as the decorated ones.
  tally.take(run_iteration(spec, setup, 0, false), 0, "undecorated");

  // Cluster vs Simulator on the same requests.
  Sample cross;
  if (cluster) {
    TracedReplay ref = traced([&] {
      Iteration it;
      const auto stream = setup.model().generate_stream({spec.chunk});
      it.sims.push_back(run_starcdn_reference(setup, *stream));
      return it;
    });
    core_sample(ref.it.sims, ref.spans, cross, variant_s);
    cross_errors(ref.it.sims.front(), std::nullopt, tally);
    cross["replay.divergence_hits"] = std::fabs(
        static_cast<double>(cluster_report->hits) -
        static_cast<double>(starcdn_hits(ref.it.sims.front())));
  } else {
    const std::vector<trace::Request> prefix =
        trace_prefix(setup, kCrossCheckRequests);
    double cluster_s = 0.0;
    replay::ReplayReport r;
    TracedReplay t = traced([&] {
      trace::VectorStream stream(prefix, kCrossCheckChunk);
      const Clock::time_point t0 = Clock::now();
      r = replay_cluster_on_one_cpu(setup, stream);
      cluster_s = seconds_since(t0);
      return Iteration{};
    });
    replay_sample(cluster_s, prefix.size(), r, t.spans, cross);
    trace::VectorStream stream(prefix, kCrossCheckChunk);
    const SimRecord ref = run_starcdn_reference(setup, stream);
    cross["replay.divergence_hits"] =
        std::fabs(static_cast<double>(r.hits) -
                  static_cast<double>(starcdn_hits(ref)));
    cross_errors(ref, r, tally);
  }

  const LayerPass lp = run_layer_pass(spec, setup);
  for (const std::string& e : lp.errors) {
    std::printf("CHECK FAILED (layer pass): %s\n", e.c_str());
  }
  tally.attempted += lp.requests;
  if (!lp.errors.empty()) tally.failed += lp.requests;

  const auto med = [&](const std::string& key) {
    if (const auto c = cross.find(key); c != cross.end()) return c->second;
    std::vector<double> v;
    for (const Sample& s : samples) v.push_back(s.at(key));
    return median(v);
  };

  std::printf("traced replays: %zu; layer pass over %llu requests\n",
              samples.size(), static_cast<unsigned long long>(lp.requests));
  out.add("trace.model_build_s", setup.model_s, "s");
  out.add("trace.open_s", med("trace.open_s"), "s");
  out.add("trace.next_s", med("trace.next_s"), "s");
  out.add("trace.next_ns_per_req", med("trace.next_ns_per_req"), "ns");
  out.add("trace.next_ms_max", med("trace.next_ms_max"), "ms");
  out.add("trace.requests", med("trace.requests"), "count");
  out.add("trace.chunks", med("trace.chunks"), "count");
  out.add("orbit.build_s", setup.orbit_s, "s");
  out.add("orbit.active_slots", setup.shell->active_count(), "count");
  out.add("sched.build_s", setup.sched_s, "s");
  out.add("sched.cells",
          static_cast<double>(setup.schedule->epochs() *
                              setup.model().cities().size()),
          "count");
  out.add("sched.mean_candidates", setup.schedule->mean_candidates(), "count");
  out.add("sched.first_contact_ns", lp.first_contact_ns, "ns");
  for (const char* key :
       {"core.run_s", "core.finish_s", "core.stage1_s", "core.replay_s.StarCDN",
        "core.variant_replay_s"}) {
    out.add(key, med(key), "s");
  }
  // The wait reads exactly 0 when the producer always keeps up (as on
  // capacity_sweep), so the result line carries it as a share of
  // Simulator::run rather than as a time.
  out.add("core.producer_wait_s", med("core.producer_wait_s"), "s", false);
  out.add("core.producer_wait_frac", med("core.producer_wait_frac"), "ratio");
  out.add("core.replay_ns_per_req.StarCDN",
          med("core.replay_ns_per_req.StarCDN"), "ns");
  for (const auto& [name, s] : variant_s) {
    if (name == core::to_string(core::Variant::kStarCdn)) continue;
    out.add("core.replay_s." + name, s, "s", false);
  }
  out.add("core.bucket_map_ns", lp.bucket_map_ns, "ns");
  out.add("core.relay_lookup_ns", lp.relay_lookup_ns, "ns");
  for (const char* key :
       {"core.hits.StarCDN", "core.relay_hits.StarCDN", "core.misses.StarCDN",
        "core.unreachable", "core.handovers"}) {
    out.add(key, med(key), "count");
  }
  out.add("core.uplink_bytes.StarCDN", med("core.uplink_bytes.StarCDN"),
          "bytes");
  out.add("core.isl_bytes.StarCDN", med("core.isl_bytes.StarCDN"), "bytes");
  out.add("core.hit_ratio.StarCDN", med("core.hit_ratio.StarCDN"), "ratio");
  // Modelled latency exists only where sampling is on (not on
  // capacity_sweep); it is part of the digest, not a performance number.
  const Sample& latency = cluster ? cross : samples.front();
  for (const char* key : {"core.latency_ms_p50", "core.latency_ms_p99"}) {
    if (latency.count(key) != 0) out.add(key, latency.at(key), "ms", false);
  }
  out.add("cache.access_ns", lp.cache_access_ns, "ns");
  out.add("cache.peek_ns", lp.cache_peek_ns, "ns");
  out.add("cache.hit_ratio", lp.cache_hit_ratio, "ratio");
  out.add("cache.evictions", static_cast<double>(lp.cache_evictions), "count");
  out.add("cache.replica_found", static_cast<double>(lp.replica_found),
          "count", false);
  out.add("net.codec_ns", lp.codec_ns, "ns");
  out.add("net.rpc_us", lp.rpc_us, "us");
  out.add("replay.spawn_s", med("replay.spawn_s"), "s");
  out.add("replay.shutdown_s", med("replay.shutdown_s"), "s");
  out.add("replay.us_per_req", med("replay.us_per_req"), "us");
  out.add("replay.hits", med("replay.hits"), "count");
  out.add("replay.relay_hits", med("replay.relay_hits"), "count");
  out.add("replay.uplink_bytes", med("replay.uplink_bytes"), "bytes");
  out.add("replay.divergence_hits", med("replay.divergence_hits"), "count");
  const double base = median(untraced_s);
  out.add("obs.trace_overhead_frac", (median(traced_s) - base) / base,
          "ratio");
}

// ---------------------------------------------------------------------------

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "starcdn_perfbench: %s\n"
               "usage: starcdn_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\n"
               "workloads:",
               why);
  for (const WorkloadSpec& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace") {
      o.trace = std::strtol(v.c_str(), &end, 10) != 0;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (find_workload(o.workload) == nullptr) usage("unknown workload");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = parse(argc, argv);
  const WorkloadSpec& spec = *find_workload(o.workload);
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  // One CPU is left to the rest of the machine: with every CPU busy, a
  // chunk waits whenever any other process runs, and the chunk-interval
  // tail measured the machine's load more than the replay.
  const int threads = std::clamp(nproc - 1, 1, 3);
  starcdn::util::set_parallel_threads(threads);

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d "
              "threads=%d nproc=%d cluster_cpus=1 build=%s\n",
              spec.name, static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0, threads, nproc, PERFBENCH_BUILD_TYPE);

  Metrics metrics;
  Tally tally;
  bool threw = false;
  try {
    if (o.trace) {
      run_per_layer(spec, o, metrics, tally);
    } else {
      run_end_to_end(spec, o, metrics, tally);
    }
  } catch (const std::exception& e) {
    std::printf("CHECK FAILED: run threw: %s\n", e.what());
    threw = true;
  }
  if (threw) {
    // The whole run counts as failed.
    tally.attempted = std::max<std::uint64_t>(tally.attempted, 1);
    tally.failed = tally.attempted;
  } else {
    for (const auto& [content, digest] : tally.digest) {
      std::printf("digest of trace %zu: %016llx\n", content,
                  static_cast<unsigned long long>(digest));
    }
    metrics.print_table();
  }
  metrics.print_json(tally.failed == 0 && !threw && metrics.finite(),
                     tally.attempted, tally.failed);
  return 0;
}
