// Shared scaffolding for the paper-reproduction bench binaries.
//
// Every bench regenerates one table or figure of the StarCDN paper: it
// prints the same rows/series the paper reports (plus a CSV dump under
// bench_results/) at a reduced, single-machine scale. EXPERIMENTS.md maps
// each output to the paper's numbers.
#pragma once

#include <charconv>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/run_report.h"
#include "core/simulator.h"
#include "obs/tracer.h"
#include "orbit/constellation.h"
#include "sched/scheduler.h"
#include "trace/workload.h"
#include "util/geo.h"
#include "util/mem.h"
#include "util/parallel.h"
#include "util/table.h"

namespace starcdn::bench {

/// Wall-clock stopwatch for reporting bench phase timings.
class WallTimer {
 public:
  WallTimer() noexcept : start_(Clock::now()) {}
  void reset() noexcept { start_ = Clock::now(); }
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Directory for CSV dumps; created on demand, failures ignored.
inline std::string results_dir() {
  const std::string dir = "bench_results";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

inline void banner(const std::string& what, const std::string& paper_ref) {
  std::cout << "\n################################################\n"
            << "# StarCDN reproduction: " << what << "\n"
            << "# Paper reference: " << paper_ref << "\n"
            << "################################################\n";
}

/// The evaluation scenario shared by the hit-rate/latency benches:
/// the paper's nine cities, the 72x18 Starlink shell, a one-day video
/// trace, and a 15-second link schedule. Heavyweight members are built
/// once and reused across capacity sweeps.
///
/// With `chunk == 0` the whole trace is materialized once into `requests`
/// and each replay streams it through trace::VectorStream, so a capacity
/// sweep generates the trace only once. With `chunk > 0` nothing is
/// materialized: replays pull chunked blocks from
/// `workload->generate_stream()` and trace memory stays O(chunk)
/// regardless of --scale.
struct VideoScenario {
  explicit VideoScenario(util::Seconds duration = util::kDay,
                         double scale = 1.0, std::uint64_t seed = 0,
                         std::size_t chunk = 0)
      : stream_chunk(chunk) {
    params = trace::default_params(trace::TrafficClass::kVideo);
    params.duration_s = duration.value();
    params.requests_per_weight = static_cast<std::size_t>(
        static_cast<double>(params.requests_per_weight) * scale);
    if (seed != 0) params.seed = seed;
    workload = std::make_unique<trace::WorkloadModel>(util::paper_cities(),
                                                      params);
    if (stream_chunk == 0) requests = trace::merge_by_time(workload->generate());
    shell = std::make_unique<orbit::Constellation>(orbit::WalkerParams{});
    schedule = std::make_unique<sched::LinkSchedule>(
        *shell, util::paper_cities(), duration);
    if (stream_chunk == 0) {
      std::printf(
          "scenario: %zu requests / %.1f TB over %zu cities, %zu epochs\n",
          requests.size(), total_bytes() / 1e12, util::paper_cities().size(),
          schedule->epochs());
    } else {
      std::printf(
          "scenario: %llu requests (streamed, chunk=%zu) over %zu cities, "
          "%zu epochs\n",
          static_cast<unsigned long long>(workload->total_request_count()),
          stream_chunk, util::paper_cities().size(), schedule->epochs());
    }
  }

  [[nodiscard]] double total_bytes() const {
    double b = 0.0;
    for (const auto& r : requests) b += static_cast<double>(r.size);
    return b;
  }

  /// Replay the scenario trace into `sim` — from the materialized vector
  /// or the bounded-memory generator, per `stream_chunk`. Results are
  /// bitwise identical either way (asserted by tests/test_stream.cpp).
  void replay_into(core::Simulator& sim) const {
    if (stream_chunk > 0) {
      const auto stream = workload->generate_stream({stream_chunk});
      sim.run(*stream);
    } else {
      trace::VectorStream stream(requests);
      sim.run(stream);
    }
  }

  trace::WorkloadParams params;
  std::size_t stream_chunk = 0;
  std::unique_ptr<trace::WorkloadModel> workload;
  std::vector<trace::Request> requests;
  std::unique_ptr<orbit::Constellation> shell;
  std::unique_ptr<sched::LinkSchedule> schedule;
};

/// Capacity axis used for the hit-rate curves. The paper sweeps 10-100 GB
/// against ~430 GB/day of per-satellite traffic; we sweep the same
/// *pressure ratios* against our reduced per-satellite traffic, so the
/// curves cover the same regime (see EXPERIMENTS.md, "scale mapping").
inline const std::vector<std::pair<std::string, util::Bytes>>&
capacity_axis() {
  static const std::vector<std::pair<std::string, util::Bytes>> axis = {
      {"10", util::gib(1)},  {"20", util::gib(2)},  {"40", util::gib(4)},
      {"60", util::gib(8)},  {"80", util::gib(16)}, {"100", util::gib(32)},
  };
  return axis;
}

/// Uniform CLI + lifecycle shared by every bench binary. Replaces the
/// copy-pasted banner / scenario / results-dir setup each bench used to
/// carry. Flags (all optional; unknown flags abort with usage):
///
///   --threads=N    worker threads (default: STARCDN_THREADS env/cores)
///   --seed=N       workload + simulator seed (default: repo defaults)
///   --out=DIR      CSV output directory (default: bench_results)
///   --epochs=N     truncate the scenario to N scheduler epochs (15 s
///                  each) — the fast path for smoke tests and CI
///   --scale=F      workload request-volume scale factor
///   --trace=FILE   record a chrome://tracing JSON timeline to FILE
///   --series=PFX   write per-variant epoch-series CSVs under
///                  DIR/PFX<tag>_<variant>.csv from simulate() calls
///   --chunk=N      stream the scenario trace in N-request SoA blocks
///                  instead of materializing it (bounded-memory replay)
///   --rss-budget-mb=N  assert peak RSS <= N MB at exit (exit code 3 on
///                  breach); an rss_report.csv lands in --out either way
///
/// The Harness installs the process tracer for --trace; on destruction it
/// writes the JSON and prints the tracer's span profile, so
/// `Harness h(argc, argv, ...)` at the top of main() is the whole
/// integration.
class Harness {
 public:
  struct Options {
    int threads = 0;
    std::uint64_t seed = 0;  // 0 = keep per-component defaults
    std::string out_dir = "bench_results";
    std::size_t epochs = 0;  // 0 = full-day scenario
    double scale = 1.0;
    std::string trace_path;
    std::string series_prefix;
    std::size_t chunk = 0;       // 0 = materialized trace
    double rss_budget_mb = 0.0;  // 0 = report only, no assertion
  };

  Harness(int argc, char** argv, const std::string& what,
          const std::string& paper_ref)
      : what_(what) {
    parse(argc, argv);
    if (opts_.threads > 0) util::set_parallel_threads(opts_.threads);
    if (!opts_.trace_path.empty()) {
      tracer_ = std::make_unique<obs::Tracer>();
      obs::set_tracer(tracer_.get());
    }
    banner(what, paper_ref);
    std::printf("harness: threads=%d seed=%llu out=%s%s\n",
                util::parallel_threads(),
                static_cast<unsigned long long>(opts_.seed),
                opts_.out_dir.c_str(),
                opts_.epochs != 0 ? " (truncated scenario)" : "");
  }

  ~Harness() {
    if (tracer_) {
      obs::set_tracer(nullptr);
      if (tracer_->write_json(opts_.trace_path)) {
        std::printf("trace: %zu events -> %s (open in ui.perfetto.dev)\n",
                    tracer_->events(), opts_.trace_path.c_str());
      }
      tracer_->profile().print(std::cout);
    }
    report_rss();
  }
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  [[nodiscard]] const Options& opts() const noexcept { return opts_; }

  /// Output directory (created on demand; failures ignored).
  [[nodiscard]] const std::string& out_dir() const {
    std::error_code ec;
    std::filesystem::create_directories(opts_.out_dir, ec);
    return opts_.out_dir;
  }
  [[nodiscard]] std::string out_path(const std::string& file) const {
    return out_dir() + "/" + file;
  }

  /// The shared evaluation scenario, built lazily so geometry-only
  /// benches never pay for trace generation. --epochs / --scale / --seed
  /// shape it.
  [[nodiscard]] VideoScenario& scenario() {
    if (!scenario_) {
      const util::Seconds duration =
          opts_.epochs != 0
              ? util::Seconds{15.0 * static_cast<double>(opts_.epochs)}
              : util::kDay;
      scenario_ = std::make_unique<VideoScenario>(duration, opts_.scale,
                                                  opts_.seed, opts_.chunk);
    }
    return *scenario_;
  }

  /// Bench-chosen scenario scale, honored unless --scale was passed.
  /// Call before the first scenario() access.
  Harness& default_scale(double s) {
    if (!scale_set_) opts_.scale = s;
    return *this;
  }

  /// Base SimConfig with the harness seed applied; benches layer their
  /// per-point settings on top (or use SimConfig::Builder directly).
  [[nodiscard]] core::SimConfig sim_config() const {
    core::SimConfig cfg;
    if (opts_.seed != 0) cfg.seed = opts_.seed;
    return cfg;
  }

  /// One-call replay: register `variants`, replay the scenario, finish()
  /// into a RunReport, and honor --series by dumping per-variant epoch
  /// CSVs tagged with `tag`.
  [[nodiscard]] core::RunReport simulate(
      core::SimConfig cfg, std::initializer_list<core::Variant> variants,
      const std::string& tag = "") {
    if (opts_.seed != 0) cfg.seed = opts_.seed;
    VideoScenario& s = scenario();
    core::Simulator sim(*s.shell, *s.schedule, std::move(cfg));
    for (const core::Variant v : variants) sim.add_variant(v);
    s.replay_into(sim);
    core::RunReport report = sim.finish();
    if (!opts_.series_prefix.empty()) {
      const auto paths = report.write_series_csv_files(
          out_dir() + "/" + opts_.series_prefix + tag +
          (tag.empty() ? "" : "_"));
      for (const auto& p : paths) std::printf("series: %s\n", p.c_str());
    }
    return report;
  }

 private:
  /// Numeric flag values are parsed whole: a sign on an integer, trailing
  /// junk, overflow or a negative/non-finite real is a usage error (exit
  /// 2), never a silent wrap to 2^64-1 or a fallback to the default.
  void parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto usage = [&](const char* problem) {
        std::fprintf(stderr,
                     "%s %s\nusage: %s [--threads=N] [--seed=N] "
                     "[--out=DIR] [--epochs=N] [--scale=F] [--trace=FILE] "
                     "[--series=PREFIX] [--chunk=N] [--rss-budget-mb=N]\n",
                     problem, a.c_str(), argv[0]);
        std::exit(2);
      };
      const auto eat = [&](const char* flag, std::string* into) {
        const std::string prefix = std::string(flag) + "=";
        if (a.rfind(prefix, 0) != 0) return false;
        *into = a.substr(prefix.size());
        return true;
      };
      const auto count = [&](const std::string& v) {
        std::uint64_t out = 0;
        const char* end = v.data() + v.size();
        const auto [p, ec] = std::from_chars(v.data(), end, out);
        if (v.empty() || ec != std::errc{} || p != end) usage("bad value");
        return out;
      };
      const auto real = [&](const std::string& v) {
        double out = 0.0;
        const char* end = v.data() + v.size();
        const auto [p, ec] = std::from_chars(v.data(), end, out);
        if (v.empty() || ec != std::errc{} || p != end || !(out >= 0.0) ||
            !std::isfinite(out)) {
          usage("bad value");
        }
        return out;
      };
      std::string v;
      if (eat("--threads", &v)) {
        const std::uint64_t n = count(v);
        if (n > static_cast<std::uint64_t>(INT_MAX)) usage("bad value");
        opts_.threads = static_cast<int>(n);
      } else if (eat("--seed", &v)) {
        opts_.seed = count(v);
      } else if (eat("--out", &v)) {
        opts_.out_dir = v;
      } else if (eat("--epochs", &v)) {
        opts_.epochs = count(v);
      } else if (eat("--scale", &v)) {
        opts_.scale = real(v);
        scale_set_ = true;
      } else if (eat("--trace", &v)) {
        opts_.trace_path = v;
      } else if (eat("--series", &v)) {
        opts_.series_prefix = v;
      } else if (eat("--chunk", &v)) {
        opts_.chunk = count(v);
      } else if (eat("--rss-budget-mb", &v)) {
        opts_.rss_budget_mb = real(v);
      } else {
        usage("unknown flag");
      }
    }
  }

  /// Print peak RSS, append it to --out/rss_report.csv, and enforce the
  /// --rss-budget-mb ceiling (exit 3 on breach). Runs from the destructor
  /// so every bench gets the paper-scale memory gate for free.
  void report_rss() {
    const std::uint64_t peak = util::peak_rss_bytes();
    if (peak == 0) return;  // platform without RUSAGE maxrss support
    const double peak_mb = static_cast<double>(peak) / (1024.0 * 1024.0);
    if (opts_.rss_budget_mb > 0.0) {
      std::printf("rss: peak=%.1f MB budget=%.1f MB chunk=%zu\n", peak_mb,
                  opts_.rss_budget_mb, opts_.chunk);
    } else {
      std::printf("rss: peak=%.1f MB chunk=%zu\n", peak_mb, opts_.chunk);
    }
    std::ofstream report(out_path("rss_report.csv"), std::ios::app);
    if (report) {
      report << what_ << ',' << peak_mb << ',' << opts_.rss_budget_mb << ','
             << opts_.chunk << '\n';
    }
    if (opts_.rss_budget_mb > 0.0 && peak_mb > opts_.rss_budget_mb) {
      std::fprintf(stderr, "rss: peak %.1f MB exceeds budget %.1f MB\n",
                   peak_mb, opts_.rss_budget_mb);
      std::exit(3);
    }
  }

  Options opts_;
  std::string what_;
  bool scale_set_ = false;
  std::unique_ptr<VideoScenario> scenario_;
  std::unique_ptr<obs::Tracer> tracer_;
};

/// Run `point_fn(label, capacity)` for every capacity_axis() entry and
/// return the results in axis order. Points run concurrently (each one
/// populates its own Simulator and caches, so they share nothing mutable)
/// on the global pool; results land in pre-sized per-point slots, keeping
/// the sweep's output identical to a serial run. The per-point wall time
/// of the whole sweep is printed for the bench log.
template <typename Fn>
auto sweep_capacity_axis(const char* what, Fn&& point_fn) {
  const auto& axis = capacity_axis();
  using Result = decltype(point_fn(std::string{}, util::Bytes{}));
  std::vector<Result> out(axis.size());
  WallTimer timer;
  util::parallel_for(axis.size(), [&](std::size_t i) {
    out[i] = point_fn(axis[i].first, axis[i].second);
  });
  std::printf("sweep[%s]: %zu points in %.2f s (%d thread%s)\n", what,
              axis.size(), timer.seconds(), util::parallel_threads(),
              util::parallel_threads() == 1 ? "" : "s");
  return out;
}

}  // namespace starcdn::bench
