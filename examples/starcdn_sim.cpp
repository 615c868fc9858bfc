// starcdn_sim: the full simulator behind a command line — the entry point a
// downstream user would script parameter sweeps with.
//
//   $ ./starcdn_sim [options]
//     --class video|web|download     traffic class           (video)
//     --variants a,b,c               comma list of: static,lru,hash,relay,
//                                    starcdn,prefetch        (starcdn,lru)
//     --capacity-gib N               per-satellite cache     (2)
//     --buckets L                    hash buckets, square    (4)
//     --policy lru|lfu|fifo|sieve|slru                      (lru)
//     --hours H                      trace duration          (6)
//     --scale S                      request volume scale    (0.25)
//     --fail-fraction F              out-of-slot fraction    (0)
//     --transient-prob P             transient outage prob   (0)
//     --global-cities                use the 27-city world set
//     --csv PATH                     append one CSV row per variant
//     --seed N                       workload + simulator seed
//     --series-csv PREFIX            per-variant epoch time-series CSVs
//                                    (PREFIX<variant>.csv)
//     --trace PATH                   chrome://tracing JSON timeline,
//                                    plus the span profile on stdout
//     --json PATH                    full RunReport as JSON
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/simulator.h"
#include "obs/tracer.h"
#include "trace/workload.h"
#include "util/csv.h"
#include "util/geo.h"

namespace {

using namespace starcdn;

core::Variant parse_variant(const std::string& name) {
  if (name == "static") return core::Variant::kStatic;
  if (name == "lru") return core::Variant::kVanillaLru;
  if (name == "hash") return core::Variant::kHashOnly;
  if (name == "relay") return core::Variant::kRelayOnly;
  if (name == "starcdn") return core::Variant::kStarCdn;
  if (name == "prefetch") return core::Variant::kPrefetch;
  throw std::invalid_argument("unknown variant: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  std::string cls = "video", variants_arg = "starcdn,lru", policy = "lru";
  std::string csv_path, series_prefix, trace_path, json_path;
  double capacity_gib = 2.0, hours = 6.0, scale = 0.25;
  double fail_fraction = 0.0, transient_prob = 0.0;
  std::uint64_t seed = 0;
  int buckets = 4;
  bool global = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--class") cls = next();
      else if (a == "--variants") variants_arg = next();
      else if (a == "--capacity-gib") capacity_gib = std::stod(next());
      else if (a == "--buckets") buckets = std::stoi(next());
      else if (a == "--policy") policy = next();
      else if (a == "--hours") hours = std::stod(next());
      else if (a == "--scale") scale = std::stod(next());
      else if (a == "--fail-fraction") fail_fraction = std::stod(next());
      else if (a == "--transient-prob") transient_prob = std::stod(next());
      else if (a == "--global-cities") global = true;
      else if (a == "--csv") csv_path = next();
      else if (a == "--seed") seed = std::stoull(next());
      else if (a == "--series-csv") series_prefix = next();
      else if (a == "--trace") trace_path = next();
      else if (a == "--json") json_path = next();
      else {
        std::fprintf(stderr, "unknown option %s (see header comment)\n",
                     a.c_str());
        return 1;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad argument for %s: %s\n", a.c_str(), e.what());
      return 1;
    }
  }

  trace::TrafficClass traffic_class = trace::TrafficClass::kVideo;
  if (cls == "web") traffic_class = trace::TrafficClass::kWeb;
  else if (cls == "download") traffic_class = trace::TrafficClass::kDownload;

  // Tracing observes phase structure only; install before schedule
  // construction so LinkSchedule::build lands on the timeline.
  obs::Tracer tracer;
  if (!trace_path.empty()) obs::set_tracer(&tracer);

  const auto& cities = global ? util::global_cities() : util::paper_cities();
  auto params = trace::default_params(traffic_class);
  params.duration_s = hours * util::kHour.value();
  params.requests_per_weight = static_cast<std::size_t>(
      static_cast<double>(params.requests_per_weight) * scale);
  if (seed != 0) params.seed = seed;
  const trace::WorkloadModel workload(cities, params);
  const auto requests = trace::merge_by_time(workload.generate());

  orbit::Constellation shell{orbit::WalkerParams{}};
  if (fail_fraction > 0.0) {
    util::Rng rng(4242);
    shell.knock_out_random(fail_fraction, rng);
  }
  const sched::LinkSchedule schedule(shell, cities, util::Seconds{params.duration_s});

  core::SimConfig::Builder builder;
  builder.cache_capacity(util::gib(capacity_gib))
      .buckets(buckets)
      .policy(cache::parse_policy(policy))
      .transient_failures(transient_prob, util::Seconds{300.0});
  if (seed != 0) builder.seed(seed);

  std::vector<core::Variant> variants;
  std::stringstream ss(variants_arg);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    try {
      variants.push_back(parse_variant(tok));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    builder.variant(variants.back());
  }

  core::SimConfig cfg;
  try {
    cfg = builder.build();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  core::Simulator sim(shell, schedule, cfg);

  std::printf(
      "class=%s cities=%zu requests=%zu cache=%.1fGiB L=%d policy=%s "
      "fail=%.1f%% transient=%.1f%%\n",
      cls.c_str(), cities.size(), requests.size(), capacity_gib, buckets,
      policy.c_str(), 100 * fail_fraction, 100 * transient_prob);
  // Sinks fire inside finish(): summary to stdout, optional time-series
  // CSVs and the chrome trace alongside.
  core::SummarySink summary(std::cout);
  sim.add_sink(summary);
  core::SeriesCsvSink series(series_prefix);
  if (!series_prefix.empty()) sim.add_sink(series);
  core::TraceJsonSink trace_sink(trace_path);
  if (!trace_path.empty()) sim.add_sink(trace_sink);

  trace::VectorStream stream(requests);
  sim.run(stream);
  const core::RunReport report = sim.finish();

  for (const auto& p : series.paths()) std::printf("series: %s\n", p.c_str());
  if (trace_sink.written()) {
    std::printf("trace: %s (open in ui.perfetto.dev)\n", trace_path.c_str());
    tracer.profile().print(std::cout);
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    report.write_json(out);
    if (out) std::printf("report: %s\n", json_path.c_str());
  }

  if (!csv_path.empty()) {
    util::CsvWriter w(csv_path);
    w.row({"variant", "class", "capacity_gib", "buckets", "policy", "rhr",
           "bhr", "uplink", "p50_ms", "p95_ms"});
    for (const auto v : variants) {
      const auto& m = report.variant(v).metrics;
      w.row({core::to_string(v), cls, std::to_string(capacity_gib),
             std::to_string(buckets), policy,
             std::to_string(m.request_hit_rate()),
             std::to_string(m.byte_hit_rate()),
             std::to_string(m.normalized_uplink()),
             std::to_string(m.latency_ms.median()),
             std::to_string(m.latency_ms.quantile(0.95))});
    }
    std::printf("\nwrote %s\n", csv_path.c_str());
  }
  obs::set_tracer(nullptr);
  return 0;
}
