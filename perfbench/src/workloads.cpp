#include "workloads.h"

#include <pthread.h>
#include <sched.h>

#include <bit>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/simulator.h"
#include "obs/tracer.h"
#include "util/geo.h"
#include "util/hash.h"
#include "util/rng.h"

namespace perfbench {

using namespace starcdn;

namespace {

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t tracer_now_us() {
  const obs::Tracer* tr = obs::tracer();
  return tr != nullptr ? tr->now_us() : 0;
}

/// Order-sensitive running hash of simulated counters.
class Digest {
 public:
  void add(std::uint64_t v) noexcept { h_ = util::hash_combine(h_, v); }
  void add(std::string_view s) noexcept { add(util::fnv1a(s)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0;
};

void check(std::vector<std::string>& errors, bool ok, const std::string& what) {
  if (!ok) errors.push_back(what);
}

/// Restricts the calling thread to the first CPU it may run on, and
/// restores its CPU set on destruction.
class PinnedToOneCpu {
 public:
  PinnedToOneCpu() {
    if (pthread_getaffinity_np(pthread_self(), sizeof saved_, &saved_) != 0) {
      throw std::runtime_error("perfbench: cannot read the CPU affinity");
    }
    int cpu = 0;
    while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &saved_)) ++cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (pthread_setaffinity_np(pthread_self(), sizeof one, &one) != 0) {
      throw std::runtime_error("perfbench: cannot pin to one CPU");
    }
  }
  ~PinnedToOneCpu() {
    (void)pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_);
  }
  PinnedToOneCpu(const PinnedToOneCpu&) = delete;
  PinnedToOneCpu& operator=(const PinnedToOneCpu&) = delete;

 private:
  cpu_set_t saved_{};
};

/// A generated stream, optionally behind the timing decorator.
struct Stream {
  std::unique_ptr<trace::RequestStream> source;
  std::unique_ptr<TimingStream> timed;
  [[nodiscard]] trace::RequestStream& pull() const {
    return timed ? *timed : *source;
  }
};

Stream open_stream(const trace::WorkloadModel& model, std::size_t chunk,
                   bool decorate, Iteration& it) {
  const Clock::time_point t0 = Clock::now();
  Stream s;
  s.source = model.generate_stream({chunk});
  it.open_s += since(t0);
  if (decorate) s.timed = std::make_unique<TimingStream>(*s.source);
  return s;
}

/// Folds a finished stream's pull records into the iteration.
void account(Iteration& it, const Stream& s) {
  if (!s.timed) return;
  it.requests += s.timed->requests();
  it.chunks += s.timed->chunks();
  it.next_s += s.timed->next_seconds();
  it.longest_pull_s =
      std::max(it.longest_pull_s, s.timed->longest_pull_seconds());
  const std::vector<double> ms = s.timed->intervals_ms();
  it.chunk_ms.insert(it.chunk_ms.end(), ms.begin(), ms.end());
}

core::SimConfig day_config() {
  return core::SimConfig::Builder{}
      .cache_capacity(kReferenceCapacity)
      .buckets(kBuckets)
      .sample_latency(true)
      .variants({core::Variant::kVanillaLru, core::Variant::kHashOnly,
                 core::Variant::kRelayOnly, core::Variant::kStarCdn})
      .build();
}

/// Simulator::run over `s` and finish(), timed into `it.replay_s`.
SimRecord replay_sim(const Setup& setup, const trace::WorkloadModel& model,
                     const core::SimConfig& cfg, std::size_t chunk,
                     bool decorate, Iteration& it) {
  core::Simulator sim(*setup.shell, *setup.schedule, cfg);
  SimRecord rec;
  const Clock::time_point t0 = Clock::now();
  rec.begin_us = tracer_now_us();
  Stream s = open_stream(model, chunk, decorate, it);
  sim.run(s.pull());
  rec.report = sim.finish();
  rec.end_us = tracer_now_us();
  it.replay_s += since(t0);
  account(it, s);
  if (s.timed) {
    rec.requests = s.timed->requests();
    rec.pulls = s.timed->pulls();
  } else {
    rec.requests = rec.report.variants.front().metrics.requests;
    it.requests += rec.requests;
  }
  check_sim(rec, s.timed ? std::optional<util::Bytes>(s.timed->bytes())
                         : std::nullopt,
            it.errors);
  return rec;
}

std::unique_ptr<trace::WorkloadModel> make_model(const WorkloadSpec& spec,
                                                 std::uint64_t seed,
                                                 std::size_t content) {
  trace::WorkloadParams params =
      trace::default_params(trace::TrafficClass::kVideo);
  params.duration_s = util::kDay.value();
  params.requests_per_weight = static_cast<std::size_t>(
      static_cast<double>(params.requests_per_weight) * spec.scale);
  params.seed = seed * kContents + content;
  return std::make_unique<trace::WorkloadModel>(util::paper_cities(), params);
}

/// Digest of a run's simulated counters and latency quantiles.
std::uint64_t digest_of(const core::RunReport& report, std::uint64_t seed) {
  Digest h;
  h.add(seed);
  for (const core::VariantReport& vr : report.variants) {
    h.add(vr.name);
    for (const auto& [name, value] : vr.counters) {
      h.add(name);
      h.add(value);
    }
    const util::QuantileSampler& lat = vr.metrics.latency_ms;
    h.add(lat.count());
    if (lat.count() > 0) {
      h.add(std::bit_cast<std::uint64_t>(lat.quantile(0.5)));
      h.add(std::bit_cast<std::uint64_t>(lat.quantile(0.99)));
    }
  }
  return h.value();
}

std::uint64_t digest_of(const replay::ReplayReport& r, std::uint64_t seed) {
  Digest h;
  h.add(seed);
  h.add(r.requests);
  h.add(r.hits);
  h.add(r.relay_hits);
  h.add(r.misses);
  h.add(r.uplink_bytes);
  return h.value();
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      {"day_variants", Kind::kDayVariants, 4.0, false,
       trace::kDefaultChunkRequests},
      {"capacity_sweep", Kind::kCapacitySweep, 1.0, true,
       trace::kDefaultChunkRequests},
      {"cluster_inproc", Kind::kClusterInproc, 0.1, false, 1024},
  };
  return all;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

const std::vector<util::Bytes>& sweep_capacities() {
  static const std::vector<util::Bytes> axis = {
      util::gib(1), util::gib(2),  util::gib(4),
      util::gib(8), util::gib(16), util::gib(32)};
  return axis;
}

Setup build_setup(const WorkloadSpec& spec, std::uint64_t seed) {
  Setup s;
  Clock::time_point t0 = Clock::now();
  s.models.push_back(make_model(spec, seed, 0));
  s.model_s = since(t0);

  t0 = Clock::now();
  s.shell = std::make_unique<orbit::Constellation>(orbit::WalkerParams{});
  if (spec.degraded) {
    util::Rng rng(2025);
    s.shell->knock_out_random(0.097, rng);
  }
  s.orbit_s = since(t0);

  t0 = Clock::now();
  s.schedule = std::make_unique<sched::LinkSchedule>(
      *s.shell, util::paper_cities(), util::kDay);
  s.sched_s = since(t0);
  return s;
}

void add_contents(Setup& setup, const WorkloadSpec& spec, std::uint64_t seed) {
  for (std::size_t c = setup.models.size(); c < kContents; ++c) {
    setup.models.push_back(make_model(spec, seed, c));
  }
}

replay::ReplayReport replay_cluster_on_one_cpu(const Setup& setup,
                                               trace::RequestStream& stream) {
  replay::ReplayConfig cfg;
  cfg.policy = cache::Policy::kLru;
  cfg.cache_capacity = kReferenceCapacity;
  cfg.buckets = kBuckets;
  cfg.relay_east = true;
  cfg.transport = replay::TransportKind::kInProcess;
  cfg.users_per_city = setup.schedule->params().users_per_city;
  // Threads inherit the affinity of the thread that starts them, so
  // pinning the caller pins the workers replay_cluster spawns.
  const PinnedToOneCpu pin;
  return replay::replay_cluster(*setup.shell, *setup.schedule, stream, cfg);
}

Iteration run_iteration(const WorkloadSpec& spec, const Setup& setup,
                        std::size_t content, bool decorate) {
  Iteration it;
  const trace::WorkloadModel& model = *setup.models.at(content);
  const std::uint64_t seed = model.params().seed;
  const std::uint64_t expected = model.total_request_count();
  Digest digest;
  switch (spec.kind) {
    case Kind::kDayVariants: {
      it.sims.push_back(
          replay_sim(setup, model, day_config(), spec.chunk, decorate, it));
      digest.add(digest_of(it.sims.back().report, seed));
      break;
    }
    case Kind::kCapacitySweep: {
      for (const util::Bytes capacity : sweep_capacities()) {
        const core::SimConfig cfg = core::SimConfig::Builder{}
                                        .cache_capacity(capacity)
                                        .buckets(kBuckets)
                                        .sample_latency(false)
                                        .variant(core::Variant::kStarCdn)
                                        .build();
        it.sims.push_back(
            replay_sim(setup, model, cfg, spec.chunk, decorate, it));
        digest.add(digest_of(it.sims.back().report, seed));
      }
      break;
    }
    case Kind::kClusterInproc: {
      const Clock::time_point t0 = Clock::now();
      Stream s = open_stream(model, spec.chunk, decorate, it);
      const replay::ReplayReport r = replay_cluster_on_one_cpu(setup, s.pull());
      it.replay_s += since(t0);
      account(it, s);
      if (!s.timed) it.requests += r.requests;
      check_cluster(r, it.requests, it.errors);
      it.cluster = r;
      digest.add(digest_of(r, seed));
      break;
    }
  }
  const std::uint64_t streams = spec.kind == Kind::kCapacitySweep
                                    ? sweep_capacities().size()
                                    : 1;
  check(it.errors, it.requests == expected * streams,
        "stream yielded a different request count than the model promised");
  it.digest = digest.value();
  return it;
}

void check_sim(const SimRecord& rec, std::optional<util::Bytes> pulled_bytes,
               std::vector<std::string>& errors) {
  for (const core::VariantReport& vr : rec.report.variants) {
    const core::VariantMetrics& m = vr.metrics;
    check(errors, m.hits() + m.misses == m.requests,
          vr.name + ": hits + misses != requests");
    check(errors, m.requests == rec.requests,
          vr.name + ": requests replayed != requests pulled");
    check(errors, m.unreachable <= m.misses,
          vr.name + ": unreachable > misses");
    check(errors, m.bytes_hit <= m.bytes_requested,
          vr.name + ": bytes_hit > bytes_requested");
    if (pulled_bytes) {
      check(errors, m.bytes_requested == *pulled_bytes,
            vr.name + ": bytes_requested != bytes pulled");
    }
  }
}

void check_cluster(const replay::ReplayReport& r, std::uint64_t pulled,
                   std::vector<std::string>& errors) {
  check(errors, r.hits + r.misses == r.requests,
        "cluster: hits + misses != requests");
  check(errors, r.requests == pulled, "cluster: requests != requests pulled");
  check(errors, r.relay_hits <= r.hits, "cluster: relay_hits > hits");
}

SimRecord run_starcdn_reference(const Setup& setup,
                                trace::RequestStream& stream) {
  core::SimConfig cfg = day_config();
  cfg.variants = {core::Variant::kStarCdn};
  core::Simulator sim(*setup.shell, *setup.schedule, cfg);
  TimingStream timed(stream);
  SimRecord rec;
  rec.begin_us = tracer_now_us();
  sim.run(timed);
  rec.report = sim.finish();
  rec.end_us = tracer_now_us();
  rec.requests = timed.requests();
  rec.pulls = timed.pulls();
  return rec;
}

}  // namespace perfbench
