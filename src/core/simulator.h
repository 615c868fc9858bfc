// Trace-driven discrete-time simulator for satellite-based CDNs (§5.1).
//
// Replays a multi-location request trace against a constellation with
// per-satellite edge caches under one or more architecture variants:
//
//   kStatic     — the paper's unachievable north star: satellites frozen at
//                 their epoch-0 geometry, static user-satellite mapping.
//   kVanillaLru — naive design of §3.1: independent per-satellite caches.
//   kHashOnly   — StarCDN consistent hashing, no relayed fetch (the paper's
//                 "StarCDN-Fetch" curve = StarCDN *minus* fetch).
//   kRelayOnly  — relayed fetch from inter-orbit neighbours without
//                 hashing (the paper's "StarCDN-Hashing" curve = StarCDN
//                 *minus* hashing).
//   kStarCdn    — the full system: hashing + relayed fetch (§3.2 + §3.3).
//   kPrefetch   — the design alternative §3.3 argues against: hashing plus
//                 *proactive* prefetch of the trailing replica's hot set at
//                 every scheduler epoch, instead of miss-triggered relay.
//
// All variants of one run share the precomputed link schedule, so they see
// identical orbital dynamics and request assignment; only the caching
// architecture differs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <vector>

#include "cache/cache.h"
#include "core/bucket_mapper.h"
#include "core/failure.h"
#include "core/metrics.h"
#include "core/run_report.h"
#include "core/variant.h"
#include "net/bandwidth.h"
#include "net/latency_model.h"
#include "obs/registry.h"
#include "obs/series.h"
#include "orbit/constellation.h"
#include "sched/scheduler.h"
#include "trace/record.h"
#include "trace/stream.h"
#include "util/ids.h"
#include "util/stats.h"
#include "util/units.h"

namespace starcdn::core {

struct SimConfig {
  cache::Policy policy = cache::Policy::kLru;
  util::Bytes cache_capacity = util::gib(20);
  /// Mean-object-size hint used to pre-size each satellite cache's entry
  /// slab and hash index at creation (cache_capacity / hint resident
  /// objects, see cache::presize_hint), so warm caches never reallocate on
  /// the serving path. Purely a performance knob — results are identical
  /// for any value; 0 disables pre-sizing. The default matches the video
  /// workload's mean object size.
  util::Bytes mean_object_size_hint = util::mib(16);
  int buckets = 4;          // L, perfect square; used by hash variants
  bool relay_east = true;   // keep the bidirectional east link (§3.3)
  bool sample_latency = true;
  bool track_per_satellite = false;
  /// Objects pulled from the trailing replica per epoch by kPrefetch.
  int prefetch_objects_per_epoch = 64;
  /// Transient cache-server outage probability per failure window (§3.4);
  /// 0 disables the model.
  double transient_down_prob = 0.0;
  util::Seconds transient_window{300.0};
  std::uint64_t seed = 1234;
  /// Reservoir size of the per-variant latency QuantileSampler (Fig. 10).
  /// Trade-off: memory is 8 bytes * reservoir * variants and quantile
  /// queries sort the reservoir, while quantile *accuracy* falls off as
  /// the reservoir shrinks relative to the replayed request count (at the
  /// default 200k samples the p50/p95 sampling error on a day-long trace
  /// is well under the figures' line width; 0 keeps every sample).
  std::size_t latency_reservoir = kDefaultLatencyReservoir;
  /// Record per-epoch counter snapshots (RunReport time-series). One
  /// integer compare per request, one row per 15 s epoch — on by default.
  bool record_epoch_series = true;
  /// Variants registered by the Simulator constructor (add_variant can
  /// still add more afterwards). Populated by Builder::variants().
  std::vector<Variant> variants;

  /// Throws std::invalid_argument on out-of-range fields (also run by the
  /// Simulator constructor, so hand-rolled brace-init configs are checked
  /// too).
  void validate() const;

  class Builder;
};

/// Fluent, validating construction for SimConfig:
///
///   auto cfg = SimConfig::Builder{}
///                  .policy(cache::Policy::kS3Fifo)
///                  .cache_capacity(util::gib(40))
///                  .buckets(9)
///                  .variants({Variant::kStarCdn, Variant::kVanillaLru})
///                  .build();
///
/// build() rejects inconsistent settings that a brace-init SimConfig would
/// silently accept — e.g. tuning prefetch_objects_per_epoch without
/// registering Variant::kPrefetch, or a bucket count that is not a perfect
/// square — and runs SimConfig::validate().
class SimConfig::Builder {
 public:
  Builder& policy(cache::Policy p) { cfg_.policy = p; return *this; }
  Builder& cache_capacity(util::Bytes b) {
    cfg_.cache_capacity = b;
    return *this;
  }
  Builder& mean_object_size_hint(util::Bytes b) {
    cfg_.mean_object_size_hint = b;
    return *this;
  }
  Builder& buckets(int l) { cfg_.buckets = l; return *this; }
  Builder& relay_east(bool on) { cfg_.relay_east = on; return *this; }
  Builder& sample_latency(bool on) {
    cfg_.sample_latency = on;
    return *this;
  }
  Builder& track_per_satellite(bool on) {
    cfg_.track_per_satellite = on;
    return *this;
  }
  Builder& prefetch_objects_per_epoch(int n) {
    cfg_.prefetch_objects_per_epoch = n;
    prefetch_set_ = true;
    return *this;
  }
  Builder& transient_failures(double prob, util::Seconds window) {
    cfg_.transient_down_prob = prob;
    cfg_.transient_window = window;
    return *this;
  }
  Builder& seed(std::uint64_t s) { cfg_.seed = s; return *this; }
  Builder& latency_reservoir(std::size_t n) {
    cfg_.latency_reservoir = n;
    return *this;
  }
  Builder& record_epoch_series(bool on) {
    cfg_.record_epoch_series = on;
    return *this;
  }
  Builder& variant(Variant v) {
    cfg_.variants.push_back(v);
    return *this;
  }
  Builder& variants(std::initializer_list<Variant> vs) {
    // Element-wise rather than range insert: gcc 12's -Wstringop-overflow
    // misfires on the memmove of byte-sized enums from an initializer_list.
    cfg_.variants.reserve(cfg_.variants.size() + vs.size());
    for (const Variant v : vs) cfg_.variants.push_back(v);
    return *this;
  }

  /// Cross-field checks + SimConfig::validate(); throws
  /// std::invalid_argument with a field-naming message on failure.
  [[nodiscard]] SimConfig build() const;

 private:
  SimConfig cfg_;
  bool prefetch_set_ = false;
};

class Simulator {
 public:
  /// Validates `config` (SimConfig::validate) and registers
  /// config.variants. Throws std::invalid_argument on a bad config.
  Simulator(const orbit::Constellation& constellation,
            const sched::LinkSchedule& schedule, SimConfig config,
            net::LatencyModelParams latency_params = {});

  /// Register a variant before run(); duplicate registration is a no-op.
  void add_variant(Variant v);

  /// Register a sink to be fed the RunReport from finish(). Not owned; the
  /// sink must outlive the simulator. Sinks fire in registration order.
  void add_sink(MetricsSink& sink);

  /// Replay a time-ordered chunked stream with O(chunk) memory. May be
  /// called repeatedly: counters, caches and the user-terminal rotation
  /// carry over, so a trace split across several streams replays like one.
  /// A materialized trace goes through trace::VectorStream, per-location
  /// traces through trace::MultiTraceStream.
  ///
  /// Variants replay concurrently (one worker per VariantState; see
  /// util::parallel_for). Each variant owns its caches, counters, RNG
  /// stream (seeded config.seed ^ variant) and request counter, so results
  /// are bitwise identical for any thread count and any chunk size.
  ///
  /// Double-buffered: while the variants replay chunk N, one extra
  /// parallel_for slot pulls chunk N+1 from the stream and builds its
  /// stage-1 request context, so generation/IO overlaps replay.
  ///
  /// Throws std::out_of_range (from sched::LinkSchedule) on a request whose
  /// location is not one of the schedule's cities, and
  /// std::invalid_argument (trace::TimeOrderCheck) on a NaN or negative
  /// timestamp, one earlier than the request before it, or one at or past
  /// the schedule's horizon — also across chunks and across run() calls;
  /// the message counts the position over every request this simulator
  /// was given.
  void run(trace::RequestStream& stream);

  /// Close the run: seals each variant's epoch series, converts each
  /// variant's shard into VariantReport::metrics, merges the shards
  /// (registration order — deterministic), feeds every registered sink,
  /// and returns the self-contained RunReport — the only way to read a
  /// run's results. May be called repeatedly; each call re-snapshots (and
  /// re-feeds the sinks with) the current totals.
  RunReport finish();

  [[nodiscard]] const BucketMapper& mapper() const noexcept { return mapper_; }
  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }

  /// Number of bucket slots each active satellite serves after failure
  /// remapping (1 on a healthy grid); Fig. 11's x-axis.
  [[nodiscard]] std::vector<int> buckets_served_per_satellite() const;

 private:
  /// Everything a variant replay touches lives here, so each variant can
  /// run on its own thread with no shared mutable state. The RNG stream is
  /// derived from (config.seed, variant) and the request counter advances
  /// in lockstep across variants, making results independent of both
  /// thread count and which other variants are registered.
  struct VariantState {
    Variant variant;
    obs::Shard shard;         // every scalar counter of the run
    obs::EpochSeries series;  // per-epoch snapshots of the shard
    util::QuantileSampler latency_ms{kDefaultLatencyReservoir};
    net::UplinkMeter uplink_meter;  // per-(satellite, epoch) GSL load
    // Per-satellite hit accounting (Fig. 11); sized only when
    // config.track_per_satellite is set.
    std::vector<std::uint32_t> sat_requests;
    std::vector<std::uint32_t> sat_hits;
    std::vector<util::Bytes> sat_bytes_requested;
    std::vector<util::Bytes> sat_bytes_hit;
    std::vector<std::unique_ptr<cache::Cache>> caches;  // per satellite slot
    std::vector<std::uint32_t> prefetch_epoch;          // kPrefetch bookkeeping
    TransientFailureModel transient{0.0};  // same outage schedule per variant
    util::Rng rng;                         // latency sampling stream
    std::uint64_t request_counter = 0;     // drives user-terminal rotation
  };

  /// Shared per-request context, hoisted out of the variant loop (stage 1):
  /// the scheduler epoch, the first-contact lookup (once per request, and
  /// once at the frozen epoch 0 when a kStatic variant is registered,
  /// instead of once per variant), and whether the scheduler's reshuffle
  /// handed this user to a different satellite than the previous epoch.
  struct RequestContext {
    util::EpochIdx epoch{0};
    bool handover = false;       // first contact differs from epoch - 1's
    sched::Candidate fc;         // first contact at the real epoch
    sched::Candidate fc_static;  // first contact at the frozen epoch 0
  };

  /// Stage-1 fan-out over one chunk: each slot is a pure function of the
  /// request index, seeded by `counter_base` (the shared request-counter
  /// position at the chunk's first request). Checks the chunk's time order
  /// first (time_order_).
  void build_context(const trace::RequestBlock& block,
                     std::uint64_t counter_base, bool need_static,
                     std::vector<RequestContext>& ctx);
  /// Stage-2 replay of one chunk for one variant, strictly in trace order.
  /// `trace_epochs` is set for one variant only (or the trace timeline
  /// would repeat per worker); `marked_epoch` carries its epoch-instant
  /// dedup across chunks.
  void replay_variant(VariantState& vs, const trace::RequestBlock& block,
                      const std::vector<RequestContext>& ctx,
                      bool trace_epochs, std::uint64_t& marked_epoch);

  void process(VariantState& vs, const trace::Request& r,
               util::EpochIdx sched_epoch, util::EpochIdx real_epoch,
               const sched::Candidate& fc);
  void maybe_prefetch(VariantState& vs, util::SatId serving,
                      util::EpochIdx epoch);
  cache::Cache& cache_at(VariantState& vs, util::SatId sat);
  struct LocalCaches;  // the serve plan's cache access
  void note_sat(VariantState& vs, util::SatId sat, const trace::Request& r,
                bool hit);

  const orbit::Constellation* constellation_;
  const sched::LinkSchedule* schedule_;
  SimConfig config_;
  BucketMapper mapper_;
  net::LatencyModel latency_;
  obs::Registry registry_;  // declared before variants_: shards index it
  CoreMetricIds ids_;
  std::vector<VariantState> variants_;
  std::vector<MetricsSink*> sinks_;
  // Only build_context touches it, and only one build runs at a time.
  trace::TimeOrderCheck time_order_;
};

}  // namespace starcdn::core
