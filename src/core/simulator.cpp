#include "core/simulator.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/serve.h"
#include "obs/tracer.h"
#include "util/parallel.h"

namespace starcdn::core {

using util::CityId;
using util::EpochIdx;
using util::SatId;

const char* to_string(Variant v) noexcept {
  switch (v) {
    case Variant::kStatic: return "StaticCache";
    case Variant::kVanillaLru: return "VanillaLRU";
    case Variant::kHashOnly: return "StarCDN-Fetch";   // paper: minus fetch
    case Variant::kRelayOnly: return "StarCDN-Hashing";  // paper: minus hash
    case Variant::kStarCdn: return "StarCDN";
    case Variant::kPrefetch: return "StarCDN-Prefetch";
  }
  return "?";
}

namespace {

[[noreturn]] void bad_config(const std::string& what) {
  throw std::invalid_argument("SimConfig: " + what);
}

bool perfect_square(int n) noexcept {
  if (n < 1) return false;
  int r = 0;
  while ((r + 1) * (r + 1) <= n) ++r;
  return r * r == n;
}

SimConfig validated(SimConfig config) {
  config.validate();
  return config;
}

}  // namespace

void SimConfig::validate() const {
  if (cache_capacity == 0) bad_config("cache_capacity must be positive");
  if (!perfect_square(buckets)) {
    bad_config("buckets must be a positive perfect square (the replica "
               "grid tiles L = s*s orbital slots); got " +
               std::to_string(buckets));
  }
  if (prefetch_objects_per_epoch < 0) {
    bad_config("prefetch_objects_per_epoch must be >= 0");
  }
  if (transient_down_prob < 0.0 || transient_down_prob > 1.0) {
    bad_config("transient_down_prob must be in [0, 1]; got " +
               std::to_string(transient_down_prob));
  }
  if (transient_window.value() <= 0.0) {
    bad_config("transient_window must be positive");
  }
}

SimConfig SimConfig::Builder::build() const {
  if (prefetch_set_ && !cfg_.variants.empty()) {
    bool has_prefetch = false;
    for (const Variant v : cfg_.variants) {
      has_prefetch = has_prefetch || v == Variant::kPrefetch;
    }
    if (!has_prefetch) {
      bad_config("prefetch_objects_per_epoch is set but Variant::kPrefetch "
                 "is not among the registered variants — the knob would "
                 "silently do nothing");
    }
  }
  cfg_.validate();
  return cfg_;
}

Simulator::Simulator(const orbit::Constellation& constellation,
                     const sched::LinkSchedule& schedule, SimConfig config,
                     net::LatencyModelParams latency_params)
    : constellation_(&constellation),
      schedule_(&schedule),
      config_(validated(std::move(config))),
      mapper_(constellation, config_.buckets),
      latency_(latency_params),
      ids_(register_core_metrics(registry_)),
      time_order_(schedule.horizon().value()) {
  // Surface the constellation's failure remapping in the trace timeline:
  // one instant per inactive satellite, tagged with the slot that absorbs
  // its buckets (Fig. 11's failure scenario).
  if (obs::Tracer* tr = obs::tracer()) {
    for (int i = 0; i < constellation_->size(); ++i) {
      const SatId idx{i};
      if (constellation_->active(idx)) continue;
      std::vector<obs::TraceArg> args{
          obs::arg("sat", static_cast<std::int64_t>(i))};
      if (const SatId target = mapper_.remap_of(idx); target.value() >= 0) {
        args.push_back(obs::arg("remapped_to",
                                static_cast<std::int64_t>(target.value())));
      }
      tr->instant("sat_failed", "failure", std::move(args));
    }
  }
  for (const Variant v : config_.variants) add_variant(v);
}

void Simulator::add_variant(Variant v) {
  for (const auto& vs : variants_) {
    if (vs.variant == v) return;
  }
  VariantState vs;
  vs.variant = v;
  // Per-variant deterministic streams. The transient model is seeded
  // identically for every variant so they all observe the same outage
  // schedule; the latency-sampling RNG is variant-specific so streams stay
  // independent when variants replay concurrently. A variant registered
  // mid-stream picks up the shared request-counter position.
  vs.transient = TransientFailureModel(config_.transient_down_prob,
                                       config_.transient_window,
                                       config_.seed ^ 0xfa11u);
  vs.rng = util::Rng(config_.seed ^ static_cast<std::uint64_t>(v));
  vs.request_counter =
      variants_.empty() ? 0 : variants_.front().request_counter;
  vs.shard = obs::Shard(registry_);
  if (config_.record_epoch_series) {
    vs.series = obs::EpochSeries(&registry_, core_series_columns(ids_));
  }
  vs.latency_ms = util::QuantileSampler(config_.latency_reservoir);
  vs.caches.resize(static_cast<std::size_t>(constellation_->size()));
  if (v == Variant::kPrefetch) {
    vs.prefetch_epoch.assign(static_cast<std::size_t>(constellation_->size()),
                             ~0u);
  }
  vs.group = cache_groups(mapper_, constellation_->size(), v,
                          config_.relay_east);
  for (const std::uint32_t g : vs.group) vs.groups = std::max(vs.groups, g + 1);
  if (config_.track_per_satellite) {
    const auto n = static_cast<std::size_t>(constellation_->size());
    vs.sat_requests.assign(n, 0);
    vs.sat_hits.assign(n, 0);
    vs.sat_bytes_requested.assign(n, 0);
    vs.sat_bytes_hit.assign(n, 0);
  }
  variants_.push_back(std::move(vs));
}

void Simulator::add_sink(MetricsSink& sink) { sinks_.push_back(&sink); }

cache::Cache& Simulator::cache_at(VariantState& vs, SatId sat) {
  auto& slot = vs.caches[util::as_index(sat)];
  if (!slot) {
    slot = cache::make_cache(
        config_.policy, config_.cache_capacity,
        cache::presize_hint(config_.cache_capacity,
                            config_.mean_object_size_hint));
  }
  return *slot;
}

/// The serve plan's cache access (serve.h) over one variant's caches.
struct Simulator::LocalCaches {
  static constexpr bool kPeekBoth = true;  // a local peek is free
  Simulator& sim;
  VariantState& vs;

  bool touch(SatId sat, cache::ObjectId id) {
    return sim.cache_at(vs, sat).touch(id);
  }
  bool peek(SatId sat, cache::ObjectId id) const {
    const auto& slot = vs.caches[util::as_index(sat)];
    return slot && slot->peek(id);
  }
  void admit(SatId sat, cache::ObjectId id, util::Bytes size) {
    sim.cache_at(vs, sat).admit(id, size);
  }
};

void Simulator::note_sat(VariantState& vs, SatId sat,
                         const trace::Request& r, bool hit) {
  if (!config_.track_per_satellite) return;
  const auto i = util::as_index(sat);
  ++vs.sat_requests[i];
  vs.sat_bytes_requested[i] += r.size;
  if (hit) {
    ++vs.sat_hits[i];
    vs.sat_bytes_hit[i] += r.size;
  }
}

void Simulator::build_context(const trace::RequestBlock& block,
                              std::uint64_t counter_base, bool need_static,
                              std::vector<RequestContext>& ctx) {
  const obs::TraceSpan stage1_span(obs::tracer(), "stage1_context", "core");
  time_order_.check(block);
  const auto users_per_city =
      static_cast<std::uint64_t>(schedule_->params().users_per_city);
  ctx.resize(block.count());
  util::parallel_for(block.count(), [&](std::size_t i) {
    RequestContext& c = ctx[i];
    const CityId city{block.location[i]};
    const Contact now = contact(*schedule_, users_per_city,
                                block.timestamp_s[i], city, counter_base + i);
    c.epoch = now.epoch;
    c.fc = now.fc;
    c.handover = false;
    c.owner = util::kNoSat;
    c.hops = {0, 0};
    if (c.fc.sat.value() >= 0) {
      const util::BucketId bucket = mapper_.bucket_of_object(block.object[i]);
      c.owner = route(mapper_, c.fc.sat, bucket);
      c.hops = mapper_.hops_of(c.fc.sat, bucket);
      if (c.epoch.value() > 0) {
        const sched::Candidate prev = schedule_->first_contact(
            EpochIdx{c.epoch.value() - 1}, city, now.user);
        c.handover = prev.sat.value() != c.fc.sat.value();
      }
    }
    if (need_static) {
      c.fc_static = schedule_->first_contact(EpochIdx{0}, city, now.user);
    }
  });
}

namespace {

bool hashed(Variant v) noexcept {
  return v == Variant::kHashOnly || v == Variant::kStarCdn ||
         v == Variant::kPrefetch;
}

/// The satellite whose cache serves a request under `v`; negative in a
/// coverage gap.
template <class Context>
SatId serving_of(Variant v, const Context& c) noexcept {
  if (v == Variant::kStatic) return c.fc_static.sat;
  return hashed(v) ? c.owner : c.fc.sat;
}

// One byte per request from the cache step to the accounting: the Fetch,
// or a transient outage of the serving cache.
constexpr std::uint8_t kWestHas = 1U << 2;
constexpr std::uint8_t kEastHas = 1U << 3;
constexpr std::uint8_t kTransient = 1U << 4;

std::uint8_t pack(const Fetch& f) noexcept {
  return static_cast<std::uint8_t>(
      static_cast<std::uint8_t>(f.source) | (f.west_has ? kWestHas : 0U) |
      (f.east_has ? kEastHas : 0U));
}

Fetch unpack(std::uint8_t outcome) noexcept {
  Fetch f;
  f.source = static_cast<Fetch::Source>(outcome & 3U);
  f.west_has = (outcome & kWestHas) != 0;
  f.east_has = (outcome & kEastHas) != 0;
  return f;
}

}  // namespace

void Simulator::plan(const VariantState& vs,
                     const std::vector<RequestContext>& ctx, std::size_t slots,
                     Lane& lane) const {
  lane.outcome.resize(ctx.size());
  if (vs.variant == Variant::kPrefetch) lane.prefetched.resize(ctx.size());
  // Requests per group; a request in a coverage gap touches no cache and
  // joins no slot.
  std::vector<std::uint32_t> load(vs.groups, 0);
  std::uint64_t total = 0;
  for (const RequestContext& c : ctx) {
    const SatId s = serving_of(vs.variant, c);
    if (s.value() < 0) continue;
    ++load[vs.group[util::as_index(s)]];
    ++total;
  }
  // Groups in id order fill the slots by cumulative load.
  std::vector<std::uint32_t> slot_of(vs.groups);
  lane.slot_end.assign(slots, 0);
  std::uint64_t before = 0;
  for (std::uint32_t g = 0; g < vs.groups; ++g) {
    slot_of[g] = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        slots - 1, before * slots / std::max<std::uint64_t>(total, 1)));
    lane.slot_end[slot_of[g]] += load[g];
    before += load[g];
  }
  for (std::size_t k = 1; k < slots; ++k) {
    lane.slot_end[k] += lane.slot_end[k - 1];
  }
  // Stable scatter: each slot keeps its requests in trace order.
  lane.order.resize(total);
  std::vector<std::uint32_t> next(slots, 0);
  for (std::size_t k = 1; k < slots; ++k) next[k] = lane.slot_end[k - 1];
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    const SatId s = serving_of(vs.variant, ctx[i]);
    if (s.value() < 0) continue;
    lane.order[next[slot_of[vs.group[util::as_index(s)]]]++] =
        static_cast<std::uint32_t>(i);
  }
}

bool Simulator::produce(trace::RequestStream& stream,
                        std::uint64_t counter_base, bool need_static,
                        std::size_t slots, Chunk& chunk) {
  const obs::TraceSpan span(obs::tracer(), "produce", "core");
  if (!stream.next(chunk.block) || chunk.block.empty()) return false;
  build_context(chunk.block, counter_base, need_static, chunk.ctx);
  chunk.lanes.resize(variants_.size());
  for (std::size_t v = 0; v < variants_.size(); ++v) {
    plan(variants_[v], chunk.ctx, slots, chunk.lanes[v]);
  }
  return true;
}

void Simulator::cache_step(VariantState& vs, const Chunk& chunk, Lane& lane,
                           std::size_t slot) {
  const std::uint32_t begin = slot == 0 ? 0 : lane.slot_end[slot - 1];
  const std::uint32_t end = lane.slot_end[slot];
  if (begin == end) return;
  const obs::TraceSpan span(
      obs::tracer(), "cache_step", "core",
      {obs::arg("variant", to_string(vs.variant)),
       obs::arg("slot", static_cast<std::uint64_t>(slot)),
       obs::arg("requests", static_cast<std::uint64_t>(end - begin))});
  const trace::RequestBlock& block = chunk.block;
  LocalCaches caches{*this, vs};
  for (std::uint32_t k = begin; k < end; ++k) {
    const std::uint32_t i = lane.order[k];
    const RequestContext& c = chunk.ctx[i];
    const SatId serving = serving_of(vs.variant, c);
    // A transient cache-server outage (§3.4) goes to the ground: nothing
    // is cached and no remapping happens.
    if (vs.transient.down(serving, util::Seconds{block.timestamp_s[i]})) {
      lane.outcome[i] = kTransient;
      continue;
    }
    if (vs.variant == Variant::kPrefetch) {
      lane.prefetched[i] = maybe_prefetch(vs, serving, c.epoch);
    }
    lane.outcome[i] =
        pack(fetch(mapper_, vs.variant, config_.relay_east, serving,
                   block.object[i], block.size[i], caches));
  }
}

void Simulator::account(VariantState& vs, const Chunk& chunk,
                        const Lane& lane, bool trace_epochs,
                        std::uint64_t& marked_epoch) {
  const obs::TraceSpan replay_span(obs::tracer(), to_string(vs.variant),
                                   "variant");
  obs::Tracer* const tr = trace_epochs ? obs::tracer() : nullptr;
  const bool is_static = vs.variant == Variant::kStatic;
  const bool record_series = vs.series.enabled();
  const bool prefetch = vs.variant == Variant::kPrefetch;
  for (std::size_t i = 0; i < chunk.block.count(); ++i) {
    const RequestContext& c = chunk.ctx[i];
    ++vs.request_counter;
    const std::uint64_t real = c.epoch.value();
    if (record_series) vs.series.advance_to(real, vs.shard);
    if (tr != nullptr && real != marked_epoch) {
      marked_epoch = real;
      tr->instant("epoch", "sim", {obs::arg("epoch", real)});
    }
    // Handover accounting rides on the shared stage-1 context; kStatic
    // freezes the mapping, so it never hands over by construction.
    if (!is_static && c.handover) vs.shard.add(ids_.handovers);
    process(vs, chunk.block.at(i), c, lane.outcome[i],
            prefetch ? lane.prefetched[i] : 0);
  }
}

void Simulator::run(trace::RequestStream& stream) {
  if (variants_.empty()) return;
  obs::TraceSpan run_span(
      obs::tracer(), "Simulator::run", "core",
      {obs::arg("variants", static_cast<std::uint64_t>(variants_.size()))});

  bool need_static = false;
  for (const auto& vs : variants_) {
    need_static = need_static || vs.variant == Variant::kStatic;
  }

  // Three chunks in flight (DESIGN.md §6). Each iteration is one
  // parallel_for of at most parallel_threads() slots that runs together:
  //   - the accounting of chunk `cur - 1`, one task per variant;
  //   - the cache step of chunk `cur`, one task per (variant, slot);
  //   - the producer of chunk `cur + 1`: next(), stage 1 and the plans.
  // A variant's accounting and cache step touch disjoint parts of its
  // VariantState, and no two cache-step tasks share a group, so the tasks
  // are independent; slots pull them from a shared counter, accounting
  // first. The producer takes the last slot, which parallel_for runs on
  // the calling thread — not a pool worker — so the nested parallel_for
  // calls in build_context and in the stream's next() fan out across the
  // pool, unless run() itself was called from a pool worker. The barrier
  // at the end of each parallel_for is the hand-off: nothing reads a chunk
  // before the iteration after the one that wrote it.
  const std::size_t slots =
      static_cast<std::size_t>(std::max(1, util::parallel_threads()));
  const std::size_t nv = variants_.size();
  Chunk chunks[3];
  // Chunk-base bookkeeping: the rotation seed advances by block length, so
  // terminals rotate identically however the stream chops the trace.
  // Tracked locally — variant counters mutate concurrently with the
  // producer's context build.
  std::uint64_t next_base = variants_.front().request_counter;
  std::vector<std::uint64_t> marked(nv, ~0ULL);
  const auto account_all = [&](const Chunk& chunk) {
    util::parallel_for(nv, [&](std::size_t v) {
      account(variants_[v], chunk, chunk.lanes[v], v == 0, marked[v]);
    });
  };

  std::size_t cur = 0;
  bool have_cur = produce(stream, next_base, need_static, slots, chunks[0]);
  bool have_prev = false;  // chunks[cur - 1] awaits its accounting
  while (have_cur || have_prev) {
    Chunk& now = chunks[cur];
    Chunk& prev = chunks[(cur + 2) % 3];
    Chunk& next = chunks[(cur + 1) % 3];
    if (have_cur) next_base += now.block.count();
    const std::size_t accounting = have_prev ? nv : 0;
    const std::size_t tasks = accounting + (have_cur ? nv * slots : 0);
    std::atomic<std::size_t> next_task{0};
    bool have_next = false;
    std::exception_ptr produce_error;
    const std::size_t width = std::min(slots, tasks + (have_cur ? 1 : 0));
    const auto work = [&](std::size_t slot) {
      if (have_cur && slot + 1 == width) {
        try {
          have_next = produce(stream, next_base, need_static, slots, next);
        } catch (...) {
          produce_error = std::current_exception();
        }
      }
      for (std::size_t t = next_task++; t < tasks; t = next_task++) {
        if (t < accounting) {
          account(variants_[t], prev, prev.lanes[t], t == 0, marked[t]);
        } else {
          const std::size_t u = t - accounting;
          cache_step(variants_[u % nv], now, now.lanes[u % nv], u / nv);
        }
      }
    };
    util::parallel_for(width, work, static_cast<int>(width));
    if (produce_error) {
      // Chunk `cur` went through its cache step: account it, so the run
      // stops after a whole chunk, then report the bad one.
      account_all(now);
      std::rethrow_exception(produce_error);
    }
    have_prev = have_cur;
    have_cur = have_next;
    cur = (cur + 1) % 3;
  }

  // One trailing fold per run: flushing per block would split a
  // (satellite, epoch) uplink cell at chunk boundaries and skew the
  // throughput statistics.
  for (auto& vs : variants_) vs.uplink_meter.flush();
}

RunReport Simulator::finish() {
  const obs::TraceSpan span(obs::tracer(), "Simulator::finish", "core");
  RunReport report;
  report.epoch_seconds = schedule_->epoch_duration().value();
  report.seed = config_.seed;

  std::vector<const obs::Shard*> shards;
  shards.reserve(variants_.size());
  for (auto& vs : variants_) {
    vs.series.finish(vs.shard);  // close the trailing partial epoch

    VariantReport vr;
    vr.variant = vs.variant;
    vr.name = to_string(vs.variant);
    shard_to_metrics(ids_, vs.shard, vr.metrics);
    vr.metrics.latency_ms = vs.latency_ms;
    vr.metrics.uplink_meter = vs.uplink_meter;
    vr.metrics.sat_requests = vs.sat_requests;
    vr.metrics.sat_hits = vs.sat_hits;
    vr.metrics.sat_bytes_requested = vs.sat_bytes_requested;
    vr.metrics.sat_bytes_hit = vs.sat_bytes_hit;
    vr.series = vs.series.table(report.epoch_seconds);
    for (const auto& d : registry_.descriptors()) {
      if (d.kind != obs::Kind::kCounter) continue;
      vr.counters.emplace_back(d.name,
                               vs.shard.value(obs::CounterId{d.slot}));
    }
    report.variants.push_back(std::move(vr));
    shards.push_back(&vs.shard);
  }

  // Fleet totals: shards merged in variant registration order — the
  // determinism contract of obs::merge.
  const obs::Shard merged = obs::merge(registry_, shards);
  for (const auto& d : registry_.descriptors()) {
    if (d.kind != obs::Kind::kCounter) continue;
    report.totals.emplace_back(d.name, merged.value(obs::CounterId{d.slot}));
  }

  for (MetricsSink* sink : sinks_) sink->consume(report);
  return report;
}

util::Bytes Simulator::maybe_prefetch(VariantState& vs, SatId serving,
                                      EpochIdx epoch) {
  // The §3.3 alternative design: on entering a new scheduler epoch, a
  // satellite speculatively pulls the hottest objects of its trailing
  // ("west") same-bucket replica — the satellite that just served the
  // region this one is flying into. Prefetched bytes burn ISL bandwidth
  // and cache space whether or not they are ever requested; the ablation
  // bench quantifies why the paper prefers miss-triggered relay. Returns
  // the bytes pulled, for the accounting pass.
  auto& stamp = vs.prefetch_epoch[util::as_index(serving)];
  if (stamp == epoch.value()) return 0;
  stamp = static_cast<std::uint32_t>(epoch.value());
  const SatId west = mapper_.west_of(serving);
  if (west.value() < 0) return 0;
  auto& replica_slot = vs.caches[util::as_index(west)];
  if (!replica_slot) return 0;  // neighbour has served nothing yet
  cache::Cache& own = cache_at(vs, serving);
  util::Bytes pulled = 0;
  for (const auto& [id, size] :
       replica_slot->hottest(
           static_cast<std::size_t>(config_.prefetch_objects_per_epoch))) {
    if (own.peek(id)) continue;
    own.admit(id, size);
    pulled += size;
  }
  return pulled;
}

void Simulator::process(VariantState& vs, const trace::Request& r,
                        const RequestContext& c, std::uint8_t outcome,
                        util::Bytes prefetched) {
  obs::Shard& sh = vs.shard;
  sh.add(ids_.requests);
  sh.add(ids_.bytes_requested, r.size);

  const sched::Candidate& fc =
      vs.variant == Variant::kStatic ? c.fc_static : c.fc;
  if (fc.sat.value() < 0) {
    // Coverage gap: served bent-pipe from the ground via a remote link.
    sh.add(ids_.unreachable);
    sh.add(ids_.misses);
    sh.add(ids_.uplink_bytes, r.size);
    if (config_.sample_latency) {
      vs.latency_ms.add(
          latency_.bentpipe_starlink(latency_.params().default_gsl, vs.rng)
              .value());
    }
    return;
  }

  const util::Millis gsl{fc.gsl_one_way_ms};
  const SatId serving = serving_of(vs.variant, c);
  util::Millis route_ms{0.0};  // read only by the latency samples
  if (hashed(vs.variant) && config_.sample_latency) {
    route_ms = latency_.grid_hops_delay(c.hops.inter, c.hops.intra);
  }

  Fetch f;
  if (outcome == kTransient) {
    sh.add(ids_.transient_misses);
  } else {
    if (prefetched != 0) {
      sh.add(ids_.isl_bytes, prefetched);
      sh.add(ids_.prefetch_bytes, prefetched);
    }
    f = unpack(outcome);
    note_sat(vs, serving, r, f.source == Fetch::Source::kOwner);
  }

  // Table 3 accounting: what was available among the neighbours when the
  // owner missed.
  if (f.west_has && f.east_has) {
    sh.add(ids_.relay_both_requests);
    sh.add(ids_.relay_both_bytes, r.size);
  } else if (f.west_has) {
    sh.add(ids_.relay_west_only_requests);
    sh.add(ids_.relay_west_only_bytes, r.size);
  } else if (f.east_has) {
    sh.add(ids_.relay_east_only_requests);
    sh.add(ids_.relay_east_only_bytes, r.size);
  }

  if (f.source == Fetch::Source::kOwner) {
    sh.add(ids_.bytes_hit, r.size);
    if (serving == fc.sat) {
      sh.add(ids_.local_hits);
    } else {
      sh.add(ids_.routed_hits);
      sh.add(ids_.isl_bytes, r.size);
    }
    if (config_.sample_latency) {
      vs.latency_ms.add(route_ms.value() > 0.0
                            ? latency_.hit_routed(gsl, route_ms).value()
                            : latency_.hit_local(gsl).value());
    }
  } else if (f.source != Fetch::Source::kGround) {  // relayed fetch
    sh.add(f.source == Fetch::Source::kWest ? ids_.relay_west_hits
                                            : ids_.relay_east_hits);
    sh.add(ids_.bytes_hit, r.size);
    sh.add(ids_.isl_bytes, r.size);
    if (config_.sample_latency) {
      const int relay_hops =
          vs.variant == Variant::kStarCdn ? mapper_.tile_side() : 1;
      const util::Millis relay =
          static_cast<double>(relay_hops) * latency_.params().inter_orbit_hop;
      vs.latency_ms.add(latency_.hit_relayed(gsl, route_ms, relay).value());
    }
  } else {  // from the ground (uplink spend)
    sh.add(ids_.misses);
    sh.add(ids_.uplink_bytes, r.size);
    vs.uplink_meter.add(serving, c.epoch, r.size);
    if (config_.sample_latency) {
      vs.latency_ms.add(
          latency_.miss(gsl, route_ms, latency_.params().default_gsl, vs.rng)
              .value());
    }
  }
}

std::vector<int> Simulator::buckets_served_per_satellite() const {
  // Count how many grid slots each active satellite inherits after failure
  // remapping; a healthy satellite serves exactly its own slot.
  std::vector<int> served(static_cast<std::size_t>(constellation_->size()), 0);
  for (int i = 0; i < constellation_->size(); ++i) {
    if (const SatId target = mapper_.remap_of(SatId{i}); target.value() >= 0) {
      ++served[util::as_index(target)];
    }
  }
  return served;
}

}  // namespace starcdn::core
