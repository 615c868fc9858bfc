#include "core/simulator.h"

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
    if (c.epoch.value() > 0 && c.fc.sat.value() >= 0) {
      const sched::Candidate prev = schedule_->first_contact(
          EpochIdx{c.epoch.value() - 1}, city, now.user);
      c.handover = prev.sat.value() != c.fc.sat.value();
    }
    if (need_static) {
      c.fc_static = schedule_->first_contact(EpochIdx{0}, city, now.user);
    }
  });
}

void Simulator::replay_variant(VariantState& vs,
                               const trace::RequestBlock& block,
                               const std::vector<RequestContext>& ctx,
                               bool trace_epochs,
                               std::uint64_t& marked_epoch) {
  const obs::TraceSpan replay_span(obs::tracer(), to_string(vs.variant),
                                   "variant");
  obs::Tracer* const tr = trace_epochs ? obs::tracer() : nullptr;
  const bool is_static = vs.variant == Variant::kStatic;
  const bool record_series = vs.series.enabled();
  for (std::size_t i = 0; i < block.count(); ++i) {
    ++vs.request_counter;
    const std::uint64_t real = ctx[i].epoch.value();
    if (record_series) vs.series.advance_to(real, vs.shard);
    if (tr != nullptr && real != marked_epoch) {
      marked_epoch = real;
      tr->instant("epoch", "sim", {obs::arg("epoch", real)});
    }
    // Handover accounting rides on the shared stage-1 context; kStatic
    // freezes the mapping, so it never hands over by construction.
    if (!is_static && ctx[i].handover) vs.shard.add(ids_.handovers);
    const EpochIdx sched_epoch = is_static ? EpochIdx{0} : ctx[i].epoch;
    process(vs, block.at(i), sched_epoch, ctx[i].epoch,
            is_static ? ctx[i].fc_static : ctx[i].fc);
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

  // Stage 2 runs one worker per variant. Each VariantState is
  // self-contained (caches, shard, series, RNG, transient model, counter)
  // and replays its requests strictly in trace order, so results are
  // bitwise identical for any thread count.
  //
  // Double buffer: while the variants replay block `cur`, the extra
  // parallel_for slot pulls the next block from the stream and builds its
  // stage-1 context. That slot is the last one, and parallel_for runs its
  // last chunk on the calling thread, which is not a pool worker — so the
  // nested parallel_for calls in build_context and in the stream's next()
  // (a generator's fill) fan out across the pool, unless run() itself was
  // called from a pool worker. The barrier at the end of each
  // parallel_for keeps the hand-off race-free: the producer is the only
  // writer of blocks[1 - cur]/ctxs[1 - cur], and nothing reads them until
  // the next iteration.
  trace::RequestBlock blocks[2];
  std::vector<RequestContext> ctxs[2];
  // Chunk-base bookkeeping: the rotation seed advances by block length, so
  // terminals rotate identically however the stream chops the trace.
  // Tracked locally — variant counters mutate concurrently with the
  // producer's context build.
  std::uint64_t counter_base = variants_.front().request_counter;
  std::vector<std::uint64_t> marked(variants_.size(), ~0ULL);

  int cur = 0;
  bool have = stream.next(blocks[cur]) && !blocks[cur].empty();
  if (have) {
    build_context(blocks[cur], counter_base, need_static, ctxs[cur]);
  }
  while (have) {
    const std::uint64_t next_base = counter_base + blocks[cur].count();
    bool have_next = false;
    util::parallel_for(variants_.size() + 1, [&](std::size_t slot) {
      if (slot == variants_.size()) {
        have_next = stream.next(blocks[1 - cur]) && !blocks[1 - cur].empty();
        if (have_next) {
          build_context(blocks[1 - cur], next_base, need_static,
                        ctxs[1 - cur]);
        }
        return;
      }
      replay_variant(variants_[slot], blocks[cur], ctxs[cur], slot == 0,
                     marked[slot]);
    });
    counter_base = next_base;
    have = have_next;
    cur = 1 - cur;
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

void Simulator::maybe_prefetch(VariantState& vs, SatId serving,
                               EpochIdx epoch) {
  // The §3.3 alternative design: on entering a new scheduler epoch, a
  // satellite speculatively pulls the hottest objects of its trailing
  // ("west") same-bucket replica — the satellite that just served the
  // region this one is flying into. Prefetched bytes burn ISL bandwidth
  // and cache space whether or not they are ever requested; the ablation
  // bench quantifies why the paper prefers miss-triggered relay.
  auto& stamp = vs.prefetch_epoch[util::as_index(serving)];
  if (stamp == epoch.value()) return;
  stamp = static_cast<std::uint32_t>(epoch.value());
  const SatId west = mapper_.west_of(serving);
  if (west.value() < 0) return;
  auto& replica_slot = vs.caches[util::as_index(west)];
  if (!replica_slot) return;  // neighbour has served nothing yet
  cache::Cache& own = cache_at(vs, serving);
  for (const auto& [id, size] :
       replica_slot->hottest(
           static_cast<std::size_t>(config_.prefetch_objects_per_epoch))) {
    if (own.peek(id)) continue;
    own.admit(id, size);
    vs.shard.add(ids_.isl_bytes, size);
    vs.shard.add(ids_.prefetch_bytes, size);
  }
}

void Simulator::process(VariantState& vs, const trace::Request& r,
                        EpochIdx sched_epoch, EpochIdx real_epoch,
                        const sched::Candidate& fc) {
  obs::Shard& sh = vs.shard;
  sh.add(ids_.requests);
  sh.add(ids_.bytes_requested, r.size);

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
  const bool hashed = vs.variant == Variant::kHashOnly ||
                      vs.variant == Variant::kStarCdn ||
                      vs.variant == Variant::kPrefetch;
  SatId serving = fc.sat;
  util::Millis route_ms{0.0};  // read only by the latency samples
  if (hashed) {
    const util::BucketId bucket = mapper_.bucket_of_object(r.object);
    serving = route(mapper_, fc.sat, bucket);
    if (config_.sample_latency) {
      const BucketMapper::Hops hops = mapper_.hops_of(fc.sat, bucket);
      route_ms = latency_.grid_hops_delay(hops.inter, hops.intra);
    }
  }

  // A transient cache-server outage (§3.4) goes to the ground: nothing is
  // cached and no remapping happens.
  Fetch f;
  if (vs.transient.down(serving, util::Seconds{r.timestamp_s})) {
    sh.add(ids_.transient_misses);
  } else {
    if (vs.variant == Variant::kPrefetch) {
      maybe_prefetch(vs, serving, sched_epoch);
    }
    LocalCaches caches{*this, vs};
    f = fetch(mapper_, vs.variant, config_.relay_east, serving, r.object,
              r.size, caches);
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
    vs.uplink_meter.add(serving, real_epoch, r.size);
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
