// Message-driven cluster replayer (§5.1): one worker thread per satellite
// owns its cache and speaks the net/codec wire protocol over a Channel, as
// the paper's per-satellite processes over TCP do. The orchestrator runs
// the Simulator's kStarCdn serve plan (core/serve.h) with messages: touch
// is a kRequest RPC (owner, and the replica serving a relay hit), peek a
// kRelayProbe RPC (east only after a west miss), admit a one-way
// kGroundReply. It does not model transient outages, kPrefetch, handovers
// or kStatic. The in-process and TCP transports give identical counters,
// equal to the Simulator's (ServeParity tests).
#pragma once

#include <cstdint>

#include "cache/cache.h"
#include "orbit/constellation.h"
#include "sched/scheduler.h"
#include "trace/record.h"
#include "trace/stream.h"

namespace starcdn::replay {

enum class TransportKind : std::uint8_t { kInProcess, kTcp };

struct ReplayConfig {
  cache::Policy policy = cache::Policy::kLru;
  util::Bytes cache_capacity = util::gib(1);
  int buckets = 4;
  bool relay_east = true;
  TransportKind transport = TransportKind::kInProcess;
  int users_per_city = 64;
  /// Mean-object-size hint used to pre-size each worker's cache slab
  /// (capacity / hint resident objects); 0 disables pre-sizing.
  util::Bytes mean_object_size_hint = util::mib(16);
};

struct ReplayReport {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;        // served from any satellite cache
  std::uint64_t relay_hits = 0;  // subset of hits served via relayed fetch
  std::uint64_t misses = 0;
  util::Bytes uplink_bytes = 0;

  [[nodiscard]] double request_hit_rate() const noexcept {
    return requests ? static_cast<double>(hits) / static_cast<double>(requests)
                    : 0.0;
  }
  friend bool operator==(const ReplayReport&, const ReplayReport&) = default;
};

/// Replay a chunked time-ordered stream through a per-satellite worker
/// cluster with O(chunk) trace memory (a materialized trace goes through
/// trace::VectorStream). Throws std::runtime_error on transport failures,
/// std::out_of_range (from sched::LinkSchedule) on a request whose
/// location is not one of the schedule's cities, and std::invalid_argument
/// (trace::TimeOrderCheck) on a NaN or negative timestamp, one earlier
/// than the request before it, or one at or past the schedule's horizon,
/// also across chunks; the workers are shut down and joined either way.
[[nodiscard]] ReplayReport replay_cluster(
    const orbit::Constellation& constellation,
    const sched::LinkSchedule& schedule, trace::RequestStream& stream,
    const ReplayConfig& config);

}  // namespace starcdn::replay
