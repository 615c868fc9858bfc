// Byte-capacity object cache interface and shared statistics.
//
// CDN caches are sized in bytes, not objects (§2.2): an eviction may need
// to remove many small objects to admit one large one. All policies below
// implement this interface; StarCDN's consistent hashing composes with any
// of them (§3.2 explicitly supports LRU/LFU/SIEVE/...).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/units.h"

namespace starcdn::cache {

using ObjectId = std::uint64_t;
using util::Bytes;

enum class Policy : std::uint8_t { kLru, kLfu, kFifo, kSieve, kSlru, kGdsf };

[[nodiscard]] const char* to_string(Policy p) noexcept;
/// Parse "lru"/"lfu"/"fifo"/"sieve"/"slru"/"gdsf"; throws on unknown names.
[[nodiscard]] Policy parse_policy(const std::string& name);

/// Hit/miss counters; request hit rate and byte hit rate as defined in §2.2.
struct CacheStats {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  Bytes bytes_requested = 0;
  Bytes bytes_hit = 0;
  std::uint64_t evictions = 0;

  [[nodiscard]] double request_hit_rate() const noexcept {
    return requests ? static_cast<double>(hits) / static_cast<double>(requests)
                    : 0.0;
  }
  [[nodiscard]] double byte_hit_rate() const noexcept {
    return bytes_requested ? static_cast<double>(bytes_hit) /
                                 static_cast<double>(bytes_requested)
                           : 0.0;
  }
  void merge(const CacheStats& o) noexcept {
    requests += o.requests;
    hits += o.hits;
    bytes_requested += o.bytes_requested;
    bytes_hit += o.bytes_hit;
    evictions += o.evictions;
  }
};

enum class AccessResult : std::uint8_t {
  kHit,           // object was cached; recency/frequency state updated
  kMissInserted,  // object was fetched and admitted
  kMissTooLarge,  // object exceeds capacity; served but never admitted
};

class Cache {
 public:
  explicit Cache(Bytes capacity) noexcept : capacity_(capacity) {}
  virtual ~Cache() = default;

  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  /// Presence check with NO side effects (relayed-fetch probes must not
  /// perturb the neighbour's eviction state).
  [[nodiscard]] virtual bool peek(ObjectId id) const = 0;

  /// Hit path: if present, update policy state and return true.
  virtual bool touch(ObjectId id) = 0;

  /// Admit an object of `size` bytes, evicting as needed. Objects larger
  /// than the capacity are ignored. Re-admitting a resident object is a
  /// no-op apart from a touch.
  virtual void admit(ObjectId id, Bytes size) = 0;

  virtual void erase(ObjectId id) = 0;
  virtual void clear() = 0;

  /// Pre-size internal storage (entry slab + hash index) for roughly
  /// `expected_objects` simultaneously-resident objects, so a warm cache
  /// never reallocates on the serving path. Purely a performance hint:
  /// behaviour is identical with or without it, and the cache still grows
  /// past the hint if the workload needs it.
  virtual void reserve(std::size_t expected_objects) = 0;

  /// Up to `n` of the policy's best-retained objects with their sizes —
  /// most-recent for LRU/FIFO/SIEVE, most-frequent for LFU, protected head
  /// for SLRU. Powers the proactive-prefetch baseline (§3.3 of the paper:
  /// a satellite entering a region pulls the neighbour's hot set).
  [[nodiscard]] virtual std::vector<std::pair<ObjectId, Bytes>> hottest(
      std::size_t n) const = 0;

  /// The canonical CDN access path: touch, and on miss admit. Updates the
  /// built-in counters either way.
  AccessResult access(ObjectId id, Bytes size);

  [[nodiscard]] Bytes capacity() const noexcept { return capacity_; }
  [[nodiscard]] Bytes used_bytes() const noexcept { return used_; }
  [[nodiscard]] std::size_t object_count() const noexcept { return count_; }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

  [[nodiscard]] virtual Policy policy() const noexcept = 0;

 protected:
  // Bookkeeping helpers for derived policies.
  void note_admit(Bytes size) noexcept {
    used_ += size;
    ++count_;
  }
  void note_evict(Bytes size) noexcept {
    used_ -= size;
    --count_;
    ++stats_.evictions;
  }
  void note_erase(Bytes size) noexcept {
    used_ -= size;
    --count_;
  }
  void reset_usage() noexcept {
    used_ = 0;
    count_ = 0;
  }

 private:
  Bytes capacity_;
  Bytes used_ = 0;
  std::size_t count_ = 0;
  CacheStats stats_;
};

/// Resident-object estimate for Cache::reserve: capacity over a mean-object
/// size hint, clamped to 2^20 entries so a pathological hint cannot demand
/// gigabytes of arena up front. Returns 0 (no pre-sizing) when the hint is 0.
[[nodiscard]] std::size_t presize_hint(Bytes capacity,
                                       Bytes mean_object_size) noexcept;

/// Factory covering all built-in policies. A non-zero `expected_objects`
/// pre-sizes the policy's slab and index (see Cache::reserve); callers
/// typically derive it via presize_hint().
[[nodiscard]] std::unique_ptr<Cache> make_cache(Policy policy, Bytes capacity,
                                                std::size_t expected_objects = 0);

}  // namespace starcdn::cache
