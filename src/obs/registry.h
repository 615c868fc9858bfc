// Deterministic metrics registry (DESIGN.md §11).
//
// A Registry is the *schema*: named counters, gauges and histograms are
// registered once at setup time, each handing back a small index handle.
// Values live in Shards — flat arrays aligned to the schema — owned one
// per worker (the simulator keeps one per variant), so a hot-path update
// is a single unsynchronized array add through the handle. merge() folds
// shards in caller order; as long as the shard *list* is deterministic
// (the simulator passes variants in registration order), the merged values
// are bitwise identical for any thread count.
//
// Registration is mutex-protected so setup code may race; create Shards
// only after the schema is complete (Shard sizes are frozen at
// construction, and updating a metric registered later is checked by
// assert in debug builds).
#pragma once

#include <cassert>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace starcdn::obs {

enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* to_string(Kind k) noexcept;

/// Handles are plain indices into a Shard's per-kind value arrays; they are
/// meaningful only together with the Registry that issued them.
struct CounterId {
  std::uint32_t index = 0;
};
struct GaugeId {
  std::uint32_t index = 0;
};
struct HistogramId {
  std::uint32_t index = 0;
};

struct MetricDesc {
  std::string name;
  std::string help;
  std::string unit;
  Kind kind = Kind::kCounter;
  std::uint32_t slot = 0;      ///< index within the kind's value array
  std::vector<double> bounds;  ///< histogram upper bounds (ascending)
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Register (or re-fetch, by name) a monotonically increasing counter.
  CounterId counter(std::string name, std::string help, std::string unit = "");
  /// Register a last-write-wins gauge.
  GaugeId gauge(std::string name, std::string help, std::string unit = "");
  /// Register a histogram with ascending bucket upper bounds; an implicit
  /// +inf bucket is appended. Throws std::invalid_argument on unsorted
  /// bounds or a name collision with a different kind.
  HistogramId histogram(std::string name, std::string help,
                        std::vector<double> bounds, std::string unit = "");

  /// All descriptors in registration order.
  [[nodiscard]] const std::vector<MetricDesc>& descriptors() const noexcept {
    return descriptors_;
  }
  [[nodiscard]] std::optional<MetricDesc> find(
      const std::string& name) const;

  [[nodiscard]] std::size_t counters() const noexcept { return n_counters_; }
  [[nodiscard]] std::size_t gauges() const noexcept { return n_gauges_; }
  [[nodiscard]] std::size_t histograms() const noexcept {
    return n_histograms_;
  }

  /// Name of a counter handle (for series headers and exports).
  [[nodiscard]] const std::string& name_of(CounterId id) const;

 private:
  const MetricDesc* lookup(const std::string& name, Kind kind) const;

  mutable std::mutex mu_;
  std::vector<MetricDesc> descriptors_;
  std::uint32_t n_counters_ = 0;
  std::uint32_t n_gauges_ = 0;
  std::uint32_t n_histograms_ = 0;
};

/// Histogram value state inside a Shard.
struct HistogramCells {
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 cells
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// One worker's value storage, aligned to a Registry's schema. Updates are
/// unsynchronized — each Shard must be owned by exactly one thread at a
/// time (the merge step runs after workers join).
class Shard {
 public:
  Shard() = default;
  explicit Shard(const Registry& registry);

  void add(CounterId c, std::uint64_t n = 1) noexcept {
    assert(c.index < counters_.size());
    counters_[c.index] += n;
  }
  void set(GaugeId g, double v) noexcept {
    assert(g.index < gauges_.size());
    gauges_[g.index] = v;
    gauge_set_[g.index] = 1;
  }
  void observe(HistogramId h, double x) noexcept;

  [[nodiscard]] std::uint64_t value(CounterId c) const noexcept {
    assert(c.index < counters_.size());
    return counters_[c.index];
  }
  [[nodiscard]] double value(GaugeId g) const noexcept {
    assert(g.index < gauges_.size());
    return gauges_[g.index];
  }
  [[nodiscard]] const HistogramCells& cells(HistogramId h) const noexcept {
    assert(h.index < histograms_.size());
    return histograms_[h.index];
  }

  /// Fold `other` into this shard: counters and histogram cells add;
  /// gauges take `other`'s value when it was set there (last-writer-wins
  /// in merge order).
  void merge_from(const Shard& other);

  [[nodiscard]] bool empty() const noexcept { return counters_.empty(); }

 private:
  friend class Registry;
  std::vector<std::uint64_t> counters_;
  std::vector<double> gauges_;
  std::vector<std::uint8_t> gauge_set_;
  std::vector<HistogramCells> histograms_;
  std::vector<std::vector<double>> bounds_;  ///< histogram bounds per slot
};

/// Merge shards in argument order into a fresh snapshot shard. The order is
/// the determinism contract: callers must pass a deterministically ordered
/// list (e.g. variant registration order), never thread-completion order.
[[nodiscard]] Shard merge(const Registry& registry,
                          const std::vector<const Shard*>& shards);

/// name,kind,unit,value rows (histograms expand to _count/_sum/_bucket).
void write_csv(const Registry& registry, const Shard& shard,
               std::ostream& os);
/// Single JSON object keyed by metric name.
void write_json(const Registry& registry, const Shard& shard,
                std::ostream& os);

}  // namespace starcdn::obs
