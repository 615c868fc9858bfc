// Run reports and metric sinks: the simulator's output API (DESIGN.md §11).
//
// During a run every scalar counter lives in one place: a per-variant
// obs::Shard, updated through the CoreMetricIds handles below. Nothing
// mirrors it while the run is in progress. Simulator::finish() converts
// each shard into VariantReport::metrics (shard_to_metrics, its one
// caller), so results are read from the report, never from the Simulator:
//
//   sim.run(stream);
//   const RunReport report = sim.finish();
//   report.variant(Variant::kStarCdn).metrics.uplink_bytes;
//
// The pieces:
//
//   * RunReport       — self-contained result of a run: per-variant
//                       metrics + epoch time-series + counter snapshots
//                       and fleet totals. Survives the Simulator that
//                       produced it. Timings are not part of it: they
//                       live in the obs::Tracer (Tracer::profile()).
//   * MetricsSink     — consumer interface; register sinks with
//                       Simulator::add_sink() and they fire on finish().
//   * SeriesCsvSink / SummarySink / TraceJsonSink — stock sinks covering
//                       the bench harness and examples.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "core/variant.h"
#include "obs/registry.h"
#include "obs/series.h"

namespace starcdn::core {

/// Handles for every scalar counter the replay hot path updates. Issued
/// once per Simulator by register_core_metrics().
struct CoreMetricIds {
  obs::CounterId requests;
  obs::CounterId local_hits;
  obs::CounterId routed_hits;
  obs::CounterId relay_west_hits;
  obs::CounterId relay_east_hits;
  obs::CounterId misses;
  obs::CounterId unreachable;
  obs::CounterId transient_misses;
  obs::CounterId handovers;

  obs::CounterId bytes_requested;
  obs::CounterId bytes_hit;
  obs::CounterId uplink_bytes;
  obs::CounterId isl_bytes;
  obs::CounterId prefetch_bytes;

  obs::CounterId relay_west_only_requests;
  obs::CounterId relay_east_only_requests;
  obs::CounterId relay_both_requests;
  obs::CounterId relay_west_only_bytes;
  obs::CounterId relay_east_only_bytes;
  obs::CounterId relay_both_bytes;
};

/// Register the core schema into `registry` and hand back the handles.
[[nodiscard]] CoreMetricIds register_core_metrics(obs::Registry& registry);

/// The counters recorded per scheduler epoch by the EpochSeries (the
/// ingredients of hit-rate / uplink / handover time-series).
[[nodiscard]] std::vector<obs::CounterId> core_series_columns(
    const CoreMetricIds& ids);

/// Copy a shard's cumulative counters into the VariantMetrics scalar
/// fields. Simulator::finish() is the one place a run's counters become
/// VariantReport::metrics.
void shard_to_metrics(const CoreMetricIds& ids, const obs::Shard& shard,
                      VariantMetrics& m);

/// Derived per-epoch rate columns (request/byte hit rate, normalized
/// uplink) for exporting a core series table.
[[nodiscard]] std::vector<obs::SeriesTable::Derived> core_series_derived(
    const obs::SeriesTable& table);

/// One variant's share of a run, fully materialized.
struct VariantReport {
  Variant variant = Variant::kStarCdn;
  std::string name;          ///< to_string(variant)
  /// Counters from the variant's shard plus the latency sampler, uplink
  /// meter and per-satellite arrays the shard cannot hold.
  VariantMetrics metrics;
  obs::SeriesTable series;   ///< per-epoch counters; empty when disabled
  /// Registry counter snapshot (name, cumulative value) in registration
  /// order — the raw data behind `metrics`.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// Self-contained result of a simulator run; outlives the Simulator.
struct RunReport {
  double epoch_seconds = 15.0;
  std::uint64_t seed = 0;
  std::vector<VariantReport> variants;
  /// Deterministic cross-variant totals (shards merged in registration
  /// order).
  std::vector<std::pair<std::string, std::uint64_t>> totals;

  [[nodiscard]] const VariantReport* find(Variant v) const noexcept;
  /// Throws std::out_of_range when the variant was not registered.
  [[nodiscard]] const VariantReport& variant(Variant v) const;

  /// Epoch time-series CSV for one variant, with derived rate columns.
  void write_series_csv(Variant v, std::ostream& os) const;
  /// One `<prefix><variant-name>.csv` per variant; returns written paths.
  std::vector<std::string> write_series_csv_files(
      const std::string& prefix) const;
  /// Aligned per-variant summary table.
  void write_summary(std::ostream& os) const;
  /// Whole report as one JSON object (counters, summary rates, series).
  void write_json(std::ostream& os) const;
};

/// Consumer of a finished run; register via Simulator::add_sink(). Sinks
/// are invoked in registration order from Simulator::finish().
class MetricsSink {
 public:
  virtual ~MetricsSink() = default;
  virtual void consume(const RunReport& report) = 0;
};

/// Prints RunReport::write_summary to a stream on finish().
class SummarySink final : public MetricsSink {
 public:
  explicit SummarySink(std::ostream& os) : os_(&os) {}
  void consume(const RunReport& report) override;

 private:
  std::ostream* os_;
};

/// Writes one epoch-series CSV per variant: `<prefix><variant-name>.csv`.
class SeriesCsvSink final : public MetricsSink {
 public:
  explicit SeriesCsvSink(std::string prefix) : prefix_(std::move(prefix)) {}
  void consume(const RunReport& report) override;
  [[nodiscard]] const std::vector<std::string>& paths() const noexcept {
    return paths_;
  }

 private:
  std::string prefix_;
  std::vector<std::string> paths_;
};

/// Flushes the process-wide obs::Tracer (if installed) to a JSON file.
class TraceJsonSink final : public MetricsSink {
 public:
  explicit TraceJsonSink(std::string path) : path_(std::move(path)) {}
  void consume(const RunReport& report) override;
  /// True once a trace file was actually written.
  [[nodiscard]] bool written() const noexcept { return written_; }

 private:
  std::string path_;
  bool written_ = false;
};

}  // namespace starcdn::core
