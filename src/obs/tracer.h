// Structured event tracer in Chrome trace-event JSON (DESIGN.md §11).
//
// Records complete spans (simulator phases, per-variant replays, schedule
// construction) and instant events (epoch boundaries, failure remaps) into
// an in-memory buffer, exported as the chrome://tracing / Perfetto JSON
// object format: {"traceEvents":[...],"displayTimeUnit":"ms"}. Open the
// file at https://ui.perfetto.dev to see the run's phase structure and
// thread-level parallelism.
//
// The tracer observes wall clock and phase structure only — it never
// influences simulation state, so results are bitwise identical with
// tracing on or off. Event appends are mutex-protected (spans fire at
// phase granularity, not per request). Install a tracer process-wide with
// set_tracer(); all instrumentation points no-op on a null tracer.
//
// TraceSpan is the codebase's only timing scope. The hot-path profile
// table is a view of the recorded spans (Tracer::profile()), so timing a
// phase never needs a second instrument or a special build.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace starcdn::obs {

/// One trace-event arg; `quoted` distinguishes JSON strings from numbers.
struct TraceArg {
  std::string key;
  std::string value;
  bool quoted = true;
};

[[nodiscard]] TraceArg arg(std::string key, std::string value);
[[nodiscard]] TraceArg arg(std::string key, const char* value);
[[nodiscard]] TraceArg arg(std::string key, std::uint64_t value);
[[nodiscard]] TraceArg arg(std::string key, std::int64_t value);
[[nodiscard]] TraceArg arg(std::string key, double value);

struct TraceEvent {
  std::string name;
  const char* cat = "";
  char ph = 'X';            ///< 'X' complete, 'i' instant
  std::int64_t ts_us = 0;   ///< since tracer construction
  std::int64_t dur_us = 0;  ///< complete events only
  std::uint32_t tid = 0;
  std::vector<TraceArg> args;
};

/// One span name's aggregate over a tracer's complete events.
struct ProfileEntry {
  std::string name;
  std::uint64_t calls = 0;
  double total_ms = 0.0;
  double max_ms = 0.0;

  [[nodiscard]] double mean_ms() const noexcept {
    return calls != 0 ? total_ms / static_cast<double>(calls) : 0.0;
  }
};

struct ProfileReport {
  std::vector<ProfileEntry> entries;  ///< folded by name, name-sorted

  /// Aligned hot-path table, sorted by total time descending.
  void print(std::ostream& os) const;
};

class Tracer {
 public:
  Tracer();

  /// Microseconds since this tracer was constructed.
  [[nodiscard]] std::int64_t now_us() const noexcept;

  /// Record a complete ('X') event covering [ts_us, ts_us + dur_us).
  void complete(std::string name, const char* cat, std::int64_t ts_us,
                std::int64_t dur_us, std::vector<TraceArg> args = {});
  /// Record an instant ('i') event at the current time.
  void instant(std::string name, const char* cat,
               std::vector<TraceArg> args = {});

  [[nodiscard]] std::size_t events() const;

  /// Complete ('X') events folded by name into calls / total / mean / max;
  /// instants are ignored. Entries are name-sorted, so the shape is
  /// deterministic even though the timings are not.
  [[nodiscard]] ProfileReport profile() const;

  void write_json(std::ostream& os) const;
  /// Returns false (and logs nothing) when the file cannot be opened.
  bool write_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::int64_t origin_ns_ = 0;
};

/// Process-wide tracer installation; nullptr disables tracing. The tracer
/// is not owned — the installer keeps it alive past the last traced call.
void set_tracer(Tracer* t) noexcept;
[[nodiscard]] Tracer* tracer() noexcept;

/// RAII complete-event span; no-ops on a null tracer, so call sites write
/// `TraceSpan span(tracer(), "Simulator::run", "core");` unconditionally.
class TraceSpan {
 public:
  TraceSpan(Tracer* t, const char* name, const char* cat,
            std::vector<TraceArg> args = {}) noexcept;
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attach/replace args after construction (e.g. result counts).
  void set_args(std::vector<TraceArg> args);

 private:
  Tracer* tracer_;
  const char* name_;
  const char* cat_;
  std::int64_t start_us_ = 0;
  std::vector<TraceArg> args_;
};

}  // namespace starcdn::obs
