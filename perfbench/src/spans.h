// Span harvest: reads back what an installed obs::Tracer recorded.
//
// The tracer's chrome-trace JSON is parsed into flat records, and the
// benchmark's per-layer numbers are sums over the spans the simulator
// already emits (stage1_context, one span per variant replay,
// Simulator::run/finish, spawn_cluster, cluster_shutdown). No span is
// added inside the program for this.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/tracer.h"
#include "timing_stream.h"

namespace perfbench {

struct Span {
  std::string name;
  std::string cat;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
};

/// A time range on the tracer clock; spans count when they start inside.
struct Window {
  std::int64_t begin_us = 0;
  std::int64_t end_us = 0;
  [[nodiscard]] bool contains(const Span& s) const noexcept {
    return s.ts_us >= begin_us && s.ts_us <= end_us;
  }
};

/// Complete ('X') events of the tracer, parsed back from its JSON output.
/// Throws std::runtime_error when the JSON does not parse.
[[nodiscard]] std::vector<Span> harvest(const starcdn::obs::Tracer& tracer);

/// Seconds covered by spans of `name` that start inside `w`.
[[nodiscard]] double span_seconds(const std::vector<Span>& spans,
                                  std::string_view name, const Window& w);

/// Time the variant workers of one streamed Simulator::run waited for the
/// producer slot. Iteration k of the double buffer replays chunk k in every
/// variant while the producer pulls chunk k+1 and builds its stage-1
/// context, so the wait of iteration k is
///   max(0, pull[k+1] + stage1[k+1] - longest variant span k),
/// summed over the run. `pulls` are the run's next() calls in order.
[[nodiscard]] double producer_wait_seconds(
    const std::vector<Span>& spans, const Window& w,
    const std::vector<TimingStream::Pull>& pulls);

}  // namespace perfbench
