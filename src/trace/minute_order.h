// Minute-major SpaceGEN draw order (DESIGN.md §12). Internal to src/trace.
//
// A city's trace is drawn in two steps. The counting pass draws only each
// request's diurnal minute, from the city's RNG. Each (city, minute) cell
// then draws its requests' objects and intra-minute offsets from an RNG of
// its own, seeded by (seed, city, minute). draw_timestamp keeps every draw
// strictly inside its minute, so a draw's minute is its cell: a city's
// trace is its cells, each stable-sorted by timestamp, in minute order, and
// any range of minutes can be drawn without the others. generate_city and
// the streaming generator both draw through this order, which is what keeps
// them bitwise identical; sort_by_time is the stable sort both use.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/units.h"

namespace starcdn::trace::detail {

/// A request's timestamp from its diurnal minute and intra-minute fraction
/// in [0, 1), clamped to end before the trace does. The result lies in
/// [minute·60, (minute+1)·60): when rounding carries (minute + fraction)·60
/// onto the next minute's first instant, the draw takes the last double
/// before it instead. The end-of-day clamp keeps the last minute's draws in
/// that minute too, because the trace's minutes end at least 60 s before
/// its end (for a trace of at least 1 ms).
[[nodiscard]] inline double draw_timestamp(std::size_t minute,
                                           double fraction,
                                           double clamp_s) noexcept {
  const double start = static_cast<double>(minute) * util::kMinute.value();
  const double end = start + util::kMinute.value();
  const double ts =
      (static_cast<double>(minute) + fraction) * util::kMinute.value();
  return std::min(clamp_s, ts < end ? ts : std::nextafter(end, start));
}

/// Exactly std::stable_sort(items, by .ts): equal timestamps keep their
/// order. A stable scatter into n buckets keyed by the timestamp, then one
/// stable insertion pass. Equal timestamps share a key, so the scatter
/// keeps their order and the result is the stable sort for any key. The
/// key ⌊(ts − start_s) · n / width_s⌋, clamped into [0, n), is also
/// monotone in ts, so inversions stay inside buckets; for timestamps spread
/// evenly over [start_s, start_s + width_s), as a minute's draws are, a
/// bucket holds about one item and the sort takes expected linear time.
template <typename T>
void sort_by_time(std::span<T> items, double start_s, double width_s) {
  const std::size_t n = items.size();
  if (n < 2) return;
  const double per_second = static_cast<double>(n) / width_s;
  const auto key = [&](const T& x) -> std::size_t {
    const double k = (x.ts - start_s) * per_second;
    if (!(k > 0.0)) return 0;
    return k < static_cast<double>(n) ? static_cast<std::size_t>(k) : n - 1;
  };
  std::vector<std::uint32_t> next(n + 1, 0);
  for (const T& x : items) ++next[key(x) + 1];
  for (std::size_t b = 1; b <= n; ++b) next[b] += next[b - 1];
  std::vector<T> placed(n);
  for (const T& x : items) placed[next[key(x)]++] = x;
  for (std::size_t i = 1; i < n; ++i) {
    const T x = placed[i];
    std::size_t j = i;
    for (; j > 0 && x.ts < placed[j - 1].ts; --j) placed[j] = placed[j - 1];
    placed[j] = x;
  }
  std::copy(placed.begin(), placed.end(), items.begin());
}

}  // namespace starcdn::trace::detail
