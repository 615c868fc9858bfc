// Per-minute placement: SpaceGEN draws in stable timestamp order without a
// whole-buffer sort (DESIGN.md §12). Internal to src/trace.
//
// generate_city and the streaming generator both emit a city's draws in
// std::stable_sort-by-timestamp order. A draw's timestamp falls in its
// diurnal minute, so that order is nearly a bucket order already: draws are
// scattered into minute buckets (stable, so draw order survives inside a
// bucket) and each bucket is then stable-sorted on its own.
//
// The bucket key is minute_key of the *final* timestamp — after the
// end-of-day clamp and after rounding, which can carry a draw onto the next
// minute's first instant. The key is monotone non-decreasing in the
// timestamp, so a lower key implies a strictly earlier timestamp: bucket
// order never contradicts time order, and equal timestamps always share a
// bucket. Scatter plus per-bucket stable sort is therefore exactly the
// global stable sort, ties included, with no assumption about where draws
// land.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/units.h"

namespace starcdn::trace::detail {

/// A request's timestamp from its diurnal minute and intra-minute fraction
/// in [0, 1), clamped to end before the trace does. Every generation path
/// uses this one formula, so they agree bit for bit.
[[nodiscard]] inline double draw_timestamp(std::size_t minute,
                                           double fraction,
                                           double clamp_s) noexcept {
  return std::min(clamp_s, (static_cast<double>(minute) + fraction) *
                               util::kMinute.value());
}

/// Bucket key of a final timestamp: its minute, clamped into
/// [0, minutes). Monotone non-decreasing in ts (NaN maps to the last
/// minute).
[[nodiscard]] inline std::size_t minute_key(double ts,
                                            std::size_t minutes) noexcept {
  const double m = ts / util::kMinute.value();
  const std::size_t last = minutes - 1;
  if (!(m < static_cast<double>(last))) return last;
  if (m < 1.0) return 0;
  return static_cast<std::size_t>(m);
}

/// Stable counting scatter over buckets [0, counts.size()), counts[b]
/// items each: place(b) hands out bucket b's next slot, so items placed in
/// draw order keep it inside their bucket; sort_buckets then orders each
/// bucket by timestamp.
class MinuteScatter {
 public:
  explicit MinuteScatter(std::span<const std::uint32_t> counts)
      : start_(counts.size() + 1), next_(counts.size()) {
    std::size_t acc = 0;
    for (std::size_t b = 0; b < counts.size(); ++b) {
      start_[b] = next_[b] = acc;
      acc += counts[b];
    }
    start_.back() = acc;
  }

  /// Items the counts announce; the destination must hold this many.
  [[nodiscard]] std::size_t size() const noexcept { return start_.back(); }

  [[nodiscard]] std::size_t place(std::size_t bucket) noexcept {
    return next_[bucket]++;
  }

  template <typename T, typename TsOf>
  void sort_buckets(T* items, TsOf ts_of) const {
    for (std::size_t b = 0; b + 1 < start_.size(); ++b) {
      std::stable_sort(items + start_[b], items + start_[b + 1],
                       [&ts_of](const T& x, const T& y) {
                         return ts_of(x) < ts_of(y);
                       });
    }
  }

 private:
  std::vector<std::size_t> start_;  // bucket b is [start_[b], start_[b+1])
  std::vector<std::size_t> next_;
};

/// Exactly std::stable_sort(items, by timestamp), as a minute scatter plus
/// per-minute sorts. `minutes` is the trace's minute count.
template <typename T, typename TsOf>
void stable_sort_by_minute(std::vector<T>& items, std::size_t minutes,
                           TsOf ts_of) {
  std::vector<std::uint32_t> counts(minutes, 0);
  for (const T& x : items) ++counts[minute_key(ts_of(x), minutes)];
  MinuteScatter scatter(counts);
  std::vector<T> placed(items.size());
  for (const T& x : items) {
    placed[scatter.place(minute_key(ts_of(x), minutes))] = x;
  }
  scatter.sort_buckets(placed.data(), ts_of);
  items.swap(placed);
}

}  // namespace starcdn::trace::detail
