// WorkloadModel::generate_stream — the bounded-memory, parallel generator
// behind the streaming trace pipeline (DESIGN.md §12).
//
// The contract is bitwise identity with merge_by_time(generate()): same
// requests, same global order, for any chunk size and thread count. Both
// paths draw minute-major (trace/minute_order.h): a city's trace is its
// (city, minute) cells in minute order, each cell drawn from an RNG of its
// own and sorted by timestamp, and every timestamp lies inside its cell's
// minute. The merged trace is therefore, minute by minute, the (timestamp,
// city) merge of that minute's cells, and each minute can be produced on
// its own:
//
//   1. Counting pass, once, parallel over cities: each city's RNG draws
//      every request's minute, which fixes the size of every cell.
//   2. Per next(): first the tail of a minute the previous block had no
//      room for, then the next whole minutes until the block is full.
//      Their cells are drawn in parallel, one task per (city, minute),
//      into a scratch buffer at offsets the counts fix: minute by minute,
//      city by city.
//   3. Each minute is stable-sorted by timestamp (sort_by_time, expected
//      linear time) and written straight into the block's columns.
//      Sorting a minute's cells together in city order is merging them by
//      (timestamp, city) — merge_by_time's exact tie-break. A dense minute
//      is cut into time slices of about kSliceRequests draws, so the sort
//      runs in parallel over slices, not just over minutes. The part of
//      the last minute that does not fit is kept for the next block.
//
// Every request is drawn exactly once, so generation is O(requests), and
// the generator holds O(chunk + one minute) of draws. The work of a next()
// runs wherever the caller pulls: in Simulator::run that is the double
// buffer's producer slot, concurrent with the replay of the previous block.
// Both steps are traced (category "trace"): one generate_count span, and
// one generate_window span per fill with its request and minute counts.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "obs/tracer.h"
#include "trace/minute_order.h"
#include "trace/stream.h"
#include "trace/workload.h"
#include "util/parallel.h"
#include "util/units.h"

namespace starcdn::trace {

class WorkloadStream final : public RequestStream {
 public:
  WorkloadStream(const WorkloadModel& model, StreamParams sp)
      : model_(&model),
        chunk_(std::max<std::size_t>(1, sp.chunk_requests)),
        cities_(model.cities().size()),
        counts_(cities_),
        minute_total_(model.minute_count(), 0) {
    for (std::size_t c = 0; c < cities_; ++c) {
      total_ += model.city_request_count(c);
    }
    const obs::TraceSpan span(obs::tracer(), "generate_count", "trace",
                              {obs::arg("requests", total_)});
    util::parallel_for(cities_, [&](std::size_t c) {
      counts_[c] = model.minute_counts(c);
    });
    for (const auto& counts : counts_) {
      for (std::size_t m = 0; m < counts.size(); ++m) {
        minute_total_[m] += counts[m];
      }
    }
  }

  [[nodiscard]] bool next(RequestBlock& out) override {
    out.clear();
    if (emitted_ >= total_) return false;
    const auto want = static_cast<std::size_t>(
        std::min<std::uint64_t>(chunk_, total_ - emitted_));
    const std::size_t carried = std::min(want, held_.count() - held_pos_);
    append(out, held_, held_pos_, carried);
    held_pos_ += carried;
    if (out.count() < want) fill(out, want);
    emitted_ += want;
    return true;
  }

  [[nodiscard]] std::optional<std::uint64_t> size_hint() const override {
    return total_;
  }

 private:
  using Draw = WorkloadModel::Draw;

  /// Slice `index` of `of` equal time slices of minute first + `minute` of
  /// the current fill.
  struct Slice {
    std::size_t minute;
    std::size_t index;
    std::size_t of;
  };
  static constexpr std::size_t kSliceRequests = 4096;

  /// Slices of minute first + `i` of the current fill.
  [[nodiscard]] std::size_t slices_in(std::size_t i) const {
    const std::size_t n =
        cell_start_[(i + 1) * cities_] - cell_start_[i * cities_];
    return std::max<std::size_t>(1, (n + kSliceRequests - 1) / kSliceRequests);
  }

  /// Writes a slice's draws, in (timestamp, city) order, to their place in
  /// `out`. The cells of a minute with several slices are sorted, so binary
  /// searches find each cell's part of the slice and how many of its draws
  /// come before it; a one-slice minute's bounds are ±∞, so it takes its
  /// cells whole, sorted or not. Gathered in city order, each part in
  /// draw order or already in time order, the slice's stable sort by
  /// timestamp is their (timestamp, city) merge — merge_by_time's exact
  /// tie-break — and every draw of a later slice is later in time.
  void merge_slice(const Slice& sl, std::size_t first, RequestBlock& out,
                   std::size_t base) const {
    const double width = util::kMinute.value() / static_cast<double>(sl.of);
    const double start =
        static_cast<double>(first + sl.minute) * util::kMinute.value() +
        static_cast<double>(sl.index) * width;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double lo = sl.index == 0 ? -kInf : start;
    const double hi = sl.index + 1 == sl.of ? kInf : start + width;
    const auto earlier = [](const Draw& d, double t) { return d.ts < t; };
    std::vector<std::span<const Draw>> parts(cities_);
    std::size_t n = 0;
    // Output position: the minute's start plus its draws before the slice.
    std::size_t at = base + cell_start_[sl.minute * cities_];
    for (std::size_t c = 0; c < cities_; ++c) {
      const std::size_t k = sl.minute * cities_ + c;
      const auto cell = std::span<const Draw>(draws_).subspan(
          cell_start_[k], cell_start_[k + 1] - cell_start_[k]);
      const auto from = std::lower_bound(cell.begin(), cell.end(), lo, earlier);
      const auto to = std::lower_bound(from, cell.end(), hi, earlier);
      at += static_cast<std::size_t>(from - cell.begin());
      parts[c] = {from, to};
      n += parts[c].size();
    }
    std::vector<Draw> merged;
    merged.reserve(n);
    for (const auto part : parts) {
      merged.insert(merged.end(), part.begin(), part.end());
    }
    detail::sort_by_time(std::span(merged), start, width);
    for (const Draw& d : merged) {
      out.timestamp_s[at] = d.ts;
      out.object[at] = d.object;
      out.size[at] = d.size;
      out.location[at] = d.city;
      ++at;
    }
  }

  /// Appends src[from, from + n) to out, column by column.
  static void append(RequestBlock& out, const RequestBlock& src,
                     std::size_t from, std::size_t n) {
    const auto copy = [&](auto& dst, const auto& col) {
      dst.insert(dst.end(), col.begin() + static_cast<std::ptrdiff_t>(from),
                 col.begin() + static_cast<std::ptrdiff_t>(from + n));
    };
    copy(out.timestamp_s, src.timestamp_s);
    copy(out.object, src.object);
    copy(out.size, src.size);
    copy(out.location, src.location);
  }

  /// Draws the whole minutes that fill `out` up to `want` requests and
  /// keeps what overflows for the next block.
  void fill(RequestBlock& out, std::size_t want) {
    obs::TraceSpan span(obs::tracer(), "generate_window", "trace");
    const std::size_t base = out.count();
    const std::size_t first = next_minute_;
    std::size_t drawn = 0;
    while (base + drawn < want && next_minute_ < minute_total_.size()) {
      drawn += minute_total_[next_minute_++];
    }
    const std::size_t minutes = next_minute_ - first;

    // Cell k = (minute first + k / cities, city k % cities).
    const std::size_t cells = minutes * cities_;
    cell_start_.resize(cells + 1);
    std::size_t acc = 0;
    for (std::size_t k = 0; k < cells; ++k) {
      cell_start_[k] = acc;
      acc += counts_[k % cities_][first + k / cities_];
    }
    cell_start_[cells] = acc;
    draws_.resize(acc);
    util::parallel_for(cells, [&](std::size_t k) {
      const std::size_t n = cell_start_[k + 1] - cell_start_[k];
      if (n == 0) return;
      const std::size_t minute = first + k / cities_;
      const auto cell = std::span(draws_).subspan(cell_start_[k], n);
      model_->draw_cell(k % cities_, minute, 0, cell);
      if (slices_in(k / cities_) > 1) {
        detail::sort_by_time(
            cell, static_cast<double>(minute) * util::kMinute.value(),
            util::kMinute.value());
      }
    });

    // Merge minute by minute, each minute cut into time slices of about
    // kSliceRequests draws so that a dense minute still spreads over the
    // pool. Every slice is independent of the others.
    slices_.clear();
    for (std::size_t i = 0; i < minutes; ++i) {
      const std::size_t of = slices_in(i);
      for (std::size_t s = 0; s < of; ++s) slices_.push_back({i, s, of});
    }
    out.resize(base + acc);
    util::parallel_for(slices_.size(), [&](std::size_t t) {
      merge_slice(slices_[t], first, out, base);
    });

    held_.clear();
    held_pos_ = 0;
    if (out.count() > want) {
      append(held_, out, want, out.count() - want);
      out.resize(want);
    }
    span.set_args({obs::arg("requests", static_cast<std::uint64_t>(acc)),
                   obs::arg("minutes", static_cast<std::uint64_t>(minutes))});
  }

  const WorkloadModel* model_;
  std::size_t chunk_;
  std::size_t cities_;
  std::vector<std::vector<std::uint32_t>> counts_;  // [city][minute]
  std::vector<std::uint64_t> minute_total_;         // summed over cities
  std::uint64_t total_ = 0;
  std::uint64_t emitted_ = 0;
  std::size_t next_minute_ = 0;  // first minute not yet drawn
  RequestBlock held_;            // drawn, not yet emitted: one minute's tail
  std::size_t held_pos_ = 0;
  std::vector<std::size_t> cell_start_;  // cell k is [start[k], start[k+1])
  std::vector<Draw> draws_;              // the current fill's cells
  std::vector<Slice> slices_;            // the current fill's merge tasks
};

std::unique_ptr<RequestStream> WorkloadModel::generate_stream(
    const StreamParams& sp) const {
  return std::make_unique<WorkloadStream>(*this, sp);
}

}  // namespace starcdn::trace
