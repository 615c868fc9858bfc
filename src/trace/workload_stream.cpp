// WorkloadModel::generate_stream — the bounded-memory, parallel generator
// behind the streaming trace pipeline (DESIGN.md §12).
//
// The contract is bitwise identity with merge_by_time(generate()): same
// requests, same global order, for any chunk/window size and thread count.
// generate_city draws each request with exactly three RNG consumptions
// (object uniform, diurnal minute, intra-minute fraction) from a per-city
// salted stream, then stable-sorts by timestamp through per-minute
// placement (trace/minute_order.h), keyed by minute_key of the final
// timestamp. That key is monotone in the timestamp, so draws with a lower
// key are strictly earlier: restricting the stable sort to a contiguous
// range of keys equals stable-sorting only the draws in that range — so
// the trace can be produced window by window:
//
//   1. Counting pass (parallel over cities): replay each city's RNG stream
//      consuming draws *without* the object lookup, histogramming
//      requests per minute key.
//   2. Partition minutes into windows of ~StreamParams::window_requests
//      total requests.
//   3. Per window (parallel over cities): re-replay each city's stream,
//      paying the object lookup (DiscreteSampler::index_of on the already-
//      consumed uniform) only for in-window draws, and scatter each draw
//      straight into its minute's slot of the window buffer (the counts
//      from step 1 size every minute); then stable-sort inside each minute.
//   4. Merge the per-city buffers through a loser tree keyed (timestamp,
//      city) — merge_by_time's exact tie-break — into SoA chunks.
//
// Peak memory is O(window) and generation cost is (1 + windows) cheap
// replays of the RNG streams plus exactly one object lookup per request.
// Both passes are traced (category "trace"): one generate_count span and
// one generate_window span per window, each with its request count.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "obs/tracer.h"
#include "trace/minute_order.h"
#include "trace/stream.h"
#include "trace/workload.h"
#include "trace/zipf.h"
#include "util/hash.h"
#include "util/loser_tree.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/units.h"

namespace starcdn::trace {

class WorkloadStream final : public RequestStream {
 public:
  WorkloadStream(const WorkloadModel& model, StreamParams sp)
      : model_(&model),
        sp_(sp),
        cities_(model.cities().size()),
        buffers_(cities_),
        pos_(cities_, 0),
        tree_(cities_, Less{&buffers_, &pos_}) {
    sp_.chunk_requests = std::max<std::size_t>(1, sp_.chunk_requests);
    sp_.window_requests = std::max<std::size_t>(1, sp_.window_requests);
    const WorkloadParams& p = model.params();
    minutes_ = static_cast<std::size_t>(
        std::max(1.0, p.duration_s / util::kMinute.value()));

    city_n_.resize(cities_);
    minute_samplers_.resize(cities_);
    counts_.resize(cities_);
    for (std::size_t c = 0; c < cities_; ++c) {
      city_n_[c] = model.city_request_count(c);
      total_ += city_n_[c];
      minute_samplers_[c] =
          std::make_unique<DiscreteSampler>(model.diurnal_minute_weights(c));
    }

    // Counting pass: one cheap replay per city, independent slots.
    {
      const obs::TraceSpan span(obs::tracer(), "generate_count", "trace",
                                {obs::arg("requests", total_)});
      const double clamp_s = p.duration_s - 1e-3;
      util::parallel_for(cities_, [&](std::size_t c) {
        auto& counts = counts_[c];
        counts.assign(minutes_, 0);
        util::Rng rng = city_rng(c);
        const DiscreteSampler& minute = *minute_samplers_[c];
        for (std::size_t i = 0; i < city_n_[c]; ++i) {
          (void)rng.uniform();  // object draw; lookup deferred to emission
          const std::size_t m = minute.sample(rng);
          const double ts = detail::draw_timestamp(m, rng.uniform(), clamp_s);
          ++counts[detail::minute_key(ts, minutes_)];
        }
      });
    }

    // Partition minutes into emission windows of ~window_requests total.
    std::uint64_t acc = 0;
    std::size_t begin = 0;
    for (std::size_t m = 0; m < minutes_; ++m) {
      for (std::size_t c = 0; c < cities_; ++c) acc += counts_[c][m];
      if (acc >= sp_.window_requests) {
        windows_.push_back({begin, m + 1});
        begin = m + 1;
        acc = 0;
      }
    }
    if (begin < minutes_) windows_.push_back({begin, minutes_});
  }

  [[nodiscard]] bool next(RequestBlock& out) override {
    out.clear();
    if (emitted_ >= total_) return false;
    const auto want = static_cast<std::size_t>(std::min<std::uint64_t>(
        sp_.chunk_requests, total_ - emitted_));
    out.reserve(want);
    while (out.count() < want) {
      if (window_remaining_ == 0) {
        fill_window(windows_[window_idx_++]);
        continue;
      }
      const std::size_t c = tree_.winner();
      const Draw& d = buffers_[c][pos_[c]];
      out.timestamp_s.push_back(d.ts);
      out.object.push_back(d.obj);
      out.size.push_back(model_->object_size(d.obj));
      out.location.push_back(static_cast<std::uint16_t>(c));
      ++pos_[c];
      --window_remaining_;
      tree_.replayed();
    }
    emitted_ += want;
    return true;
  }

  [[nodiscard]] std::optional<std::uint64_t> size_hint() const override {
    return total_;
  }

 private:
  struct Draw {
    double ts;
    ObjectId obj;
  };
  struct Window {
    std::size_t begin_minute;
    std::size_t end_minute;  // half-open
  };
  /// (head timestamp, city) over the window buffers; exhausted cities rank
  /// last, by index — a strict total order, so the merge is deterministic.
  struct Less {
    const std::vector<std::vector<Draw>>* buffers;
    const std::vector<std::size_t>* pos;
    bool operator()(std::size_t a, std::size_t b) const noexcept {
      const bool ea = (*pos)[a] >= (*buffers)[a].size();
      const bool eb = (*pos)[b] >= (*buffers)[b].size();
      if (ea || eb) return !ea && eb;
      const double ta = (*buffers)[a][(*pos)[a]].ts;
      const double tb = (*buffers)[b][(*pos)[b]].ts;
      if (ta != tb) return ta < tb;
      return a < b;
    }
  };

  [[nodiscard]] util::Rng city_rng(std::size_t city) const {
    // Exactly generate_city's seeding with the default salt of generate().
    return util::Rng(util::hash_combine(model_->params().seed,
                                        util::splitmix64(city * 7919 + 1)));
  }

  void fill_window(const Window& w) {
    obs::TraceSpan span(obs::tracer(), "generate_window", "trace");
    const double clamp_s = model_->params().duration_s - 1e-3;
    util::parallel_for(cities_, [&](std::size_t c) {
      auto& buf = buffers_[c];
      buf.clear();
      detail::MinuteScatter scatter(std::span(counts_[c]).subspan(
          w.begin_minute, w.end_minute - w.begin_minute));
      if (scatter.size() == 0) return;  // counting pass: nothing lands here
      buf.resize(scatter.size());
      const WorkloadModel::CityTable& t = model_->city_tables_[c];
      util::Rng rng = city_rng(c);
      const DiscreteSampler& minute = *minute_samplers_[c];
      for (std::size_t i = 0; i < city_n_[c]; ++i) {
        const double u_obj = rng.uniform();
        const std::size_t m = minute.sample(rng);
        const double ts = detail::draw_timestamp(m, rng.uniform(), clamp_s);
        const std::size_t key = detail::minute_key(ts, minutes_);
        if (key < w.begin_minute || key >= w.end_minute) continue;
        buf[scatter.place(key - w.begin_minute)] = {
            ts, t.objects[t.sampler->index_of(u_obj)]};
      }
      // Equal timestamps keep draw order — generate_city's per-minute
      // placement restricted to this window's minutes.
      scatter.sort_buckets(buf.data(), [](const Draw& d) { return d.ts; });
    });
    window_remaining_ = 0;
    for (std::size_t c = 0; c < cities_; ++c) {
      pos_[c] = 0;
      window_remaining_ += buffers_[c].size();
    }
    tree_.rebuild();
    span.set_args({obs::arg("requests", window_remaining_)});
  }

  const WorkloadModel* model_;
  StreamParams sp_;
  std::size_t cities_;
  std::size_t minutes_ = 0;
  std::vector<std::size_t> city_n_;
  std::vector<std::unique_ptr<DiscreteSampler>> minute_samplers_;
  std::vector<std::vector<std::uint32_t>> counts_;  // [city][minute_key]
  std::vector<Window> windows_;
  std::uint64_t total_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t window_remaining_ = 0;
  std::size_t window_idx_ = 0;  // next window to fill
  std::vector<std::vector<Draw>> buffers_;  // current window, per city
  std::vector<std::size_t> pos_;
  util::LoserTree<Less> tree_;
};

std::unique_ptr<RequestStream> WorkloadModel::generate_stream(
    const StreamParams& sp) const {
  return std::make_unique<WorkloadStream>(*this, sp);
}

}  // namespace starcdn::trace
