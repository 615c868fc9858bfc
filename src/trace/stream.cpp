#include "trace/stream.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/loser_tree.h"

namespace starcdn::trace {

namespace {

/// Orders live traces by (head timestamp, trace index) — identical to the
/// old concatenate-in-trace-order + stable_sort-by-timestamp contract of
/// merge_by_time — and ranks exhausted traces last (among themselves by
/// index, keeping the order strict and total).
struct TraceHeadLess {
  const MultiTrace* traces;
  const std::vector<std::size_t>* pos;
  bool operator()(std::size_t a, std::size_t b) const noexcept {
    const bool ea = (*pos)[a] >= (*traces)[a].requests.size();
    const bool eb = (*pos)[b] >= (*traces)[b].requests.size();
    if (ea || eb) return !ea && eb;
    const double ta = (*traces)[a].requests[(*pos)[a]].timestamp_s;
    const double tb = (*traces)[b].requests[(*pos)[b]].timestamp_s;
    if (ta != tb) return ta < tb;
    return a < b;
  }
};

}  // namespace

std::vector<Request> merge_by_time(const MultiTrace& traces) {
  std::size_t total = 0;
  for (const auto& t : traces) total += t.requests.size();
  std::vector<Request> all;
  all.reserve(total);
  std::vector<std::size_t> pos(traces.size(), 0);
  util::LoserTree<TraceHeadLess> tree(traces.size(),
                                      TraceHeadLess{&traces, &pos});
  for (std::size_t i = 0; i < total; ++i) {
    const std::size_t s = tree.winner();
    all.push_back(traces[s].requests[pos[s]]);
    ++pos[s];
    tree.replayed();
  }
  return all;
}

VectorStream::VectorStream(const std::vector<Request>& requests,
                           std::size_t chunk_requests)
    : requests_(&requests), chunk_(std::max<std::size_t>(1, chunk_requests)) {}

bool VectorStream::next(RequestBlock& out) {
  out.clear();
  if (pos_ >= requests_->size()) return false;
  const std::size_t n = std::min(chunk_, requests_->size() - pos_);
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back((*requests_)[pos_ + i]);
  pos_ += n;
  return true;
}

struct MultiTraceStream::Merge {
  explicit Merge(const MultiTrace& traces)
      : pos(traces.size(), 0), tree(traces.size(), TraceHeadLess{&traces, &pos}) {}

  std::vector<std::size_t> pos;
  util::LoserTree<TraceHeadLess> tree;
};

MultiTraceStream::MultiTraceStream(const MultiTrace& traces,
                                   std::size_t chunk_requests)
    : traces_(&traces),
      chunk_(std::max<std::size_t>(1, chunk_requests)),
      merge_(std::make_unique<Merge>(traces)) {
  for (const auto& t : traces) total_ += t.requests.size();
  remaining_ = total_;
}

MultiTraceStream::~MultiTraceStream() = default;

bool MultiTraceStream::next(RequestBlock& out) {
  out.clear();
  if (remaining_ == 0) return false;
  const auto n =
      static_cast<std::size_t>(std::min<std::uint64_t>(chunk_, remaining_));
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = merge_->tree.winner();
    out.push_back((*traces_)[s].requests[merge_->pos[s]]);
    ++merge_->pos[s];
    merge_->tree.replayed();
  }
  remaining_ -= n;
  return true;
}

void TimeOrderCheck::check(const RequestBlock& block) {
  for (std::size_t i = 0; i < block.count(); ++i) {
    const double ts = block.timestamp_s[i];
    if (!(ts >= last_)) {
      throw std::invalid_argument(
          "request " + std::to_string(checked_ + i) + ": timestamp " +
          std::to_string(ts) + " s is NaN, negative or earlier than " +
          std::to_string(last_) + " s before it");
    }
    last_ = ts;
  }
  if (last_ >= horizon_) {  // the block is in order: find the first past
    const auto& ts = block.timestamp_s;
    throw std::invalid_argument(
        "request " + std::to_string(checked_ + static_cast<std::size_t>(
            std::lower_bound(ts.begin(), ts.end(), horizon_) - ts.begin())) +
        ": timestamp at or past the horizon " + std::to_string(horizon_) +
        " s");
  }
  checked_ += block.count();
}

std::vector<Request> collect(RequestStream& stream) {
  std::vector<Request> all;
  if (const auto hint = stream.size_hint()) {
    all.reserve(static_cast<std::size_t>(*hint));
  }
  RequestBlock block;
  while (stream.next(block)) {
    for (std::size_t i = 0; i < block.count(); ++i) {
      all.push_back(block.at(i));
    }
  }
  return all;
}

}  // namespace starcdn::trace
