// Chunked, pull-based request streaming — the O(chunk)-memory alternative
// to materializing a whole trace as std::vector<Request> (32 bytes per
// request puts the paper's 423M-request video day at ~13.5 GB; a 64K-request
// chunk is ~2 MB).
//
// RequestBlock is a structure-of-arrays chunk: the simulator's stage-1
// context fan-out walks timestamps and locations only, and SoA keeps those
// scans dense instead of striding 32-byte AoS records. RequestStream is the
// producer interface and the only input Simulator::run and replay_cluster
// accept; VectorStream/MultiTraceStream adapt materialized traces to it and
// collect() drains it back. DESIGN.md §12 documents the pipeline contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "trace/record.h"

namespace starcdn::trace {

/// Default requests per chunk (~2 MB of SoA payload): big enough to
/// amortize per-chunk overhead, small enough to stay cache- and
/// memory-friendly.
inline constexpr std::size_t kDefaultChunkRequests = 64 * 1024;

/// A structure-of-arrays chunk of requests. Column i of every array
/// describes one request; the arrays always have equal length.
class RequestBlock {
 public:
  std::vector<double> timestamp_s;
  std::vector<ObjectId> object;
  std::vector<Bytes> size;
  std::vector<std::uint16_t> location;

  [[nodiscard]] std::size_t count() const noexcept { return object.size(); }
  [[nodiscard]] bool empty() const noexcept { return object.empty(); }

  void clear() noexcept {
    timestamp_s.clear();
    object.clear();
    size.clear();
    location.clear();
  }

  void reserve(std::size_t n) {
    timestamp_s.reserve(n);
    object.reserve(n);
    size.reserve(n);
    location.reserve(n);
  }

  /// Every column to `n` entries; new entries are value-initialised.
  void resize(std::size_t n) {
    timestamp_s.resize(n);
    object.resize(n);
    size.resize(n);
    location.resize(n);
  }

  void push_back(const Request& r) {
    timestamp_s.push_back(r.timestamp_s);
    object.push_back(r.object);
    size.push_back(r.size);
    location.push_back(r.location);
  }

  [[nodiscard]] Request at(std::size_t i) const noexcept {
    return Request{timestamp_s[i], object[i], size[i], location[i]};
  }

  [[nodiscard]] Bytes total_bytes() const noexcept {
    Bytes b = 0;
    for (const Bytes s : size) b += s;
    return b;
  }
};

/// Pull-based producer of globally time-ordered request chunks.
///
/// Contract: next() clears `out`, fills it with the next chunk and returns
/// true, or returns false at end of stream (leaving `out` empty). A stream
/// never yields an empty block, and concatenating all yielded blocks is the
/// complete time-ordered trace. Chunk sizes may vary between calls; only
/// the concatenation is specified.
class RequestStream {
 public:
  virtual ~RequestStream() = default;

  [[nodiscard]] virtual bool next(RequestBlock& out) = 0;

  /// Total number of requests this stream will yield, when known up front
  /// (generators know, arbitrary sources may not).
  [[nodiscard]] virtual std::optional<std::uint64_t> size_hint() const {
    return std::nullopt;
  }
};

/// Adapter: chunked stream over an already-materialized vector. Does not
/// own the vector; it must outlive the stream.
class VectorStream final : public RequestStream {
 public:
  explicit VectorStream(const std::vector<Request>& requests,
                        std::size_t chunk_requests = kDefaultChunkRequests);

  [[nodiscard]] bool next(RequestBlock& out) override;
  [[nodiscard]] std::optional<std::uint64_t> size_hint() const override {
    return requests_->size();
  }

 private:
  const std::vector<Request>* requests_;
  std::size_t chunk_;
  std::size_t pos_ = 0;
};

/// Adapter: globally time-ordered stream over per-location traces without
/// building the merged O(trace) copy — a k-way loser-tree merge with
/// merge_by_time's tie-break (timestamp, then trace index, then position).
/// Does not own the traces; they must outlive the stream.
class MultiTraceStream final : public RequestStream {
 public:
  explicit MultiTraceStream(const MultiTrace& traces,
                            std::size_t chunk_requests = kDefaultChunkRequests);
  ~MultiTraceStream() override;
  MultiTraceStream(MultiTraceStream&&) = delete;

  [[nodiscard]] bool next(RequestBlock& out) override;
  [[nodiscard]] std::optional<std::uint64_t> size_hint() const override {
    return total_;
  }

 private:
  struct Merge;  // loser tree + per-trace cursors
  const MultiTrace* traces_;
  std::size_t chunk_;
  std::uint64_t total_ = 0;
  std::uint64_t remaining_ = 0;
  std::unique_ptr<Merge> merge_;
};

/// The ingestion check of a replay: its timestamps must be non-negative,
/// non-decreasing numbers below `horizon_s`, across block boundaries too.
/// One compare per request — `ts >= previous`, the first request compared
/// with 0 — fails on a NaN, on a negative timestamp and on a step back in
/// time; the block's last timestamp alone is compared with the horizon.
class TimeOrderCheck {
 public:
  explicit TimeOrderCheck(double horizon_s) noexcept : horizon_(horizon_s) {}

  /// Throws std::invalid_argument naming the offending request's position
  /// (counted over every block checked so far).
  void check(const RequestBlock& block);

 private:
  double horizon_;
  double last_ = 0.0;
  std::uint64_t checked_ = 0;
};

/// Drain a stream into a materialized vector (tests and small scales; at
/// paper scale this is exactly the allocation streaming exists to avoid).
[[nodiscard]] std::vector<Request> collect(RequestStream& stream);

}  // namespace starcdn::trace
