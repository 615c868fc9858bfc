// Timing decorator for trace::RequestStream.
//
// Wraps the stream a replay pulls from and records, for every next() call,
// when it was entered and how long it took, plus how many requests and
// bytes came out. The replay sees the same blocks in the same order, so
// its results are unchanged (main.cpp checks this against an undecorated
// replay). From these records the benchmark derives the per-chunk interval
// (one double-buffer iteration of Simulator::run) and the time spent
// generating the trace. The wrapped stream is not owned.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "trace/stream.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

class TimingStream final : public starcdn::trace::RequestStream {
 public:
  struct Pull {
    Clock::time_point start;
    double seconds = 0.0;
  };

  explicit TimingStream(starcdn::trace::RequestStream& inner)
      : inner_(&inner) {}

  [[nodiscard]] bool next(starcdn::trace::RequestBlock& out) override {
    const Clock::time_point start = Clock::now();
    const bool more = inner_->next(out);
    pulls_.push_back(
        {start, std::chrono::duration<double>(Clock::now() - start).count()});
    if (more) {
      ++chunks_;
      requests_ += out.count();
      bytes_ += out.total_bytes();
    }
    return more;
  }

  [[nodiscard]] std::optional<std::uint64_t> size_hint() const override {
    return inner_->size_hint();
  }

  /// Every next() call in order, including the final one that ends the
  /// stream.
  [[nodiscard]] const std::vector<Pull>& pulls() const noexcept {
    return pulls_;
  }
  [[nodiscard]] std::uint64_t requests() const noexcept { return requests_; }
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::uint64_t chunks() const noexcept { return chunks_; }

  /// Milliseconds between successive next() entries, from the second
  /// entry on. The interval after the first entry is left out: in
  /// Simulator::run that pull primes the double buffer before the loop
  /// starts (and builds the stream's first generation window), so it is
  /// not an iteration.
  [[nodiscard]] std::vector<double> intervals_ms() const {
    std::vector<double> out;
    for (std::size_t i = 2; i < pulls_.size(); ++i) {
      out.push_back(std::chrono::duration<double, std::milli>(
                        pulls_[i].start - pulls_[i - 1].start)
                        .count());
    }
    return out;
  }

  [[nodiscard]] double next_seconds() const noexcept {
    double s = 0.0;
    for (const Pull& p : pulls_) s += p.seconds;
    return s;
  }

  [[nodiscard]] double longest_pull_seconds() const noexcept {
    double s = 0.0;
    for (const Pull& p : pulls_) s = p.seconds > s ? p.seconds : s;
    return s;
  }

 private:
  starcdn::trace::RequestStream* inner_;
  std::vector<Pull> pulls_;
  std::uint64_t requests_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t chunks_ = 0;
};

}  // namespace perfbench
