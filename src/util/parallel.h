// Deterministic parallel execution substrate.
//
// A single process-wide thread pool plus `parallel_for` with *static*
// contiguous chunking: [0, n) is split into `threads` equal slices, so the
// mapping from index to chunk depends only on (n, threads) — never on
// scheduling order. Every call site writes results into pre-sized,
// per-index slots, which makes the whole simulator bitwise reproducible for
// any thread count (see DESIGN.md, "Parallel execution engine").
//
// The worker count defaults to std::thread::hardware_concurrency and can be
// overridden by the STARCDN_THREADS environment variable (checked once at
// startup) or programmatically via set_parallel_threads (used by the
// determinism tests). STARCDN_THREADS=1 runs every parallel_for inline on
// the calling thread.
//
// A parallel_for called from a pool worker (e.g. inside a parallel bench
// sweep whose points each run a parallel simulation) executes inline on
// that worker: the pool never deadlocks on recursive submission, and the
// inner loop simply stays serial. The calling thread runs the last chunk
// itself and is not a worker, so a parallel_for nested in the last chunk
// of a call made outside the pool fans out like any other.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace starcdn::util {

/// Reusable fixed-size pool of worker threads draining a shared task queue.
/// Most callers want `parallel_for` instead of submitting tasks directly.
class ThreadPool {
 public:
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const noexcept;

  /// Enqueue a task for execution on some worker. Fire-and-forget: use
  /// parallel_for for fork-join semantics.
  void submit(std::function<void()> task);

  /// True when called from one of this pool's worker threads.
  [[nodiscard]] static bool on_worker_thread() noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The process-wide pool backing parallel_for; created on first use.
[[nodiscard]] ThreadPool& global_pool();

/// Effective chunk/worker count for parallel_for: the programmatic override
/// if set, else STARCDN_THREADS, else hardware_concurrency (min 1).
[[nodiscard]] int parallel_threads() noexcept;

/// Override the chunk count used by subsequent parallel_for calls; n <= 0
/// restores the environment/hardware default. Intended for tests and for
/// serial-vs-parallel bench comparisons.
void set_parallel_threads(int n) noexcept;

/// Parse a STARCDN_THREADS-style value; returns 0 (meaning "default") for
/// null, empty, non-numeric, or non-positive strings. Exposed for tests.
[[nodiscard]] int parse_thread_count(const char* text) noexcept;

/// Run body(begin, end) over [0, n) split into `threads` static contiguous
/// chunks (threads == 0 uses parallel_threads()). Blocks until every chunk
/// finished; the first exception thrown by any chunk is rethrown here.
/// Called from a pool worker, runs inline (serial) to avoid deadlock; the
/// last chunk runs on the calling thread, so a nested call from that chunk
/// is parallel unless the caller itself is a worker.
void parallel_for_chunks(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body,
    int threads = 0);

/// Element-wise convenience wrapper: body(i) for every i in [0, n), with the
/// same static chunking and exception semantics as parallel_for_chunks.
template <typename Body>
void parallel_for(std::size_t n, Body&& body, int threads = 0) {
  parallel_for_chunks(
      n,
      [&body](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) body(i);
      },
      threads);
}

}  // namespace starcdn::util
