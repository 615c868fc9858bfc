#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace starcdn::util {

namespace {

thread_local bool tls_on_pool_worker = false;

std::atomic<int> g_thread_override{0};

int hardware_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int env_threads() noexcept {
  static const int cached = parse_thread_count(std::getenv("STARCDN_THREADS"));
  return cached;
}

}  // namespace

int parse_thread_count(const char* text) noexcept {
  if (text == nullptr || *text == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || (end != nullptr && *end != '\0')) return 0;
  if (v <= 0 || v > 4096) return 0;
  return static_cast<int>(v);
}

int parallel_threads() noexcept {
  const int override = g_thread_override.load(std::memory_order_relaxed);
  if (override > 0) return override;
  const int env = env_threads();
  if (env > 0) return env;
  return hardware_threads();
}

void set_parallel_threads(int n) noexcept {
  g_thread_override.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::function<void()>> queue;
  std::vector<std::thread> workers;
  bool stopping = false;

  void worker_loop() {
    tls_on_pool_worker = true;
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock lock(mutex);
        cv.wait(lock, [this] { return stopping || !queue.empty(); });
        if (stopping && queue.empty()) return;
        task = std::move(queue.front());
        queue.pop_front();
      }
      task();
    }
  }
};

ThreadPool::ThreadPool(int threads) : impl_(std::make_unique<Impl>()) {
  const int n = std::max(1, threads);
  impl_->workers.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->cv.notify_all();
  for (auto& w : impl_->workers) w.join();
}

int ThreadPool::size() const noexcept {
  return static_cast<int>(impl_->workers.size());
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(impl_->mutex);
    impl_->queue.push_back(std::move(task));
  }
  impl_->cv.notify_one();
}

bool ThreadPool::on_worker_thread() noexcept { return tls_on_pool_worker; }

ThreadPool& global_pool() {
  // Sized so an STARCDN_THREADS larger than the core count still gets its
  // requested chunk concurrency (useful for determinism tests and TSan runs
  // on small machines); the floor of 4 keeps chunked paths exercised even
  // on single-core CI containers.
  static ThreadPool pool(std::max({hardware_threads(), env_threads(), 4}));
  return pool;
}

void parallel_for_chunks(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body,
    int threads) {
  if (n == 0) return;
  const int requested = threads > 0 ? threads : parallel_threads();
  const std::size_t chunks =
      std::min<std::size_t>(static_cast<std::size_t>(std::max(1, requested)), n);
  if (chunks <= 1 || ThreadPool::on_worker_thread()) {
    body(0, n);
    return;
  }

  // Static contiguous chunking: chunk c covers the same index range for a
  // given (n, chunks) regardless of which worker runs it or when.
  struct Join {
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t pending;
    std::exception_ptr error;
  };
  const auto join = std::make_shared<Join>();
  join->pending = chunks;

  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;  // first `extra` chunks get +1
  ThreadPool& pool = global_pool();
  std::size_t begin = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t len = base + (c < extra ? 1 : 0);
    const std::size_t end = begin + len;
    auto run_chunk = [join, &body, begin, end] {
      try {
        body(begin, end);
      } catch (...) {
        std::lock_guard lock(join->mutex);
        if (!join->error) join->error = std::current_exception();
      }
      {
        std::lock_guard lock(join->mutex);
        --join->pending;
      }
      join->cv.notify_one();
    };
    if (c + 1 == chunks) {
      run_chunk();  // the caller contributes the last chunk itself
    } else {
      pool.submit(std::move(run_chunk));
    }
    begin = end;
  }

  std::unique_lock lock(join->mutex);
  join->cv.wait(lock, [&join] { return join->pending == 0; });
  // A worker can still hold the last reference to `join` after it counted
  // itself done, so the exception leaves the shared state here: the thread
  // that catches it is then the only one that releases it.
  if (std::exception_ptr error = std::exchange(join->error, nullptr)) {
    std::rethrow_exception(std::move(error));
  }
}

}  // namespace starcdn::util
