/// \file threadpool.h
/// \brief Fixed-size worker pool used for parallel workers and operators.

#ifndef VERTEXICA_COMMON_THREADPOOL_H_
#define VERTEXICA_COMMON_THREADPOOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace vertexica {

/// \brief Threads requested via the VERTEXICA_THREADS environment variable;
/// 0 when unset or invalid. The single parsing point shared by the default
/// pool sizing and the executor's ExecThreads() resolution.
std::size_t EnvThreadCount();

/// \brief A simple fixed-size thread pool.
///
/// Tasks are arbitrary `void()` callables; `Submit` also supports callables
/// with a return value via `std::future`. The pool joins all workers on
/// destruction after draining the queue.
class ThreadPool {
 public:
  /// \param num_threads number of workers; 0 means hardware concurrency.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return threads_.size(); }

  /// \brief Enqueues a task and returns a future for its result.
  template <typename F>
  auto Submit(F&& fn) -> std::future<decltype(fn())> {
    using R = decltype(fn());
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// \brief Runs `fn(i)` for every i in [0, n) across the pool and waits.
  ///
  /// Work is chunked so that each worker receives a contiguous index range.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// \brief Per-chunk callback of the morsel ParallelFor: a contiguous
  /// index range [begin, end).
  using ChunkFn = std::function<Status(std::size_t begin, std::size_t end)>;

  /// \brief Runs `fn` over [begin, end) split into `grain`-sized chunks
  /// (morsels) and waits for all of them.
  ///
  /// Chunk boundaries depend only on `grain`, never on the thread count, so
  /// chunk-deterministic callers produce identical results at any
  /// parallelism. The calling thread participates in draining chunks, which
  /// makes nested ParallelFor calls (a pool task that itself fans out on the
  /// same pool) deadlock-free. Every helper task runs under the caller's
  /// request context (`ExecKnobs::Current()`, common/exec_knobs.h), so
  /// `fn` sees the same knobs, cancel token and counter block on every
  /// thread, and the token is checked at every chunk boundary. Error
  /// handling: the first non-OK Status (or thrown exception, converted to
  /// Status::Internal) wins and the remaining unstarted chunks are skipped.
  /// `max_threads` caps the helper parallelism for this call (0 = use
  /// every pool worker).
  Status ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                     const ChunkFn& fn, int max_threads = 0);

  /// \brief Default process-wide pool sized to
  /// max(hardware concurrency, VERTEXICA_THREADS).
  static ThreadPool* Default();

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool shutdown_ = false;
};

/// \brief Reusable synchronization barrier for BSP-style supersteps.
class Barrier {
 public:
  explicit Barrier(std::size_t count) : threshold_(count), count_(count) {}

  /// \brief Blocks until `count` threads have arrived; then all proceed.
  void ArriveAndWait();

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t threshold_;
  std::size_t count_;
  std::size_t generation_ = 0;
};

}  // namespace vertexica

#endif  // VERTEXICA_COMMON_THREADPOOL_H_
