#include "common/threadpool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "common/env_knob.h"
#include "common/exec_knobs.h"
#include "common/logging.h"

namespace vertexica {

std::size_t EnvThreadCount() {
  // Range-validated (and garbage-rejected, with one warning) in the shared
  // env-knob parser: a fat-fingered VERTEXICA_THREADS must not ask the OS
  // for thousands of threads at startup, and ExecThreads() must resolve
  // the same clamped value the pool sizing uses.
  return static_cast<std::size_t>(
      EnvIntKnob("VERTEXICA_THREADS", 1, 256, 0));
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this]() { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t workers = std::min(n, num_threads() + 1);
  const std::size_t grain = (n + workers - 1) / workers;
  // Preserve the historical contract: an exception thrown by `fn` (e.g. a
  // user-supplied vertex program) propagates to the caller instead of being
  // flattened into a Status. This entry point has no error channel, so it
  // is also not cancellable — a null token is installed for the loop's
  // duration lest an ambient cancellation turn into the VX_CHECK below.
  ExecKnobs no_cancel = ExecKnobs::Current();
  no_cancel.cancel = CancelToken();
  const ScopedExecKnobs scope(no_cancel);
  std::mutex eptr_mutex;
  std::exception_ptr first_exception;
  const Status status =
      ParallelFor(0, n, grain, [&](std::size_t begin, std::size_t end) {
        try {
          for (std::size_t i = begin; i < end; ++i) fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(eptr_mutex);
          if (!first_exception) first_exception = std::current_exception();
          return Status::Aborted("ParallelFor task threw");
        }
        return Status::OK();
      });
  if (first_exception) std::rethrow_exception(first_exception);
  VX_CHECK(status.ok()) << status.ToString();
}

namespace {

/// Shared state of one chunked ParallelFor call. Helpers hold it via
/// shared_ptr so stragglers scheduled after completion exit harmlessly.
struct ParallelForState {
  ThreadPool::ChunkFn fn;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t grain = 1;
  std::size_t total_chunks = 0;
  // The submitter's request context, installed in every helper task.
  // Its token is checked at every grain boundary, so a cancelled or
  // past-deadline run stops scheduling work instead of finishing the loop.
  ExecKnobs knobs;

  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::size_t> done_chunks{0};
  std::atomic<bool> failed{false};

  std::mutex mutex;
  std::condition_variable cv;
  Status first_error;

  /// Claims and runs chunks until none remain (work-sharing loop run by the
  /// caller and every helper task).
  void Drain() {
    for (;;) {
      const std::size_t c = next_chunk.fetch_add(1);
      if (c >= total_chunks) return;
      Status status;
      if (!failed.load(std::memory_order_acquire)) {
        status = knobs.cancel.Check();
      }
      if (status.ok() && !failed.load(std::memory_order_acquire)) {
        const std::size_t b = begin + c * grain;
        const std::size_t e = std::min(end, b + grain);
        try {
          status = fn(b, e);
        } catch (const std::exception& ex) {
          status = Status::Internal(std::string("ParallelFor task threw: ") +
                                    ex.what());
        } catch (...) {
          status = Status::Internal("ParallelFor task threw a non-exception");
        }
      }
      if (!status.ok() && !failed.exchange(true)) {
        std::lock_guard<std::mutex> lock(mutex);
        first_error = status;
      }
      if (done_chunks.fetch_add(1) + 1 == total_chunks) {
        std::lock_guard<std::mutex> lock(mutex);
        cv.notify_all();
      }
    }
  }
};

}  // namespace

Status ThreadPool::ParallelFor(std::size_t begin, std::size_t end,
                               std::size_t grain, const ChunkFn& fn,
                               int max_threads) {
  if (begin >= end) return Status::OK();
  const ExecKnobs& knobs = ExecKnobs::Current();
  VX_RETURN_NOT_OK(knobs.cancel.Check());
  grain = std::max<std::size_t>(1, grain);
  const std::size_t total = (end - begin + grain - 1) / grain;
  if (total == 1) {
    try {
      return fn(begin, end);
    } catch (const std::exception& ex) {
      return Status::Internal(std::string("ParallelFor task threw: ") +
                              ex.what());
    } catch (...) {
      return Status::Internal("ParallelFor task threw a non-exception");
    }
  }

  auto state = std::make_shared<ParallelForState>();
  state->fn = fn;
  state->begin = begin;
  state->end = end;
  state->grain = grain;
  state->total_chunks = total;
  state->knobs = knobs;

  std::size_t helpers = std::min(total - 1, num_threads());
  if (max_threads > 0) {
    helpers = std::min(helpers, static_cast<std::size_t>(max_threads) - 1);
  }
  for (std::size_t h = 0; h < helpers; ++h) {
    Submit([state]() {
      const ScopedExecKnobs scope(state->knobs);
      state->Drain();
    });
  }
  state->Drain();

  std::unique_lock<std::mutex> lock(state->mutex);
  state->cv.wait(lock, [&state]() {
    return state->done_chunks.load() >= state->total_chunks;
  });
  return state->first_error;
}

ThreadPool* ThreadPool::Default() {
  // EnvThreadCount() is already range-clamped by the shared env-knob
  // parser (common/env_knob.h).
  static ThreadPool pool(std::max(
      EnvThreadCount(),
      std::max<std::size_t>(1, std::thread::hardware_concurrency())));
  return &pool;
}

void Barrier::ArriveAndWait() {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::size_t gen = generation_;
  if (--count_ == 0) {
    ++generation_;
    count_ = threshold_;
    cv_.notify_all();
  } else {
    cv_.wait(lock, [this, gen]() { return generation_ != gen; });
  }
}

}  // namespace vertexica
