//===-- support/ThreadPool.h - Fixed-size worker pool -----------*- C++ -*-===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size thread pool for the configuration search and other
/// embarrassingly parallel host-side work. Deliberately minimal: a
/// shared FIFO queue, `submit` for fire-and-forget tasks, `wait` for a
/// barrier, and a `parallelFor` helper that degrades to an inline loop
/// when no pool (or a single-thread pool) is supplied — so serial and
/// parallel callers share one code path and serial runs pay no
/// synchronization cost.
///
/// Tasks run under an exception-safe wrapper — a throwing task is
/// counted (`taskExceptions()`) and swallowed rather than taking down
/// the pool; tasks with results should report failure through their
/// own channel (the pipeline uses Status). Tasks may submit further
/// tasks.
///
//===----------------------------------------------------------------------===//

#ifndef HFUSE_SUPPORT_THREADPOOL_H
#define HFUSE_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hfuse {

class ThreadPool {
public:
  /// Spawns \p NumThreads workers (clamped to at least 1).
  explicit ThreadPool(unsigned NumThreads);

  /// Drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numThreads() const { return static_cast<unsigned>(Workers.size()); }

  /// Enqueues \p Task for execution on some worker.
  void submit(std::function<void()> Task);

  /// Blocks until every submitted task (including tasks submitted by
  /// tasks) has finished.
  void wait();

  /// Tasks whose exceptions the wrapper swallowed since construction.
  uint64_t taskExceptions() const {
    return TaskExceptions.load(std::memory_order_relaxed);
  }

  /// Hardware concurrency with a sane floor of 1.
  static unsigned defaultConcurrency();

private:
  void workerLoop();

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Queue;
  std::mutex Mu;
  std::condition_variable HasWork;  ///< queue non-empty or shutting down
  std::condition_variable AllIdle;  ///< queue empty and nothing in flight
  size_t InFlight = 0;
  bool ShuttingDown = false;
  std::atomic<uint64_t> TaskExceptions{0};
};

/// Runs `Body(I)` for every I in [0, N). With a null \p Pool or a
/// single worker the loop runs inline on the caller's thread — the
/// serial reference path. Otherwise indices are submitted to the pool
/// one task each (candidate evaluation is coarse enough that chunking
/// would only hurt load balance) and the call blocks until all have
/// finished. \p Body must be safe to invoke concurrently for distinct
/// indices.
void parallelFor(ThreadPool *Pool, size_t N,
                 const std::function<void(size_t)> &Body);

} // namespace hfuse

#endif // HFUSE_SUPPORT_THREADPOOL_H
