//===-- support/ThreadPool.cpp - Fixed-size worker pool -------------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/Log.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <exception>

using namespace hfuse;

ThreadPool::ThreadPool(unsigned NumThreads) {
  NumThreads = std::max(1u, NumThreads);
  Workers.reserve(NumThreads);
  for (unsigned I = 0; I < NumThreads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> Lock(Mu);
    ShuttingDown = true;
  }
  HasWork.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::submit(std::function<void()> Task) {
  {
    std::unique_lock<std::mutex> Lock(Mu);
    Queue.push_back(std::move(Task));
  }
  HasWork.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(Mu);
  AllIdle.wait(Lock, [this] { return Queue.empty() && InFlight == 0; });
}

unsigned ThreadPool::defaultConcurrency() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

void ThreadPool::workerLoop() {
  std::unique_lock<std::mutex> Lock(Mu);
  while (true) {
    HasWork.wait(Lock, [this] { return !Queue.empty() || ShuttingDown; });
    if (Queue.empty()) // ShuttingDown and drained
      return;
    std::function<void()> Task = std::move(Queue.front());
    Queue.pop_front();
    ++InFlight;
    Lock.unlock();
    try {
      Task();
    } catch (const std::exception &E) {
      TaskExceptions.fetch_add(1, std::memory_order_relaxed);
      HFUSE_METRIC_ADD("pool.task_exceptions", 1);
      logWarn("thread pool task threw: %s", E.what());
    } catch (...) {
      TaskExceptions.fetch_add(1, std::memory_order_relaxed);
      HFUSE_METRIC_ADD("pool.task_exceptions", 1);
      logWarn("thread pool task threw a non-std exception");
    }
    Lock.lock();
    --InFlight;
    if (Queue.empty() && InFlight == 0)
      AllIdle.notify_all();
  }
}

void hfuse::parallelFor(ThreadPool *Pool, size_t N,
                        const std::function<void(size_t)> &Body) {
  if (!Pool || Pool->numThreads() <= 1) {
    for (size_t I = 0; I < N; ++I)
      Body(I);
    return;
  }
  for (size_t I = 0; I < N; ++I)
    Pool->submit([&Body, I] { Body(I); });
  Pool->wait();
}
