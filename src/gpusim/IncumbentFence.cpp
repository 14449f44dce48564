//===-- gpusim/IncumbentFence.cpp - A cycle budget still in flight --------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "gpusim/IncumbentFence.h"

#include <algorithm>
#include <chrono>

using namespace hfuse;
using namespace hfuse::gpusim;

namespace {

/// How often a blocked follower polls its cancellation token.
constexpr std::chrono::milliseconds PollSlice{5};

double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

} // namespace

void IncumbentFence::wakeAll() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    WakeAt.store(UINT64_MAX, std::memory_order_seq_cst);
  }
  Cv.notify_all();
}

void IncumbentFence::settle(State S, uint64_t Cycles) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Budget = Cycles;
    St.store(static_cast<uint8_t>(S), std::memory_order_release);
    WakeAt.store(UINT64_MAX, std::memory_order_seq_cst);
  }
  Cv.notify_all();
}

double IncumbentFence::block(uint64_t Want, const CancellationToken &Cancel) {
  auto T0 = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> Lock(Mu);
  while (state() == State::Open && !Cancel.cancelled()) {
    // Announce the wait before re-reading Floor: the seed stores Floor
    // before it reads WakeAt, so one of the two sees the other (both
    // sequentially consistent) and no wake-up is lost.
    if (Want < WakeAt.load(std::memory_order_seq_cst))
      WakeAt.store(Want, std::memory_order_seq_cst);
    if (Floor.load(std::memory_order_seq_cst) > Want)
      break;
    Cv.wait_for(Lock, PollSlice);
  }
  return msSince(T0);
}

double IncumbentFence::waitFor(uint64_t Cycle,
                               const CancellationToken &Cancel) {
  if (clears(Cycle))
    return 0.0;
  // Wait for a stretch of progress, not the next cycle: a follower that
  // keeps pace with the seed would otherwise wake once per seed cycle.
  return block(Cycle + std::max<uint64_t>(1024, Cycle / 16), Cancel);
}

double IncumbentFence::waitSettled(const CancellationToken &Cancel) {
  if (state() != State::Open)
    return 0.0;
  return block(UINT64_MAX - 1, Cancel);
}
