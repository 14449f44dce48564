//===-- gpusim/IncumbentFence.h - A cycle budget still in flight -*- C++ -*-===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The budget of a branch-and-bound *follower* whose incumbent — the
/// *seed*, the candidate simulated to completion to set the budget — is
/// still running on another thread.
///
/// A budgeted run is abandoned at the first loop iteration whose cycle
/// reaches its budget, so a follower only needs to know the budget once
/// it gets there. While the seed runs it publishes every cycle it
/// reaches with work outstanding; its final cycle count is then known
/// to be larger. A follower gated by the fence never executes a loop
/// iteration at a cycle the seed has not passed: a follower that
/// catches up blocks until the seed publishes more progress or the
/// fence settles. Once the seed's runner resolves the fence with the
/// seed's cycle count, the follower adopts it as a fixed budget (an
/// idle fast-forward that already carried it past the budget clamps
/// back to it). Either way the follower ends exactly as a run under the
/// fixed budget would: the same completion, or BudgetExceeded at the
/// same abort cycle with the same issued-instruction count. If the
/// seed fails, its runner fails the fence and every gated run aborts.
///
/// Blocking is a condition-variable wait, never a spin, and it polls
/// the run's CancellationToken every few milliseconds.
///
//===----------------------------------------------------------------------===//

#ifndef HFUSE_GPUSIM_INCUMBENTFENCE_H
#define HFUSE_GPUSIM_INCUMBENTFENCE_H

#include "support/CancellationToken.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace hfuse::gpusim {

class IncumbentFence {
public:
  enum class State : uint8_t { Open, Resolved, Failed };

  /// Seed side: the seed still has work outstanding at \p Cycle, so its
  /// final cycle count exceeds it. Called once per seed loop iteration;
  /// two atomic operations unless a follower waits for this cycle.
  void publish(uint64_t Cycle) {
    Floor.store(Cycle + 1, std::memory_order_seq_cst);
    if (Cycle + 1 > WakeAt.load(std::memory_order_seq_cst))
      wakeAll();
  }
  /// Seed side: the seed completed in \p Cycles.
  void resolve(uint64_t Cycles) { settle(State::Resolved, Cycles); }
  /// Seed side: the seed produced no incumbent; gated runs are void.
  void fail() { settle(State::Failed, 0); }

  State state() const {
    return static_cast<State>(St.load(std::memory_order_acquire));
  }
  /// The seed's cycle count; meaningful once state() is Resolved.
  uint64_t budget() const { return Budget; }

  /// Whether some gated run is blocked on the fence right now.
  bool waiting() const {
    return WakeAt.load(std::memory_order_seq_cst) != UINT64_MAX;
  }

  /// Whether a gated run may execute a loop iteration at \p Cycle now.
  bool clears(uint64_t Cycle) const {
    return Cycle < Floor.load(std::memory_order_seq_cst) ||
           state() != State::Open;
  }

  /// Blocks until clears(\p Cycle) or \p Cancel fires. Returns the host
  /// milliseconds spent blocked.
  double waitFor(uint64_t Cycle, const CancellationToken &Cancel);
  /// Blocks until the fence is no longer Open or \p Cancel fires.
  /// Returns the host milliseconds spent blocked.
  double waitSettled(const CancellationToken &Cancel);

private:
  void wakeAll();
  void settle(State S, uint64_t Cycles);
  /// Blocks until Floor > \p Want or the fence settles or \p Cancel
  /// fires.
  double block(uint64_t Want, const CancellationToken &Cancel);

  /// One past the last cycle the seed published: its final cycle count
  /// is at least this.
  std::atomic<uint64_t> Floor{0};
  /// Smallest Floor a blocked follower waits for (UINT64_MAX: none).
  std::atomic<uint64_t> WakeAt{UINT64_MAX};
  std::atomic<uint8_t> St{static_cast<uint8_t>(State::Open)};
  uint64_t Budget = 0; ///< written before the release store of St
  std::mutex Mu;
  std::condition_variable Cv;
};

} // namespace hfuse::gpusim

#endif // HFUSE_GPUSIM_INCUMBENTFENCE_H
