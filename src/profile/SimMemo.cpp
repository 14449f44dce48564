//===-- profile/SimMemo.cpp - Memoized candidate simulations --------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "profile/SimMemo.h"

#include "profile/IncumbentSweep.h"
#include "profile/NWayRunner.h"

using namespace hfuse;
using namespace hfuse::gpusim;
using namespace hfuse::profile;

void SimMemo::retire(const Key &K, const Entry &E) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Map.find(K);
  if (It != Map.end() && It->second == E)
    Map.erase(It);
}

namespace {

/// What a known result \p Known of a launch, memoized or stored, answers
/// to a caller whose cycle budget is \p Budget (0 = none): a completed
/// run answers every caller, abandoned at the budget when it ran longer;
/// a clean budget abort at budget B (isStorableSimResult) answers a
/// caller whose budget is nonzero and at most B; nothing else answers.
std::optional<SimResult> answer(const SimResult &Known, uint64_t Budget) {
  if (Known.Ok) {
    if (Budget != 0 && Known.TotalCycles > Budget)
      return budgetAbort(Budget);
    return Known;
  }
  if (isStorableSimResult(Known) && Budget != 0 &&
      Budget <= Known.TotalCycles)
    return Known;
  return std::nullopt;
}

} // namespace

SimResult SimMemo::run(
    const Key &K, const std::string &DiskKey, const CancellationToken &Cancel,
    CompileCache &Cache, SearchStats *Stats, const RunBudget &Budget,
    double *FenceWaitMs,
    const std::function<Expected<SimResult>(const RunBudget &)> &Simulate) {
  // A gated caller's verdict counts only once its seed has resolved:
  // Settle waits for the fence and adopts its budget, or reports the
  // run void (seed failed, or the request was cancelled meanwhile).
  uint64_t CycleBudget = Budget.Fence ? 0 : Budget.Cycles;
  IncumbentFence *Gate = Budget.isGated() ? Budget.Fence : nullptr;
  auto Settle = [&]() {
    if (!Gate)
      return true;
    double Ms = Gate->waitSettled(Cancel);
    if (FenceWaitMs)
      *FenceWaitMs += Ms;
    if (Gate->state() != IncumbentFence::State::Resolved)
      return false;
    CycleBudget = Gate->budget();
    return true;
  };
  const bool UseDisk = !DiskKey.empty();
  // The retry loop exists for one case: a memoized budget abort that
  // does not answer this caller (looser than it needs, or wedged). The
  // caller retires that entry (if nobody else has yet) and re-enters
  // the memo as a fresh runner.
  for (;;) {
    std::promise<SimResult> Promise;
    bool IsRunner = false;
    Entry E;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      auto It = Map.find(K);
      if (It != Map.end()) {
        E = It->second;
      } else {
        IsRunner = true;
        E = std::make_shared<std::shared_future<SimResult>>(
            Promise.get_future().share());
        Map.emplace(K, E);
      }
    }
    if (!IsRunner) {
      // Served by a completed — or currently running — identical
      // launch. Aliases sharing the launch get the same verdict
      // whether they waited on the running future or replayed the
      // stored one.
      SimResult R = E->get();
      if (!Settle())
        return voidRun(Cancel);
      std::optional<SimResult> A = answer(R, CycleBudget);
      if (!A && R.BudgetExceeded) {
        retire(K, E);
        continue;
      }
      Cache.count(&CompileCache::Stats::SimMemoHits);
      if (Stats)
        ++Stats->MemoHits;
      // Any other failure replays as it is: deterministic ones stay
      // memoized, and waiters see a transient one its runner retired.
      return A ? std::move(*A) : R;
    }

    // This thread owns the entry: consult the disk before simulating.
    // A record that answers is published in full, so concurrent
    // waiters apply their own budget exactly as they would to a fresh
    // result. One that does not (a tighter abort) is a miss, and the
    // simulation below replaces it.
    if (UseDisk) {
      std::optional<SimResult> Disk = Cache.loadSimResult(DiskKey);
      if (Disk && !Settle()) {
        retire(K, E);
        Promise.set_value(voidRun(Cancel));
        return voidRun(Cancel);
      }
      std::optional<SimResult> A =
          Disk ? answer(*Disk, CycleBudget) : std::nullopt;
      if (A) {
        Cache.count(&CompileCache::Stats::DiskHits);
        Promise.set_value(std::move(*Disk));
        if (Stats)
          ++Stats->MemoHits;
        return std::move(*A);
      }
      Cache.count(&CompileCache::Stats::DiskMisses);
    }

    Expected<SimResult> Sim = Simulate(Budget);
    SimResult R;
    if (!Sim)
      R.Error = Sim.status().message();
    else if (!Settle())
      R = voidRun(Cancel);
    else
      R = Sim.take();
    // Cancelled and void runs are properties of the request, never of
    // the launch; fault-injected ones are transient; a run that never
    // simulated (no context, no fused IR) is no verdict at all. None may
    // be replayed.
    if (!Sim || R.FaultInjected || R.Cancelled)
      retire(K, E);
    // storeSimResult keeps only completed runs and clean aborts. This
    // runner simulated because the disk missed or held a tighter abort,
    // so its write never replaces a record that answers more.
    if (UseDisk)
      Cache.storeSimResult(DiskKey, R);
    Promise.set_value(R);
    return R;
  }
}
