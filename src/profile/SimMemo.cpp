//===-- profile/SimMemo.cpp - Memoized candidate simulations --------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "profile/SimMemo.h"

#include "profile/IncumbentSweep.h"
#include "profile/PairRunner.h"

using namespace hfuse;
using namespace hfuse::gpusim;
using namespace hfuse::profile;

void SimMemo::retire(const Key &K, const Entry &E) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Map.find(K);
  if (It != Map.end() && It->second == E)
    Map.erase(It);
}

SimResult SimMemo::run(
    const Key &K, const std::string &DiskKey, const SearchOptions &Opts,
    CompileCache &Cache, SearchStats *Stats, const RunBudget &Budget,
    double *FenceWaitMs,
    const std::function<std::optional<SimResult>(const RunBudget &)>
        &Simulate) {
  // A gated caller's verdict counts only once its seed has resolved:
  // Settle waits for the fence and adopts its budget, or reports the
  // run void (seed failed, or the request was cancelled meanwhile).
  uint64_t CycleBudget = Budget.Fence ? 0 : Budget.Cycles;
  IncumbentFence *Gate = Budget.isGated() ? Budget.Fence : nullptr;
  auto Settle = [&]() {
    if (!Gate)
      return true;
    double Ms = Gate->waitSettled(Opts.Cancel);
    if (FenceWaitMs)
      *FenceWaitMs += Ms;
    if (Gate->state() != IncumbentFence::State::Resolved)
      return false;
    CycleBudget = Gate->budget();
    return true;
  };
  const bool UseDisk = !DiskKey.empty();
  // The retry loop exists for one case: a memoized entry that turns
  // out to be a budget abort looser than what this caller needs. The
  // caller retires that entry (if nobody else has yet) and re-enters
  // the memo as a fresh runner.
  for (;;) {
    std::promise<SimResult> Promise;
    bool IsRunner = false;
    Entry E;
    if (Opts.UseCompileCache) {
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
        // launch; failures replay too (the simulator is deterministic).
        SimResult R = E->get();
        if (!Settle())
          return voidRun(Opts.Cancel);
        if (R.BudgetExceeded) {
          // The stored run was abandoned at its own budget
          // (R.TotalCycles). That verdict is deterministic for any
          // caller at least as tight — aliases sharing the launch get
          // the same abandonment whether they waited on the running
          // future or replayed the stored one. A caller needing more
          // simulation retires the entry and retries.
          if (CycleBudget == 0 || CycleBudget > R.TotalCycles) {
            retire(K, E);
            continue;
          }
        } else if (R.Ok && CycleBudget != 0 &&
                   R.TotalCycles > CycleBudget) {
          // Full result known to exceed this caller's budget: abandon
          // without simulating — the exact decision a budgeted run
          // would have reached, for free.
          R = budgetAbort(CycleBudget);
        }
        Cache.count(&CompileCache::Stats::SimMemoHits);
        if (Stats)
          ++Stats->MemoHits;
        return R;
      }

      // This thread owns the entry: consult the disk before simulating.
      // A hit is always a completed Ok run (failures are never
      // persisted), published in full so concurrent waiters apply their
      // own budget logic exactly as they would to a fresh result.
      if (UseDisk) {
        if (std::optional<SimResult> Disk = Cache.loadSimResult(DiskKey)) {
          SimResult R = std::move(*Disk);
          if (!Settle()) {
            retire(K, E);
            Promise.set_value(voidRun(Opts.Cancel));
            return voidRun(Opts.Cancel);
          }
          Promise.set_value(R);
          if (CycleBudget != 0 && R.TotalCycles > CycleBudget)
            R = budgetAbort(CycleBudget);
          if (Stats)
            ++Stats->MemoHits;
          return R;
        }
      }
    }

    std::optional<SimResult> Sim = Simulate(Budget);
    SimResult R;
    if (!Sim)
      R.Error = "no simulator context";
    else if (!Settle())
      R = voidRun(Opts.Cancel);
    else
      R = std::move(*Sim);
    if (IsRunner) {
      // Cancelled and void runs are properties of the request, never of
      // the launch; fault-injected ones are transient; a missing
      // context simulated nothing. None may be replayed.
      if (!Sim || R.FaultInjected || R.Cancelled)
        retire(K, E);
      // Persist only completed, healthy runs (storeSimResult enforces
      // R.Ok): budget aborts depend on the caller's budget, and no
      // failure may ever be servable from cache.
      if (UseDisk)
        Cache.storeSimResult(DiskKey, R);
      Promise.set_value(R);
    }
    return R;
  }
}
