//===-- profile/IncumbentSweep.cpp - The simulate phase of a search -------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "profile/IncumbentSweep.h"

#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>

using namespace hfuse;
using namespace hfuse::gpusim;
using namespace hfuse::profile;

SimResult hfuse::profile::budgetAbort(uint64_t Budget) {
  SimResult A;
  A.BudgetExceeded = true;
  A.Error = "cycle budget exceeded";
  A.TotalCycles = Budget;
  return A;
}

SimResult hfuse::profile::voidRun(const CancellationToken &Cancel) {
  SimResult R;
  R.Cancelled = true;
  R.Error = Cancel.cancelled() ? Cancel.status().message()
                               : "incumbent seed failed";
  return R;
}

uint64_t hfuse::profile::effectiveBudget(const RunBudget &B) {
  if (!B.Fence)
    return B.Cycles;
  return B.Seed ? 0 : B.Fence->budget();
}

std::string hfuse::profile::simulateSpanArgs(const std::string &RunId,
                                             int Cand, const RunBudget &B) {
  return formatString(
      "{\"run\":\"%s\",\"cand\":%d,\"budget\":%llu%s}", RunId.c_str(), Cand,
      static_cast<unsigned long long>(B.Fence ? 0 : B.Cycles),
      !B.Fence ? "" : B.Seed ? ",\"fence\":\"seed\"" : ",\"fence\":\"gated\"");
}

void hfuse::profile::recordFenceWait(telemetry::TraceSpan &Span,
                                     const RunBudget &B, double WaitMs) {
  if (!B.isGated() && WaitMs == 0.0)
    return;
  HFUSE_METRIC_HISTO("search.fence_wait_ms",
                     static_cast<uint64_t>(std::llround(WaitMs)));
  if (telemetry::traceOn())
    Span.setEndArgs(formatString("{\"fence_wait_ms\":%.3f}", WaitMs));
}

Status hfuse::profile::statusFromSim(const SimResult &R) {
  // A cancelled run is a verdict about the request, not the candidate;
  // transient so retry machinery never treats it as a kernel property.
  if (R.Cancelled)
    return Status::transient(
        R.Error.find("deadline") != std::string::npos
            ? ErrorCode::DeadlineExceeded
            : ErrorCode::Cancelled,
        R.Error);
  ErrorCode Code = ErrorCode::SimError;
  if (R.Deadlock)
    Code = ErrorCode::SimDeadlock;
  else if (R.TimedOut)
    Code = ErrorCode::SimTimeout;
  else if (R.BudgetExceeded)
    Code = ErrorCode::SimBudget;
  else if (R.Error.rfind("verification failed", 0) == 0)
    Code = ErrorCode::VerifyError;
  return R.FaultInjected ? Status::transient(Code, R.Error)
                         : Status(Code, R.Error);
}

uint64_t hfuse::profile::runSimulatePhase(ThreadPool *Pool,
                                          const SearchOptions &Opts,
                                          const std::vector<size_t> &Order,
                                          const SweepHooks &Hooks) {
  if (Opts.Budget == SearchBudgetMode::Off) {
    parallelFor(Pool, Order.size(), [&](size_t I) {
      Hooks.Measure(Order[I], RunBudget(), 0.0);
    });
    return 0;
  }

  // One round per seed: the seed and its followers go to the pool
  // together, seed first, so the seed always starts before any
  // follower can block on it. Followers keep their bound order, except
  // that those which wait for the resolved fence go last, so they never
  // hold a worker while others could run. A round whose seed fails is
  // void except for the seed's own verdict.
  for (size_t Seeded = 0; Seeded < Order.size(); ++Seeded) {
    const size_t SeedK = Order[Seeded];
    std::vector<size_t> Round{SeedK}, Deferred;
    for (size_t I = Seeded + 1; I < Order.size(); ++I) {
      const size_t K = Order[I];
      (Hooks.SameLaunch(K, SeedK) ? Deferred : Round).push_back(K);
    }
    const size_t FirstDeferred = Round.size();
    Round.insert(Round.end(), Deferred.begin(), Deferred.end());

    IncumbentFence Fence;
    parallelFor(Pool, Round.size(), [&](size_t I) {
      const size_t K = Round[I];
      if (I == 0) {
        std::optional<uint64_t> Cycles =
            Hooks.Measure(K, RunBudget::seed(Fence), 0.0);
        if (!Cycles) {
          Fence.fail();
          return;
        }
        Fence.resolve(*Cycles);
        return;
      }
      // A deferred follower simulates the seed's own launch (it would
      // race the seed for the memo entry).
      const double WaitedMs =
          I >= FirstDeferred ? Fence.waitSettled(Opts.Cancel) : 0.0;
      RunBudget B = RunBudget::gated(Fence);
      switch (Fence.state()) {
      case IncumbentFence::State::Failed:
        return; // never started
      case IncumbentFence::State::Resolved:
        B = RunBudget::fixed(Fence.budget());
        break;
      case IncumbentFence::State::Open:
        break; // gated (or cancelled while waiting: Measure skips it)
      }
      Hooks.Measure(K, B, WaitedMs);
    });
    if (Fence.state() == IncumbentFence::State::Resolved)
      return Fence.budget();
    for (size_t I = Seeded + 1; I < Order.size(); ++I)
      Hooks.Discard(Order[I]);
    if (Opts.Cancel.cancelled()) {
      // Every later seed would fail the same way: account the rest in
      // one pass (Measure skips candidates of a cancelled request).
      for (size_t I = Seeded + 1; I < Order.size(); ++I)
        Hooks.Measure(Order[I], RunBudget(), 0.0);
      return 0;
    }
  }
  return 0;
}
