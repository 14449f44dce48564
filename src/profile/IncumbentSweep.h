//===-- profile/IncumbentSweep.h - The simulate phase of a search -*- C++ -*-===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Phase 3 of the configuration search (profile::NWayRunner): simulate
/// the kept candidates on a worker pool.
///
/// Unbudgeted, every candidate runs to completion. Budgeted, candidates
/// arrive ordered best-first by their lower bound; the first one — the
/// *seed* — runs to completion to set the incumbent and every later one
/// — a *follower* — runs under a cycle budget of the incumbent. The
/// seed and the followers are submitted to the pool together, seed
/// first, behind a gpusim::IncumbentFence: a follower that starts while
/// the seed is still running is gated by the fence and ends exactly as
/// it would have under the seed's fixed cycle count. So results are
/// bit-identical to running the seed alone first, and to
/// SearchJobs = 1, where the sweep runs inline and every follower
/// starts after the fence has resolved.
///
/// Fence rules:
///  - a follower that simulates the seed's own launch waits for the
///    resolved fence before it starts (it would otherwise race the seed
///    for the simulation memo entry); such followers are submitted after
///    the others, which keep their bound order;
///  - a gated follower's result becomes visible (memo, ResultStore,
///    ledger) only after the fence resolves — the runner's Measure
///    callback enforces this;
///  - a seed that produces no incumbent fails the fence: every gated
///    run is discarded as if it never started, and the sweep continues
///    in serial order with the next-best seed.
///
//===----------------------------------------------------------------------===//

#ifndef HFUSE_PROFILE_INCUMBENTSWEEP_H
#define HFUSE_PROFILE_INCUMBENTSWEEP_H

#include "gpusim/Simulator.h"
#include "profile/SearchOptions.h"
#include "support/Status.h"
#include "support/Telemetry.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace hfuse {
class ThreadPool;
}

namespace hfuse::profile {

/// The verdict for a candidate whose full result (memoized or stored)
/// is known to exceed \p Budget: abandoned at the budget, as a budgeted
/// run would have been, without simulating.
gpusim::SimResult budgetAbort(uint64_t Budget);

/// The result of a gated run whose fence did not resolve: void, like a
/// cancelled run, so it is never memoized, persisted or ledgered.
gpusim::SimResult voidRun(const CancellationToken &Cancel);

/// The budget a run under \p B was held to: its fixed cycles, or the
/// cycles its fence resolved to (0 for the seed).
uint64_t effectiveBudget(const gpusim::RunBudget &B);

/// Args of a candidate's `simulate` trace span.
std::string simulateSpanArgs(const std::string &RunId, int Cand,
                             const gpusim::RunBudget &B);

/// Makes a follower's fence wait visible — host time no layer owns: a
/// `search.fence_wait_ms` histogram sample and a `fence_wait_ms` arg on
/// its simulate span. A run that never waited on a fence records
/// nothing.
void recordFenceWait(telemetry::TraceSpan &Span, const gpusim::RunBudget &B,
                     double WaitMs);

/// Classifies a failed simulation into the error taxonomy. Cancelled
/// runs are transient request verdicts; fault-injected failures keep
/// their transient flag.
Status statusFromSim(const gpusim::SimResult &R);

/// What the simulate phase needs from the runner. Candidates are named
/// by their index K in the runner's kept list.
struct SweepHooks {
  /// Simulates candidate K under \p Budget and records the outcome;
  /// returns its cycle count when it completed. With a gated budget it
  /// returns only after the fence has settled (or the request was
  /// cancelled). \p WaitedMs is host time K already spent waiting for
  /// the fence before it started.
  std::function<std::optional<uint64_t>(
      size_t K, const gpusim::RunBudget &Budget, double WaitedMs)>
      Measure;
  /// Forgets everything Measure recorded for K: it ran gated by a seed
  /// that failed.
  std::function<void(size_t K)> Discard;
  /// Whether K simulates the same launch as \p SeedK.
  std::function<bool(size_t K, size_t SeedK)> SameLaunch;
};

/// Simulates every candidate in \p Order (best-first when budgeted) and
/// returns the incumbent: the seed's cycles (0 when unbudgeted or no
/// seed completed).
uint64_t runSimulatePhase(ThreadPool *Pool, const SearchOptions &Opts,
                          const std::vector<size_t> &Order,
                          const SweepHooks &Hooks);

} // namespace hfuse::profile

#endif // HFUSE_PROFILE_INCUMBENTSWEEP_H
