//===-- profile/SimMemo.h - Memoized candidate simulations -------*- C++ -*-===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulation memo of a configuration search (profile::NWayRunner):
/// one entry per exact launch (the fused IR's content hash, grid, block
/// size, dynamic shared bytes), backed by the CompileCache's
/// ResultStore. The hash comes from phase 1 — or from the stored
/// phase-1 summary that stands in for it — so the memo and the disk are
/// consulted before any fused IR exists, and a hit never fuses or
/// lowers. Two lowerings with equal content are one launch: a register
/// bound at or above the natural allocation shares its unbounded
/// sibling's entry.
///
/// Entries are shared futures, so concurrent workers requesting the
/// same launch block on the first runner instead of simulating twice.
/// One rule decides whether a known result — memoized, or
/// stored on disk by this or an earlier process — answers a caller's
/// budget: a completed run answers everyone, and a clean budget abort
/// answers callers at least as tight as its own budget. A memoized
/// abort that does not answer is retired lazily by the caller that
/// needs more simulation (no budget, or a looser one); a stored one is
/// a disk miss, and the fresh result replaces it. A fault-injected,
/// cancelled or void (failed-seed) result is retired eagerly by its own
/// runner before it is published and never persisted: waiters see it,
/// later requests re-simulate. So is a run that never simulated (no
/// simulator context, or a fused IR that could not be had or did not
/// match its hash). Deterministic failures (OOB, genuine deadlock) stay
/// memoized, never persisted: replaying them is correct and cheap. The shared_ptr wrapper gives entries identity, so
/// retirement no-ops when a concurrent retirement already installed a
/// fresh runner's entry.
///
/// A caller gated by an incumbent fence (gpusim::RunBudget::gated)
/// makes nothing visible before the fence resolves: a memo or disk hit
/// waits for it and then applies the answer rule to the resolved
/// budget, and a fresh simulation is published and persisted only once
/// its seed resolved. If the seed failed, the caller gets a void result
/// (voidRun) and the entry is retired.
///
//===----------------------------------------------------------------------===//

#ifndef HFUSE_PROFILE_SIMMEMO_H
#define HFUSE_PROFILE_SIMMEMO_H

#include "gpusim/Simulator.h"
#include "profile/Compile.h"
#include "support/CancellationToken.h"
#include "support/Status.h"

#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>

namespace hfuse::profile {

struct SearchStats;

class SimMemo {
public:
  /// The exact launch: same IR content (ir::IRKernel::contentHash()),
  /// grid, block size and dynamic shared bytes replay the stored result.
  using Key = std::tuple<uint64_t, int, int, uint32_t>;

  /// Runs one candidate launch under \p Budget, or replays it. \p DiskKey
  /// (empty = no store) names it in the ResultStore. \p Simulate
  /// simulates it under the budget it is given and returns the result,
  /// or why nothing was simulated. \p Cancel is
  /// the request's token, which ends fence waits. \p Stats (may be
  /// null) counts memo and disk hits; fence waits add to
  /// \p FenceWaitMs.
  gpusim::SimResult
  run(const Key &K, const std::string &DiskKey,
      const CancellationToken &Cancel, CompileCache &Cache,
      SearchStats *Stats, const gpusim::RunBudget &Budget,
      double *FenceWaitMs,
      const std::function<Expected<gpusim::SimResult>(
          const gpusim::RunBudget &)> &Simulate);

private:
  using Entry = std::shared_ptr<std::shared_future<gpusim::SimResult>>;

  /// Erases \p K if it still maps to \p E.
  void retire(const Key &K, const Entry &E);

  std::map<Key, Entry> Map;
  std::mutex Mu;
};

} // namespace hfuse::profile

#endif // HFUSE_PROFILE_SIMMEMO_H
