//===-- profile/SearchOptions.h - Shared search-runner knobs ----*- C++ -*-===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The option set shared by every configuration-search runner. The
/// paper's Figure 6 sweep runs over a *pair* (profile::PairRunner);
/// the N-way portfolio extension runs the same three-phase pipeline
/// over 3+ kernels (profile::NWayRunner). Both searches are a pure
/// function of these knobs — the runners only add their scale fields —
/// so the service fingerprint, the driver flags, and the budget/prune
/// semantics documented here apply to either.
///
//===----------------------------------------------------------------------===//

#ifndef HFUSE_PROFILE_SEARCHOPTIONS_H
#define HFUSE_PROFILE_SEARCHOPTIONS_H

#include "gpusim/Simulator.h"
#include "support/CancellationToken.h"

#include <cstdint>
#include <memory>

namespace hfuse::profile {

class CompileCache;

/// How searchBestConfig bounds candidate simulations.
enum class SearchBudgetMode : uint8_t {
  /// Simulate every surviving candidate to completion (the historical
  /// exhaustive sweep).
  Off,
  /// Incumbent-driven branch-and-bound: seed an incumbent from the
  /// most promising candidate (best-first lower-bound order), then run
  /// the rest under CycleBudget = incumbent. Result-preserving — Best
  /// config and cycles are bit-identical to Off.
  Incumbent,
  /// Incumbent that *tightens* as better candidates complete: workers
  /// share an atomic minimum, and every new simulation starts under
  /// the best cycle count measured so far instead of the seed's.
  /// Best stays bit-identical to Incumbent (a tighter budget can only
  /// abandon candidates that are strictly worse than some completed
  /// one, and the eventual winner always completes), but which
  /// non-winning candidates finish depends on worker timing — so the
  /// ledger is re-issued deterministically after the sweep, as if
  /// every kept candidate had run under the final incumbent: measured
  /// candidates whose cycles exceed it are reported Abandoned at that
  /// budget (IssuedInsts 0, like a memo-decided abandonment), and All
  /// keeps exactly the winner and its exact ties. Cost counters
  /// (SimulatedInsts/AbandonedInsts) remain timing-dependent — they
  /// report real work done, not the canonical ledger.
  IncumbentTight,
};

inline const char *searchBudgetModeName(SearchBudgetMode M) {
  switch (M) {
  case SearchBudgetMode::Off:
    return "off";
  case SearchBudgetMode::Incumbent:
    return "incumbent";
  case SearchBudgetMode::IncumbentTight:
    return "incumbent-tight";
  }
  return "?";
}

/// Knobs shared by PairRunner::Options and NWayRunner::Options. Field
/// semantics are identical across runners; see the runner headers for
/// the pipeline each drives.
struct SearchOptions {
  gpusim::GpuArch Arch;
  int SimSMs = 4;
  /// Verify all outputs against CPU references after each run.
  bool Verify = true;
  /// Ablation: disable HFuse's partial barriers (unsound in general).
  bool UsePartialBarriers = true;
  /// Fidelity study: model the device L2 cache (bench_ablation_cache).
  bool ModelL2 = false;
  uint32_t Seed = 42;
  /// Worker threads for searchBestConfig; <= 0 picks the host's
  /// hardware concurrency, 1 is the serial reference path.
  int SearchJobs = 1;
  /// Occupancy pruning: 0 = off, 1 = safe rules only (default;
  /// never changes Best), 2 = also skip candidates strictly
  /// dominated in blocks/SM by an earlier-measured one (heuristic,
  /// may trade a few percent of Best quality for a ~2x smaller
  /// sweep).
  int PruneLevel = 1;
  /// Cycle-budgeted candidate simulation (see SearchBudgetMode).
  /// Off by default so existing cost-profile pins stay meaningful;
  /// hfusec/bench opt into Incumbent.
  SearchBudgetMode Budget = SearchBudgetMode::Off;
  /// Margin of the PruneLevel-2 re-admission rule under budgeted
  /// search: occupancy-dominated candidates run with budget
  /// incumbent/(1 + BudgetMarginPct/100), bounding the aggressive
  /// sweep's Best to within this percentage of the true optimum.
  double BudgetMarginPct = 10.0;
  /// Rank phase-3 candidates by *measured* per-kernel issued counts
  /// (one solo simulation per input kernel, the Figure 8 numbers also
  /// exported as `sim.issued.<label>` gauges) instead of the static
  /// instruction-count proxy. Better orders mid-partition DL
  /// candidates whose dynamic work diverges from their static size.
  /// Reordering only changes which candidate seeds the incumbent, so
  /// Best stays bit-identical; off by default because the order of
  /// abandoned-vs-completed rows (and the solo probe cost) changes.
  bool MeasuredBound = false;
  /// Simulator watchdog window for every simulation this runner
  /// performs (SimConfig::WatchdogCycles); 0 = disabled. Rescues
  /// live/deadlocked candidate kernels (e.g. a barrier-mismatch
  /// fusion) at a deterministic abort cycle instead of burning the
  /// full MaxCycles allowance.
  uint64_t WatchdogCycles = 0;
  /// Wall-clock timeout per simulation in milliseconds
  /// (SimConfig::WallTimeoutMs); 0 = disabled. Non-deterministic —
  /// a fence for untrusted inputs only.
  uint64_t WallTimeoutMs = 0;
  /// Master switch for the caching layers: fusion/codegen reuse
  /// across register variants, the shared kernel CompileCache, and
  /// simulation memoization. Off reproduces the seed cost profile
  /// (one full fuse+lower per (partition, RegBound), one simulation
  /// per candidate); results are identical either way.
  bool UseCompileCache = true;
  /// Shared compilation cache; null gives the runner a private one.
  std::shared_ptr<CompileCache> Cache;
  /// Cooperative cancellation + deadline for everything this runner
  /// does. Checked at candidate granularity in all three search
  /// phases, per wait slice in CompileCache waits, and inside the
  /// simulator loop; a fired token turns searchBestConfig into an
  /// anytime result (Partial). An empty token is upgraded to a
  /// private live one in the constructor so the cancel-* fault sites
  /// always have something to fire; with no deadline, no cancel()
  /// caller, and no armed fault site it can never fire, and results
  /// are bit-identical to a token-free run.
  CancellationToken Cancel;
};

/// Process-unique sequence for search run ids ("s<N>:<kernels>"),
/// shared by the pair and N-way runners so ids never collide within a
/// process.
unsigned nextSearchRunSeq();

} // namespace hfuse::profile

#endif // HFUSE_PROFILE_SEARCHOPTIONS_H
