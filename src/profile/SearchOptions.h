//===-- profile/SearchOptions.h - Configuration-search knobs ----*- C++ -*-===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The option set of the configuration search (profile::NWayRunner,
/// which runs the paper's Figure 6 sweep for a pair and the portfolio
/// extension for 3+ kernels). The search is a pure function of these
/// knobs plus the runner's workload scales, so the driver flags and the
/// budget/prune semantics documented here apply to every kernel count.
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
  /// Simulate every surviving candidate to completion (the exhaustive
  /// sweep).
  Off,
  /// Incumbent-driven branch-and-bound: seed an incumbent from the
  /// most promising candidate (best-first lower-bound order), then run
  /// the rest under a cycle budget = incumbent. Result-preserving — Best
  /// config and cycles are bit-identical to Off.
  Incumbent,
};

inline const char *searchBudgetModeName(SearchBudgetMode M) {
  return M == SearchBudgetMode::Off ? "off" : "incumbent";
}

/// Knobs of NWayRunner::Options; see NWayRunner.h for the pipeline they
/// drive.
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
  /// Occupancy pruning with result-preserving rules only (never changes
  /// Best); off measures every candidate.
  bool Prune = true;
  /// Cycle-budgeted candidate simulation (see SearchBudgetMode).
  /// Off by default so existing cost-profile pins stay meaningful;
  /// hfusec/bench opt into Incumbent.
  SearchBudgetMode Budget = SearchBudgetMode::Off;
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
  /// Shared compilation cache; null gives the runner the process-wide
  /// one.
  std::shared_ptr<CompileCache> Cache;
  /// Cooperative cancellation + deadline for everything this runner
  /// does. Checked at candidate granularity in all three search
  /// phases, per wait slice in CompileCache waits, and inside the
  /// simulator loop; a fired token turns searchBestConfig into an
  /// anytime result (Partial). An empty token is upgraded to a
  /// private live one in the constructor so the cancel-* fault sites
  /// always have something to fire; with no deadline, no cancel()
  /// caller, no interrupt, and no armed fault site it can never fire,
  /// and results are bit-identical to a token-free run.
  CancellationToken Cancel;
};

/// Process-unique sequence for search run ids ("s<N>:<kernels>"), so
/// ids never collide within a process.
unsigned nextSearchRunSeq();

} // namespace hfuse::profile

#endif // HFUSE_PROFILE_SEARCHOPTIONS_H
