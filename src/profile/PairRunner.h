//===-- profile/PairRunner.h - Benchmark-pair experiment driver -*- C++ -*-===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The experiment driver for one benchmark pair: owns a simulator with
/// both workloads resident, and runs the four execution modes the paper
/// compares —
///
///   native : both kernels launched concurrently (parallel CUDA
///            streams), elapsed = first launch to last finish;
///   vfused : the standard vertical fusion baseline;
///   hfused : HFuse's horizontal fusion for a given thread partition
///            and optional register bound;
///   solo   : one kernel alone (Figure 8 metrics).
///
/// It also implements the paper's Figure 6 configuration search: sweep
/// the thread-space partition at a granularity of 128, profile each
/// candidate with and without the computed register bound r0, keep the
/// fastest. All runs verify kernel outputs against the CPU references
/// unless disabled.
///
/// The search is a parallel, cached, pruned pipeline:
///
///  - candidates are evaluated by Options::SearchJobs worker threads,
///    each owning a private Simulator + workload context (the simulator
///    is single-threaded; determinism comes from identical contexts);
///  - fusion and AST->IR codegen run once per partition (D1, D2) and are
///    shared by the bounded/unbounded register variants, which only
///    differ in register allocation; input-kernel compilations go
///    through a process-wide CompileCache;
///  - identical launches (e.g. a register bound at or above the natural
///    allocation, which lowers to the very same IR) reuse the memoized
///    simulation result instead of re-running the simulator;
///  - occupancy pruning (Options::PruneLevel) skips candidates before
///    they reach the simulator. Level 1 (default) applies only
///    result-preserving rules: candidates that cannot launch (0
///    blocks/SM), and bounded variants whose register bound fails to
///    raise theoretical blocks/SM over their partition's unbounded
///    variant — same code plus spill traffic at no occupancy gain
///    cannot win. Level 2 additionally drops any candidate whose
///    blocks/SM is strictly dominated by an already-measured
///    candidate (canonical measurement order); it typically halves
///    the sweep but is a heuristic — a low-occupancy candidate can
///    win by a small margin, so level 2 may return a slightly
///    sub-optimal Best. Pruned candidates are always logged in
///    SearchResult::Pruned with the dominating occupancy.
///
/// Results are assembled in partition order regardless of worker timing,
/// so Best and All are bit-identical across SearchJobs values.
///
/// With Options::Budget == SearchBudgetMode::Incumbent the simulate
/// phase becomes an incumbent-driven branch-and-bound: candidates are
/// ordered best-first by an occupancy/issue-width lower-bound estimate,
/// the most promising one is simulated to completion to seed the
/// incumbent, and every other candidate runs under
/// SimConfig::CycleBudget = incumbent — the simulator abandons it the
/// moment its elapsed cycles provably exceed the incumbent's. The
/// other candidates start while the seed still runs, behind an
/// incumbent fence that keeps each result bit-identical to a run under
/// the seed's fixed cycle count (profile/IncumbentSweep.h). This is
/// exactly result-preserving: a candidate abandoned at the budget has
/// strictly more cycles than the incumbent, so it can never be Best,
/// and every candidate whose cycles are <= the incumbent (including
/// exact ties, which Best breaks by canonical partition order over
/// All) still completes with bit-identical cycles. Abandoned
/// candidates are logged in SearchResult::Abandoned with the
/// instructions they issued before the cutoff.
///
/// Budgeted mode also upgrades PruneLevel 2 from a silent heuristic to
/// a measured-margin rule: occupancy-dominated candidates are
/// re-admitted to the sweep under the tighter budget
/// incumbent / (1 + Options::BudgetMarginPct/100). A re-admitted
/// candidate that is genuinely fast completes and competes for Best;
/// one that exceeds the margin budget is abandoned knowing its true
/// cycles are > incumbent/(1+margin), so the returned Best is within
/// (1+margin)x of the true optimum — a stated bound instead of a
/// silent one.
///
/// SearchBudgetMode::IncumbentTight additionally tightens the budget
/// as the sweep runs: completed candidates publish their cycles into a
/// shared atomic minimum and later candidates start under it. Best is
/// still bit-identical; the ledger is re-issued under the final
/// incumbent after the sweep so it, too, is deterministic (see the
/// enum's documentation in SearchOptions.h).
///
/// Options::Cancel threads a request lifecycle through the sweep: a
/// cancelled or deadlined search stops at the next candidate boundary
/// and returns an *anytime* result — best-so-far incumbent, Partial
/// flag, and every skipped candidate accounted in the Unvisited ledger
/// bucket — instead of either blocking to completion or discarding the
/// work already done. When the token never fires, every check is a
/// relaxed atomic load and results are bit-identical to a token-free
/// run.
///
//===----------------------------------------------------------------------===//

#ifndef HFUSE_PROFILE_PAIRRUNNER_H
#define HFUSE_PROFILE_PAIRRUNNER_H

#include "gpusim/Simulator.h"
#include "kernels/Workload.h"
#include "profile/Compile.h"
#include "profile/SearchOptions.h"
#include "profile/SimMemo.h"
#include "support/Status.h"

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <vector>

namespace hfuse::profile {

/// One profiled fusion configuration (a row of the Figure 6 search).
struct FusionCandidate {
  /// Stable candidate id: the index in the canonical enumeration
  /// (partition ascending, unbounded before bounded), identical across
  /// SearchJobs. Trace spans, `--explain` rows, and the driver's
  /// failed:/abandoned: table rows all carry it, so they can be joined.
  int Id = -1;
  int D1 = 0;
  int D2 = 0;
  unsigned RegBound = 0; // 0 = unbounded
  double TimeMs = 0.0;
  uint64_t Cycles = 0;
  gpusim::SimResult Result;
};

/// A candidate skipped by occupancy-dominance pruning.
struct PrunedCandidate {
  int Id = -1; ///< canonical candidate id (see FusionCandidate::Id)
  int D1 = 0;
  int D2 = 0;
  unsigned RegBound = 0;
  /// Theoretical blocks/SM of the pruned candidate.
  int BlocksPerSM = 0;
  /// Blocks/SM of the measured candidate that dominates it.
  int DominatorBlocksPerSM = 0;
  std::string Reason;
};

/// A candidate abandoned mid-simulation by the incumbent cycle budget.
struct AbandonedCandidate {
  int Id = -1; ///< canonical candidate id (see FusionCandidate::Id)
  int D1 = 0;
  int D2 = 0;
  unsigned RegBound = 0;
  /// The budget it ran under (the incumbent, or the tighter margin
  /// budget for a re-admitted occupancy-dominated candidate).
  uint64_t BudgetCycles = 0;
  /// Instructions issued before the cutoff (0 when the abandonment was
  /// decided from a memoized full result without simulating).
  uint64_t IssuedInsts = 0;
};

/// A candidate retired by a contained failure (compile, fusion,
/// lowering, or simulation error — including injected faults). The
/// sweep records it and moves on; the error never escapes as an
/// assert/abort or poisons other candidates.
struct FailedCandidate {
  int Id = -1; ///< canonical candidate id (see FusionCandidate::Id)
  int D1 = 0;
  int D2 = 0;
  unsigned RegBound = 0;
  Status Err;
};

/// A candidate the sweep never reached because the request was
/// cancelled or deadlined first (SearchResult::Partial). Unvisited is
/// a verdict about the *request*, not the candidate: nothing is known
/// about it, and an un-cancelled rerun will measure it normally.
struct UnvisitedCandidate {
  int Id = -1; ///< canonical candidate id (see FusionCandidate::Id)
  int D1 = 0;
  int D2 = 0;
  unsigned RegBound = 0;
  /// True for a bounded trial cancelled before its r0 was even
  /// computed (RegBound is then meaningless).
  bool BoundPending = false;
};

/// Cost accounting for one search.
struct SearchStats {
  unsigned Candidates = 0;  ///< enumerated, including pruned ones
  unsigned Simulations = 0; ///< simulator executions (incl. abandoned)
  unsigned MemoHits = 0;    ///< results served by simulation memoization
  unsigned Pruned = 0;      ///< candidates skipped by pruning
  unsigned Abandoned = 0;   ///< candidates cut off by the cycle budget
  unsigned Failed = 0;      ///< candidates retired by contained failures
  /// Candidates never reached because the request was cancelled or
  /// deadlined (always 0 on a complete run). The ledger identity every
  /// run satisfies: Candidates == All + Pruned + Abandoned + Failed +
  /// Unvisited.
  unsigned Unvisited = 0;
  /// Warp instructions issued across all candidate simulations,
  /// including the partial progress of abandoned runs — the search's
  /// real simulation cost, which the budget exists to shrink.
  uint64_t SimulatedInsts = 0;
  /// The subset of SimulatedInsts spent on runs that were abandoned.
  uint64_t AbandonedInsts = 0;
  /// The incumbent cycle count the budget was derived from (0 when the
  /// search ran unbudgeted).
  uint64_t IncumbentCycles = 0;
  double WallMs = 0.0;      ///< wall-clock time of searchBestConfig
};

/// Result of the Figure 6 search.
struct SearchResult {
  bool Ok = false;
  /// Process-unique id of this search run ("s<N>:<A>+<B>"), threaded
  /// through every trace span the search emits so table rows and
  /// Perfetto tracks can be joined.
  std::string RunId;
  std::string Error;
  /// Structured form of Error: the first failure observed, or the
  /// reason no candidate was feasible. Ok() when the search succeeded —
  /// possibly with individual candidates retired into Failed.
  Status Err;
  FusionCandidate Best;
  std::vector<FusionCandidate> All;
  std::vector<PrunedCandidate> Pruned;
  std::vector<AbandonedCandidate> Abandoned;
  /// Candidates retired by contained failures, in canonical order. The
  /// sweep's Best is bit-identical to a failure-free sweep as long as
  /// the winner itself is healthy.
  std::vector<FailedCandidate> Failed;
  /// Anytime-result marker: the request was cancelled or deadlined
  /// mid-sweep and at least one candidate went unvisited. Ok stays
  /// true when an incumbent was measured — Best is then the best of
  /// what *was* measured (never a silent half-answer: the Unvisited
  /// ledger says exactly what was skipped) — and false when the cancel
  /// landed before any measurement. Complete runs (Partial == false)
  /// are bit-identical to an un-cancelled sweep.
  bool Partial = false;
  /// Why the sweep is partial: Cancelled or DeadlineExceeded (ok()
  /// when Partial is false).
  Status PartialReason;
  /// Candidates never reached, in canonical order.
  std::vector<UnvisitedCandidate> Unvisited;
  SearchStats Stats;
};

class PairRunner {
public:
  /// The shared SearchOptions knobs plus the pair-specific workload
  /// scales (SearchBudgetMode and the common fields live in
  /// profile/SearchOptions.h).
  struct Options : SearchOptions {
    /// SizeScale for each kernel's workload (the Figure 7 ratio knob).
    double Scale1 = 1.0;
    double Scale2 = 1.0;
  };

  PairRunner(kernels::BenchKernelId A, kernels::BenchKernelId B,
             Options Opts);

  bool ok() const { return Ready; }
  const std::string &error() const { return Err; }

  kernels::BenchKernelId kernelId(int Which) const {
    return Which == 0 ? IdA : IdB;
  }

  /// Registers per thread of kernel \p Which compiled standalone.
  unsigned soloRegs(int Which) const;

  /// Both kernels on concurrent streams (the paper's native baseline).
  gpusim::SimResult runNative();

  /// One kernel alone, with its preferred launch shape.
  gpusim::SimResult runSolo(int Which);

  /// Vertically fused baseline (both kernels at block 256).
  gpusim::SimResult runVFused();

  /// Horizontally fused with partition D1/D2 and optional bound.
  gpusim::SimResult runHFused(int D1, int D2, unsigned RegBound);

  /// The register bound r0 of Figure 6 lines 13-16 for partition D1/D2.
  std::optional<unsigned> figure6RegBound(int D1, int D2);

  /// Figure 6 search. \p NaiveEvenSplit restricts to the even partition
  /// without the register-bound trial (the "Naive" marker of Figure 7);
  /// crypto pairs always use the even split but still try the bound.
  SearchResult searchBestConfig(bool NaiveEvenSplit = false);

  /// Fused-kernel source text for a partition (for inspection/driver).
  std::string fusedSource(int D1, int D2);

  /// The cache backing this runner (for statistics reporting).
  CompileCache &cache() { return *Cache; }

private:
  /// One simulator with both workloads resident. The primary context
  /// serves the public run* methods; the search lends it to a worker
  /// and builds additional contexts on demand, one per concurrent
  /// worker. Contexts are interchangeable: identical seeds and
  /// allocation order make every simulation bit-deterministic.
  struct SimContext {
    std::unique_ptr<gpusim::Simulator> Sim;
    std::unique_ptr<kernels::Workload> W1, W2;
  };

  /// The fusion + lowering pipeline state of one partition. With the
  /// compile cache enabled the key is (D1, D2) and ByBound holds one
  /// allocation per register bound over the shared codegen output;
  /// without it the key carries the bound, so every candidate redoes
  /// the whole pipeline (the seed behavior).
  struct FusionEntry {
    std::mutex Mu;
    bool Attempted = false;
    /// Recorded permanent failure of the fusion/codegen stage.
    /// Transient (injected) failures are returned to the caller but
    /// never stored: the entry resets so a retry redoes the work.
    Status Err;
    std::unique_ptr<cuda::ASTContext> Ctx;
    cuda::FunctionDecl *Fused = nullptr;
    uint32_t DynShared = 0;
    /// Codegen output before register allocation; copied per bound.
    std::unique_ptr<ir::IRKernel> BaseIR;
    /// Registers of the unbounded allocation (0 until computed); bounds
    /// at or above it alias the unbounded IR.
    unsigned UnboundedRegs = 0;
    std::map<unsigned, std::shared_ptr<ir::IRKernel>> ByBound;
  };

  gpusim::SimResult fail(const std::string &Message) const;

  std::unique_ptr<SimContext> makeContext(std::string &Error) const;
  SimContext *acquireContext(std::string &Error);
  void releaseContext(SimContext *C);

  /// Fused IR for (D1, D2, RegBound) through the caches; null on error
  /// (with \p Err set). \p DynShared receives the dynamic shared size.
  std::shared_ptr<ir::IRKernel> getFusedIR(int D1, int D2,
                                           unsigned RegBound,
                                           uint32_t &DynShared, Status &Err);

  /// Simulates (D1, D2, RegBound) under \p Budget in context \p C, or,
  /// when \p C is null, in a pooled context taken only if no memo or
  /// disk hit answers first. A fixed budget of 0 runs to completion;
  /// otherwise the simulation is abandoned (SimResult::BudgetExceeded)
  /// once its cycles provably exceed the budget. An abort is served
  /// from the memo or the store only to callers whose budget is at least
  /// as tight as the stored abort's; a later run under a looser (or no)
  /// budget re-simulates instead of replaying the cutoff (SimMemo). A
  /// gated budget's result is published (memo, store) and returned only
  /// once its fence resolved; a run whose fence failed comes back void
  /// (voidRun). Fence waits add to \p FenceWaitMs.
  gpusim::SimResult runHFusedIn(SimContext *C, int D1, int D2,
                                unsigned RegBound, Status &Err,
                                SearchStats *Stats,
                                const gpusim::RunBudget &Budget = {},
                                double *FenceWaitMs = nullptr);
  /// Runs \p L at StatsLevel::Full and verifies the outputs.
  gpusim::SimResult runLaunches(SimContext &C,
                                const std::vector<gpusim::KernelLaunch> &L,
                                int Threads1, int Threads2,
                                const gpusim::RunBudget &Budget = {},
                                double *FenceWaitMs = nullptr);
  std::optional<unsigned> figure6RegBoundImpl(int D1, int D2, Status &Err);
  int commonGrid() const;

  /// Warp instructions kernel \p Which issues running solo at its
  /// preferred launch shape (the Options::MeasuredBound ranking
  /// probe; the same quantity the sim.issued.<label> gauges export).
  /// Cached per runner — TotalIssued is identical across stats levels
  /// and reruns. Returns 0 with \p E set on failure; \p Stats (may be
  /// null) absorbs the probe's simulation cost.
  uint64_t soloIssuedCount(int Which, Status &E, SearchStats *Stats);

  kernels::BenchKernelId IdA, IdB;
  Options Opts;
  bool Ready = false;
  std::string Err;

  std::shared_ptr<CompileCache> Cache;
  std::shared_ptr<const CompiledKernel> K1, K2;
  std::unique_ptr<CompiledKernel> VFused;
  uint32_t VFusedDynShared = 0;

  /// Memoized MeasuredBound probes (index = kernel 0/1).
  std::optional<uint64_t> SoloIssued[2];

  SimContext Primary;
  /// Contexts not currently lent to a search worker (includes Primary).
  std::vector<SimContext *> FreeContexts;
  std::vector<std::unique_ptr<SimContext>> ExtraContexts;
  std::mutex ContextMu;

  std::map<std::tuple<int, int, unsigned>, std::unique_ptr<FusionEntry>>
      FusionCache;
  std::mutex FusionCacheMu;

  /// Memoized simulation results (profile/SimMemo.h).
  SimMemo Memo;
};

} // namespace hfuse::profile

#endif // HFUSE_PROFILE_PAIRRUNNER_H
