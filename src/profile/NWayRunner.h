//===-- profile/NWayRunner.h - The configuration search ---------*- C++ -*-===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The experiment driver for N >= 2 benchmark kernels: owns a simulator
/// with every workload resident, runs the unfused baselines, and
/// implements the paper's Figure 6 configuration search. A pair is the
/// paper's case (profile::PairRunner adds the pair-only baselines);
/// three or more kernels are the portfolio extension.
///
/// The search enumerates the thread-space partitions of a fused block,
/// lowers each through transform::fuseHorizontalMany, and profiles every
/// candidate with and without the register bound r0 (regBound). A pair
/// sweeps Figure 6's list: D1 + D2 = 1024 at a granularity of 128 when
/// both kernels have a tunable block size, else the even split of their
/// native block sizes. Three or more kernels sweep the lexicographic
/// product of per-kernel choices — the native block size of a
/// fixed-shape (crypto) kernel, multiples of 128 for a tunable (DL) one
/// — summing to at most the 1024 threads-per-block hardware limit. All
/// runs verify kernel outputs against the CPU references unless
/// disabled.
///
/// The sweep is a parallel, cached, pruned three-phase pipeline:
///
///  - phase 1 (parallel): fuse + lower per partition. Fusion and AST->IR
///    codegen run once per partition and are shared by the bounded and
///    unbounded variants, which only differ in register allocation;
///    input kernels compile once through the process-wide CompileCache
///    no matter how many searches contain them. Phase 1 leaves one
///    LoweredShape per candidate (content hash, registers, static
///    shared bytes, instruction count) and per input kernel, and r0 per
///    partition, and phases 2 and 3 read only those. On a store, a
///    clean phase 1 (no cancel, no failed candidate, no fired fault)
///    persists them as one phase-1 summary, keyed on the executable's
///    GNU build ID and everything phase 1 reads (kernels, scales, arch,
///    partial barriers, partitions, whether bounds are tried); a later
///    search whose key hits fills its candidates from that record and
///    neither compiles an input kernel nor fuses. Verified runs and
///    binaries without a build ID never read or write summaries;
///  - phase 2 (serial, canonical order): occupancy pruning
///    (Options::Prune). It applies only result-preserving rules:
///    candidates that cannot launch (0 blocks/SM), and bounded variants
///    whose register bound fails to raise theoretical blocks/SM over
///    their partition's unbounded variant — same code plus spill
///    traffic at no occupancy gain cannot win. Pruned candidates are
///    logged in SearchResult::Pruned with the dominating occupancy;
///  - phase 3 (parallel): simulate the kept candidates on
///    Options::SearchJobs workers, each owning a private Simulator and
///    workload context (identical contexts make every simulation
///    bit-deterministic); see profile/IncumbentSweep.h. Identical
///    launches (a register bound at or above the natural allocation
///    lowers to the very same IR) replay the memoized result.
///
/// With Options::Budget == SearchBudgetMode::Incumbent phase 3 is an
/// incumbent-driven branch-and-bound: candidates are ordered best-first
/// by the lower bound
///   waves x max_k(S_k / D_k) x spill-inflation
/// (S_k the kernel's static instruction count), the front-runner is
/// simulated to completion to seed the incumbent, and every other
/// candidate runs under a cycle budget = incumbent, overlapping
/// the seed behind an incumbent fence. This is exactly
/// result-preserving: a candidate abandoned at the budget has strictly
/// more cycles than the incumbent, so it can never be Best, and every
/// candidate at or below it (exact ties included, which Best breaks by
/// canonical order over All) completes with bit-identical cycles.
/// Abandoned candidates are logged in SearchResult::Abandoned with the
/// instructions they issued before the cutoff.
///
/// Candidate simulations are memoized per launch and persisted to the
/// ResultStore, both keyed on the fused IR's content hash from phase 1
/// (plus launch geometry; the disk key adds the simulator model and
/// workload identity), so a warm --cache-dir rerun is bit-identical to
/// a cold one. The fused IR itself is fetched only once the memo and
/// the disk both missed, and its fresh hash must match phase 1's: a
/// mismatch retires the candidate as an Internal failure. A warm search
/// whose summary and simulation records all hit therefore compiles,
/// fuses, lowers and simulates nothing. A context's workload inputs are
/// built at its first simulation, so a search the store answers builds
/// none.
///
/// The constructor compiles nothing. The input kernels compile through
/// the CompileCache on first need: a search whose phase-1 summary
/// misses compiles them before it takes its run id, a lazy lowering
/// before it fuses, and the baselines (runNative, runSolo, runSerial,
/// runHFused, regBound, soloRegs, and PairRunner's) before they run.
/// Only a complete set is kept; a failed compile is retried by the next
/// caller that needs the inputs.
///
/// Options::Cancel threads cancellation through the sweep: a cancelled,
/// deadlined or interrupted (SIGTERM/SIGINT) search stops at the next
/// candidate boundary and returns an *anytime* result — best-so-far
/// incumbent, Partial flag, and every skipped candidate accounted in
/// the Unvisited ledger bucket. A cancel that lands while a search
/// compiles its input kernels makes it a Partial result of 0
/// candidates; a failed input compile makes it a !Ok one carrying the
/// compile's own code and transient flag, and so does a construction
/// failure (Internal). Neither spends a run id. When the token
/// never fires, every check is a relaxed atomic load and results are
/// bit-identical to a token-free run. The ledger identity Candidates ==
/// All + Pruned + Abandoned + Failed + Unvisited holds on every run,
/// partial or not, and Best/All are bit-identical across SearchJobs.
///
//===----------------------------------------------------------------------===//

#ifndef HFUSE_PROFILE_NWAYRUNNER_H
#define HFUSE_PROFILE_NWAYRUNNER_H

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
#include <vector>

namespace hfuse::profile {

/// One profiled fusion configuration (a row of the Figure 6 search).
struct FusionCandidate {
  /// Stable candidate id: the index in the canonical enumeration
  /// (partitions in order, unbounded before bounded), identical across
  /// SearchJobs. Trace spans, `--explain` rows, and the driver's
  /// failed:/abandoned: table rows all carry it, so they can be joined.
  int Id = -1;
  /// Partition sizes, in kernel order (Dims[k] threads for kernel k).
  std::vector<int> Dims;
  unsigned RegBound = 0; // 0 = unbounded
  double TimeMs = 0.0;
  uint64_t Cycles = 0;
  gpusim::SimResult Result;
};

/// A candidate skipped by occupancy pruning.
struct PrunedCandidate {
  int Id = -1; ///< canonical candidate id (see FusionCandidate::Id)
  std::vector<int> Dims;
  unsigned RegBound = 0;
  /// Theoretical blocks/SM of the pruned candidate.
  int BlocksPerSM = 0;
  /// Blocks/SM of the unbounded variant that dominates it.
  int DominatorBlocksPerSM = 0;
  std::string Reason;
};

/// A candidate abandoned mid-simulation by the incumbent cycle budget.
struct AbandonedCandidate {
  int Id = -1; ///< canonical candidate id (see FusionCandidate::Id)
  std::vector<int> Dims;
  unsigned RegBound = 0;
  /// The budget it ran under: the incumbent.
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
  std::vector<int> Dims;
  unsigned RegBound = 0;
  Status Err;
};

/// A candidate the sweep never reached because the request was
/// cancelled or deadlined first (SearchResult::Partial). Unvisited is
/// a verdict about the *request*, not the candidate: nothing is known
/// about it, and an un-cancelled rerun will measure it normally.
struct UnvisitedCandidate {
  int Id = -1; ///< canonical candidate id (see FusionCandidate::Id)
  std::vector<int> Dims;
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
  double WallMs = 0.0; ///< wall-clock time of searchBestConfig
};

/// Result of the configuration search.
struct SearchResult {
  bool Ok = false;
  /// Process-unique id of this search run ("s<N>:<a>+<b>[+<c>...]"),
  /// threaded through every trace span the search emits so table rows
  /// and Perfetto tracks can be joined. Empty when the runner failed to
  /// construct or its input kernels failed to compile: that search used
  /// up no id.
  std::string RunId;
  /// The first failure observed, or the reason no candidate was
  /// feasible. Ok() when the search succeeded — possibly with
  /// individual candidates retired into Failed.
  Status Err;
  FusionCandidate Best;
  std::vector<FusionCandidate> All;
  std::vector<PrunedCandidate> Pruned;
  std::vector<AbandonedCandidate> Abandoned;
  /// Candidates retired by contained failures, in canonical order. The
  /// sweep's Best is bit-identical to a failure-free sweep as long as
  /// the winner itself is healthy.
  std::vector<FailedCandidate> Failed;
  /// Anytime-result marker: the search was cancelled or deadlined
  /// mid-sweep and at least one candidate went unvisited, or before the
  /// sweep (during input-kernel compilation) with a ledger of 0
  /// candidates. Ok stays true when an incumbent was measured — Best
  /// is then the best of what *was* measured (never a silent
  /// half-answer: the Unvisited ledger says exactly what was skipped) —
  /// and false when the cancel landed before any measurement. Complete
  /// runs (Partial == false) are bit-identical to an un-cancelled
  /// sweep.
  bool Partial = false;
  /// Why the sweep is partial: Cancelled or DeadlineExceeded (ok()
  /// when Partial is false).
  Status PartialReason;
  /// Candidates never reached, in canonical order.
  std::vector<UnvisitedCandidate> Unvisited;
  SearchStats Stats;
};

class NWayRunner {
public:
  /// The shared SearchOptions knobs plus the workload scales.
  struct Options : SearchOptions {
    /// SizeScale of each kernel's workload, in kernel order (the
    /// Figure 7 ratio knob). One entry applies to every kernel; none
    /// means 1.0.
    std::vector<double> Scales;
  };

  /// Builds the primary simulator context; compiles nothing.
  NWayRunner(std::vector<kernels::BenchKernelId> Ids, Options Opts);

  /// False when construction failed, or when the last compile of the
  /// input kernels failed (they compile on first need, see the file
  /// comment); error() then says why. A runner whose inputs never had
  /// to compile is ok().
  bool ok() const;
  const std::string &error() const { return Err.message(); }

  /// Registers per thread of kernel \p K compiled standalone; 0 when
  /// the input kernels fail to compile.
  unsigned soloRegs(size_t K);

  /// All kernels launched concurrently, one stream each (the paper's
  /// native baseline).
  gpusim::SimResult runNative();

  /// Kernel \p K alone, with its preferred launch shape (Figure 8
  /// metrics).
  gpusim::SimResult runSolo(size_t K);

  /// All kernels launched back to back, one simulation each; returns a
  /// synthetic result whose cycles/time are the serial sums — the
  /// sequential baseline.
  gpusim::SimResult runSerial();

  /// Horizontally fused with the given partition and optional bound.
  gpusim::SimResult runHFused(const std::vector<int> &Dims,
                              unsigned RegBound);

  /// The register bound r0 of Figure 6 lines 13-16 for a partition:
  /// b_k = RegsPerSM / (D_k * NRegs_k) per kernel, b0 = min over every
  /// b_k plus the shared-memory and thread-count limits, and
  /// r0 = RegsPerSM / (b0 * D0).
  std::optional<unsigned> regBound(const std::vector<int> &Dims);

  /// The configuration search over partitions() (see the file comment).
  SearchResult searchBestConfig();

protected:
  struct SimContext {
    std::unique_ptr<gpusim::Simulator> Sim;
    /// Constructed with the context, so their launch shapes are known;
    /// their inputs exist in Sim only once setUp() ran.
    std::vector<std::unique_ptr<kernels::Workload>> W;
    bool IsSetUp = false;
  };

  /// Sets up \p C's workloads in its simulator (allocates and fills
  /// their inputs, which fixes their params()) on the first call, and
  /// returns \p C. Only a context about to simulate needs that, so a
  /// search the store answers sets up none; every params() reader
  /// calls this first.
  SimContext &setUp(SimContext &C);

  /// The partitions the search sweeps, in canonical order: Figure 6's
  /// list for a pair, the product of per-kernel choices for more
  /// kernels (see the file comment).
  std::vector<std::vector<int>> partitions() const;

  /// The search over \p Partitions, each followed by its bounded
  /// variant when \p TryBound.
  SearchResult sweep(const std::vector<std::vector<int>> &Partitions,
                     bool TryBound);

  gpusim::SimResult fail(const std::string &Message) const;

  /// Runs \p L at StatsLevel::Full; \p VerifyThreads[k] > 0 verifies
  /// workload k against that many threads' worth of output.
  gpusim::SimResult runLaunches(SimContext &C,
                                const std::vector<gpusim::KernelLaunch> &L,
                                const std::vector<int> &VerifyThreads,
                                const gpusim::RunBudget &Budget = {},
                                double *FenceWaitMs = nullptr);

  /// The grid every fused launch runs: the largest preferred grid.
  int commonGrid() const;
  /// The dynamic shared bytes every fused launch gets: the sum of the
  /// kernels' own.
  uint32_t fusedDynShared() const;

  /// Compiles the input kernels into Ks through the CompileCache unless
  /// a complete set is there already; thread-safe. On failure Ks stays
  /// empty, ok() turns false and the failure (an input compile's own
  /// code and transient flag) is returned and kept in Err; the next call
  /// compiles again. A runner whose construction failed returns Err.
  Status compileInputs();

  std::vector<kernels::BenchKernelId> Ids;
  /// Construction succeeded.
  bool Ready = false;
  /// Why construction or the last input compile failed, or the last
  /// failure of a public run* or regBound call.
  Status Err;
  /// The compiled input kernels, in kernel order: empty until
  /// compileInputs() succeeds, then never changed again. Read them only
  /// after a successful compileInputs() on the same thread.
  std::vector<std::shared_ptr<const CompiledKernel>> Ks;

  /// Serves the public run* methods; the search lends it to a worker
  /// and builds additional contexts on demand, one per concurrent
  /// worker. Contexts are interchangeable: identical seeds and
  /// allocation order make every simulation bit-deterministic.
  SimContext Primary;

private:
  /// The fusion + lowering pipeline state of one partition: ByBound
  /// holds one allocation per register bound over the shared codegen
  /// output.
  struct FusionEntry {
    std::mutex Mu;
    bool Attempted = false;
    /// Recorded permanent failure of the fusion/codegen stage.
    /// Transient (injected) failures are returned to the caller but
    /// never stored: the entry resets so a retry redoes the work.
    Status Err;
    std::unique_ptr<cuda::ASTContext> Ctx;
    /// Codegen output before register allocation; copied per bound.
    std::unique_ptr<ir::IRKernel> BaseIR;
    /// Registers of the unbounded allocation (0 until computed); bounds
    /// at or above it alias the unbounded IR.
    unsigned UnboundedRegs = 0;
    std::map<unsigned, std::shared_ptr<ir::IRKernel>> ByBound;
  };

  double scale(size_t K) const;
  /// Kernel \p K alone at its preferred launch shape, in Primary.
  gpusim::KernelLaunch soloLaunch(size_t K);
  std::unique_ptr<SimContext> makeContext(std::string &Error) const;
  SimContext *acquireContext(std::string &Error);
  void releaseContext(SimContext *C);

  /// Fused IR for (Dims, RegBound) through the caches; null on error
  /// (with \p Err set).
  std::shared_ptr<ir::IRKernel> getFusedIR(const std::vector<int> &Dims,
                                           unsigned RegBound, Status &Err);
  /// Simulates (Dims, RegBound), whose fused IR has content hash
  /// \p Hash, under \p Budget in context \p C, or, when \p C is null,
  /// in a pooled context taken only if no memo or disk hit answers
  /// first. The IR is fetched (fused and lowered if need be) only for a
  /// simulation; one whose hash is not \p Hash is an Internal failure,
  /// and a failed fetch reports its own Status in \p Err. Neither is
  /// memoized or stored. A fixed budget of 0 runs to completion;
  /// otherwise the simulation is abandoned (SimResult::BudgetExceeded)
  /// once its cycles provably exceed the budget. An abort is served
  /// from the memo or the store only to callers whose budget is at least
  /// as tight as the stored abort's (SimMemo). A gated budget's result
  /// is published (memo, store) and returned only once its fence
  /// resolved; a run whose fence failed comes back void (voidRun).
  /// Fence waits add to \p FenceWaitMs.
  gpusim::SimResult runHFusedIn(SimContext *C, const std::vector<int> &Dims,
                                unsigned RegBound, uint64_t Hash,
                                Status &Err, SearchStats *Stats,
                                const gpusim::RunBudget &Budget = {},
                                double *FenceWaitMs = nullptr);
  /// regBound() over the compiled inputs (compileInputs() succeeded).
  std::optional<unsigned> regBoundImpl(const std::vector<int> &Dims,
                                       Status &Err);
  /// The store key of sweep()'s phase-1 summary: the executable's build
  /// ID plus everything phase 1 reads. Empty when summaries are off
  /// (no store, a verified run, or a binary without a build ID).
  std::string phase1SummaryKey(
      const std::vector<std::vector<int>> &Partitions, bool TryBound) const;
  /// "+"-joined display names ("blake256+sha256+ethash").
  std::string namesLabel() const;

  Options Opts;
  std::shared_ptr<CompileCache> Cache;

  /// Guards Ks while it fills, and InputsFailed.
  mutable std::mutex InputsMu;
  /// The last compileInputs() failed.
  bool InputsFailed = false;

  /// Contexts not currently lent to a search worker (includes Primary).
  std::vector<SimContext *> FreeContexts;
  std::vector<std::unique_ptr<SimContext>> ExtraContexts;
  std::mutex ContextMu;

  std::map<std::vector<int>, std::unique_ptr<FusionEntry>> FusionCache;
  std::mutex FusionCacheMu;

  /// Memoized simulation results (profile/SimMemo.h).
  SimMemo Memo;
};

/// "/"-joined partition sizes ("256/256/256"), the label of a partition
/// in fault sites, trace spans, and driver tables.
std::string dimsLabel(const std::vector<int> &Dims);

} // namespace hfuse::profile

#endif // HFUSE_PROFILE_NWAYRUNNER_H
