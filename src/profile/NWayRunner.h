//===-- profile/NWayRunner.h - N-way fusion portfolio search ----*- C++ -*-===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The N-way generalization of the Figure 6 configuration search
/// (PairRunner.h): given 3+ benchmark kernels, enumerate the
/// thread-space partitions of a fused block — warp-multiple splits, a
/// 128-thread granularity per tunable kernel, summing to at most the
/// 1024 threads-per-block hardware limit; fixed-shape (crypto) kernels
/// pin their partition to the native 256 — lower each through
/// transform::fuseHorizontalMany, and profile every candidate with and
/// without the generalized register bound r0.
///
/// The sweep is the same three-phase pipeline as the pair search and
/// reuses all of its machinery with identical semantics:
///
///  - phase 1 (parallel): fuse + lower per partition, register-bound
///    variants sharing the fusion/codegen via the per-runner fusion
///    cache; input kernels compile once through the process-wide
///    CompileCache no matter how many portfolios contain them;
///  - phase 2 (serial, canonical order): occupancy pruning — the same
///    level 1 result-preserving rules and level 2 dominance heuristic
///    (margin-readmitted under a budget);
///  - phase 3 (parallel): simulate the kept candidates. Under
///    SearchBudgetMode::Incumbent candidates are ordered best-first by
///    the generalized lower bound
///      waves x max_k(S_k / D_k) x spill-inflation
///    (S_k the kernel's static instruction count, or its measured solo
///    issued count with Options::MeasuredBound) and everything after
///    the seed runs under CycleBudget = incumbent, overlapping the
///    seed behind an incumbent fence (profile/IncumbentSweep.h);
///    SearchBudgetMode::IncumbentTight additionally tightens the
///    budget through a shared atomic minimum with the deterministic
///    post-sweep reporting described in SearchOptions.h.
///
/// Candidate simulations are memoized per launch and persisted to the
/// ResultStore keyed on the fused IR's content hash (plus launch
/// geometry, simulator model, and workload identity), so a warm
/// --cache-dir rerun is bit-identical to a cold one. The ledger
/// identity Candidates == All + Pruned + Abandoned + Failed +
/// Unvisited holds on every run, partial or not, and Best/All are
/// bit-identical across SearchJobs.
///
//===----------------------------------------------------------------------===//

#ifndef HFUSE_PROFILE_NWAYRUNNER_H
#define HFUSE_PROFILE_NWAYRUNNER_H

#include "gpusim/Simulator.h"
#include "kernels/Workload.h"
#include "profile/Compile.h"
#include "profile/PairRunner.h"
#include "profile/SearchOptions.h"
#include "profile/SimMemo.h"
#include "support/Status.h"

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

namespace hfuse::profile {

/// One profiled N-way fusion configuration.
struct NWayCandidate {
  /// Canonical candidate id: the index in the enumeration (partitions
  /// in lexicographic order, unbounded before bounded), identical
  /// across SearchJobs.
  int Id = -1;
  /// Partition sizes, in kernel order (Dims[k] threads for kernel k).
  std::vector<int> Dims;
  unsigned RegBound = 0; // 0 = unbounded
  double TimeMs = 0.0;
  uint64_t Cycles = 0;
  gpusim::SimResult Result;
};

/// A candidate skipped by occupancy-dominance pruning.
struct NWayPrunedCandidate {
  int Id = -1;
  std::vector<int> Dims;
  unsigned RegBound = 0;
  int BlocksPerSM = 0;
  int DominatorBlocksPerSM = 0;
  std::string Reason;
};

/// A candidate abandoned mid-simulation by the incumbent cycle budget.
struct NWayAbandonedCandidate {
  int Id = -1;
  std::vector<int> Dims;
  unsigned RegBound = 0;
  uint64_t BudgetCycles = 0;
  uint64_t IssuedInsts = 0;
};

/// A candidate retired by a contained failure (fusion validation,
/// codegen, register allocation, or simulation — including injected
/// faults). The sweep records it and moves on.
struct NWayFailedCandidate {
  int Id = -1;
  std::vector<int> Dims;
  unsigned RegBound = 0;
  Status Err;
};

/// A candidate never reached because the request was cancelled or
/// deadlined first.
struct NWayUnvisitedCandidate {
  int Id = -1;
  std::vector<int> Dims;
  unsigned RegBound = 0;
  bool BoundPending = false;
};

/// Result of the N-way search. Same shape and semantics as the pair
/// search's SearchResult; cost accounting reuses SearchStats.
struct NWaySearchResult {
  bool Ok = false;
  /// Process-unique run id ("s<N>:<a>+<b>+<c>"), same sequence as the
  /// pair search's.
  std::string RunId;
  std::string Error;
  Status Err;
  NWayCandidate Best;
  std::vector<NWayCandidate> All;
  std::vector<NWayPrunedCandidate> Pruned;
  std::vector<NWayAbandonedCandidate> Abandoned;
  std::vector<NWayFailedCandidate> Failed;
  bool Partial = false;
  Status PartialReason;
  std::vector<NWayUnvisitedCandidate> Unvisited;
  SearchStats Stats;
};

class NWayRunner {
public:
  /// The shared SearchOptions knobs plus one workload scale applied to
  /// every kernel (the pair runner's per-kernel ratio knob does not
  /// generalize usefully to portfolios).
  struct Options : SearchOptions {
    double Scale = 1.0;
  };

  NWayRunner(std::vector<kernels::BenchKernelId> Ids, Options Opts);

  bool ok() const { return Ready; }
  const std::string &error() const { return Err; }

  const std::vector<kernels::BenchKernelId> &kernelIds() const {
    return Ids;
  }

  /// All kernels launched concurrently (one stream each) — the native
  /// baseline the fused candidates must beat.
  gpusim::SimResult runNative();

  /// All kernels launched back to back, one simulation each; returns a
  /// synthetic result whose cycles/time are the serial sums — the
  /// sequential baseline.
  gpusim::SimResult runSerial();

  /// Horizontally fused with the given partition and optional bound.
  gpusim::SimResult runHFused(const std::vector<int> &Dims,
                              unsigned RegBound);

  /// The generalized Figure 6 register bound r0 for a partition:
  /// b_k = RegsPerSM / (D_k * NRegs_k) per kernel, b0 = min over every
  /// b_k plus the shared-memory and thread-count limits, and
  /// r0 = RegsPerSM / (b0 * D0).
  std::optional<unsigned> regBound(const std::vector<int> &Dims);

  /// The N-way portfolio search (see the file comment).
  NWaySearchResult searchBestConfig();

  /// The cache backing this runner (for statistics reporting).
  CompileCache &cache() { return *Cache; }

private:
  struct SimContext {
    std::unique_ptr<gpusim::Simulator> Sim;
    std::vector<std::unique_ptr<kernels::Workload>> W;
  };

  /// Fusion + lowering state of one partition (same contract as
  /// PairRunner::FusionEntry).
  struct FusionEntry {
    std::mutex Mu;
    bool Attempted = false;
    Status Err;
    std::unique_ptr<cuda::ASTContext> Ctx;
    cuda::FunctionDecl *Fused = nullptr;
    uint32_t DynShared = 0;
    std::unique_ptr<ir::IRKernel> BaseIR;
    unsigned UnboundedRegs = 0;
    std::map<unsigned, std::shared_ptr<ir::IRKernel>> ByBound;
  };

  gpusim::SimResult fail(const std::string &Message) const;

  std::unique_ptr<SimContext> makeContext(std::string &Error) const;
  SimContext *acquireContext(std::string &Error);
  void releaseContext(SimContext *C);

  std::shared_ptr<ir::IRKernel> getFusedIR(const std::vector<int> &Dims,
                                           unsigned RegBound,
                                           uint32_t &DynShared,
                                           Status &Err);
  /// Same contract as PairRunner::runHFusedIn.
  gpusim::SimResult runHFusedIn(SimContext *C, const std::vector<int> &Dims,
                                unsigned RegBound, Status &Err,
                                SearchStats *Stats,
                                const gpusim::RunBudget &Budget = {},
                                double *FenceWaitMs = nullptr);
  /// Runs \p L at StatsLevel::Full; \p VerifyThreads[k] > 0 verifies
  /// workload k against that many threads' worth of output.
  gpusim::SimResult runLaunches(SimContext &C,
                                const std::vector<gpusim::KernelLaunch> &L,
                                const std::vector<int> &VerifyThreads,
                                const gpusim::RunBudget &Budget = {},
                                double *FenceWaitMs = nullptr);
  std::optional<unsigned> regBoundImpl(const std::vector<int> &Dims,
                                       Status &Err);
  uint64_t soloIssuedCount(size_t Which, Status &E, SearchStats *Stats);
  int commonGrid() const;
  /// "+"-joined display names ("blake256+sha256+ethash").
  std::string namesLabel() const;

  std::vector<kernels::BenchKernelId> Ids;
  Options Opts;
  bool Ready = false;
  std::string Err;

  std::shared_ptr<CompileCache> Cache;
  std::vector<std::shared_ptr<const CompiledKernel>> Ks;

  std::vector<std::optional<uint64_t>> SoloIssued;

  SimContext Primary;
  std::vector<SimContext *> FreeContexts;
  std::vector<std::unique_ptr<SimContext>> ExtraContexts;
  std::mutex ContextMu;

  std::map<std::pair<std::vector<int>, unsigned>,
           std::unique_ptr<FusionEntry>>
      FusionCache;
  std::mutex FusionCacheMu;

  /// Memoized simulation results (profile/SimMemo.h).
  SimMemo Memo;
};

/// "/"-joined partition sizes ("256/256/256"), the N-way analogue of
/// the pair search's "D1/D2" labels in fault sites, trace spans, and
/// driver tables.
std::string dimsLabel(const std::vector<int> &Dims);

} // namespace hfuse::profile

#endif // HFUSE_PROFILE_NWAYRUNNER_H
