//===-- profile/Compile.h - Kernel compilation helpers ----------*- C++ -*-===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience wrappers tying the pipeline together: CuLite source ->
/// preprocessed AST -> SASS-lite IR -> register-allocated executable
/// kernel, with an optional register bound (the paper's -maxrregcount
/// analogue).
///
//===----------------------------------------------------------------------===//

#ifndef HFUSE_PROFILE_COMPILE_H
#define HFUSE_PROFILE_COMPILE_H

#include "cudalang/AST.h"
#include "gpusim/Simulator.h"
#include "ir/IR.h"
#include "kernels/Kernels.h"
#include "support/CancellationToken.h"
#include "support/Diagnostics.h"
#include "support/ResultStore.h"
#include "support/Retry.h"
#include "support/Status.h"
#include "transform/Pipeline.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <tuple>
#include <vector>

namespace hfuse::profile {

/// Version stamp for everything the search serializes into a
/// ResultStore: the SimResult and phase-1 summary codecs and the
/// disk-key construction. Bump it whenever any of those changes — an
/// old record is then quarantined by the first get() that reads it
/// instead of being misread. Schema 4 keys kernels by
/// ir::IRKernel::contentHash(). The phase-1 summary's payload may change
/// without a bump: its key carries the writing executable's build ID, so
/// no other binary ever reads it (NWayRunner::phase1SummaryKey).
inline constexpr uint32_t kStoreSchemaVersion = 4;

/// Deterministic binary codec for a simulation result. Bit-exact: every
/// integer field round-trips verbatim and doubles round-trip by IEEE
/// bit pattern, which is what makes a warm-cache sweep able to
/// reproduce a cold sweep byte for byte.
std::string encodeSimResult(const gpusim::SimResult &R);
/// Null when the bytes are not exactly one well-formed record (wrong
/// length, truncated, trailing garbage).
std::optional<gpusim::SimResult> decodeSimResult(std::string_view Bytes);

/// Whether \p R may be persisted to and served from a ResultStore: a
/// completed run, or a clean budget abort — BudgetExceeded with no
/// fault, cancel, timeout or deadlock mixed in (a wedged run can hit the
/// budget too). An abort's record carries its budget (TotalCycles) and
/// TotalIssued, so a replay prints the same abandoned row.
bool isStorableSimResult(const gpusim::SimResult &R);

/// What phase 1 of a configuration search learns about one lowered
/// candidate or input kernel: everything pruning, the bound ordering and
/// the simulation memo read, so phases 2 and 3 never touch the IR
/// itself.
struct LoweredShape {
  uint64_t Hash = 0;         ///< ir::IRKernel::contentHash()
  unsigned ArchRegs = 0;     ///< ArchRegsPerThread
  uint32_t StaticShared = 0; ///< StaticSharedBytes
  uint64_t Insts = 0;        ///< numInstructions()

  static LoweredShape of(const ir::IRKernel &IR);
};

/// One candidate of a phase-1 summary record, in canonical order: its
/// register bound and lowered shape. A bounded slot whose partition has
/// no r0 has no shape.
struct Phase1Entry {
  unsigned RegBound = 0;
  std::optional<LoweredShape> Shape;
};

/// A phase-1 summary record: the input kernels' own shapes, in kernel
/// order (the bound ordering reads their instruction counts), and one
/// entry per candidate.
struct Phase1Summary {
  std::vector<LoweredShape> Inputs;
  std::vector<Phase1Entry> Entries;
};

/// Deterministic codec for a phase-1 summary (NWayRunner::sweep).
/// decodePhase1Summary is null unless the bytes are exactly one
/// well-formed record.
std::string encodePhase1Summary(const Phase1Summary &Summary);
std::optional<Phase1Summary> decodePhase1Summary(std::string_view Bytes);

/// A fully compiled kernel: the preprocessed AST (kept alive so it can
/// be used as fusion input) plus the executable IR.
struct CompiledKernel {
  std::unique_ptr<transform::PreprocessedKernel> Pre;
  std::unique_ptr<ir::IRKernel> IR;

  const cuda::FunctionDecl *fn() const { return Pre->Kernel; }
};

/// Compiles CuLite \p Source (kernel \p Name, or the only kernel when
/// empty). \p RegBound of 0 means unbounded. Null + diagnostics on error.
std::unique_ptr<CompiledKernel> compileSource(std::string_view Source,
                                              const std::string &Name,
                                              unsigned RegBound,
                                              DiagnosticEngine &Diags);

/// Same, reporting the failing phase as a structured Status (ParseError,
/// SemaError, CodegenError, or RegAllocError) with the rendered
/// diagnostics as the message. This is also the fault-injection point
/// for FaultSite::Compile (label = kernel name). Never asserts on
/// malformed input.
Expected<std::unique_ptr<CompiledKernel>>
compileSourceOr(std::string_view Source, const std::string &Name,
                unsigned RegBound, DiagnosticEngine &Diags);

/// Compiles one of the paper's benchmark kernels.
std::unique_ptr<CompiledKernel> compileBenchKernel(kernels::BenchKernelId Id,
                                                   unsigned RegBound,
                                                   DiagnosticEngine &Diags);

/// Lowers an already-fused function living in \p Ctx (runs Sema, then
/// codegen and register allocation with the given bound).
std::unique_ptr<ir::IRKernel> lowerFunction(cuda::ASTContext &Ctx,
                                            cuda::FunctionDecl *Fn,
                                            unsigned RegBound,
                                            DiagnosticEngine &Diags);

/// Lowers \p Fn through Sema + codegen only, leaving virtual registers
/// unallocated. The result can be copied and fed to
/// ir::allocateRegisters once per register bound, so the AST work of a
/// Figure 6 partition is done once while its bounded/unbounded variants
/// still get independent allocations.
std::unique_ptr<ir::IRKernel> lowerFunctionNoRegAlloc(
    cuda::ASTContext &Ctx, cuda::FunctionDecl *Fn, DiagnosticEngine &Diags);

/// A process-wide, thread-safe compilation cache for the search pipeline.
///
/// Full front-end compilations (CuLite source -> executable IR) are
/// keyed on (source hash, source length, kernel name, register bound),
/// so the input kernels of every runner in a process — and of the
/// runners in the bench loops — compile once per distinct key. Entries
/// are immutable after insertion and shared as
/// shared_ptr<const CompiledKernel>. A lookup and the compile it may
/// run both hold the cache's mutex, so concurrent requests for one key
/// compile it once. The product caller, NWayRunner, compiles its input
/// kernels serially, on first need (a phase-1 summary miss, a lazy
/// lowering or a baseline), so a search the store answers calls nothing
/// here.
///
/// The cache also owns the search-wide statistics counters. Fused-kernel
/// fusion/lowering and simulator memoization live in NWayRunner (they
/// need per-search context), but report their hit/miss counts here so
/// one object tells the whole caching story of a run.
class CompileCache {
public:
  struct Stats {
    uint64_t KernelCompiles = 0; ///< front-end compilations executed
    uint64_t KernelHits = 0;     ///< compilations served from cache
    uint64_t FusionRuns = 0;     ///< fuseHorizontalMany invocations
    uint64_t FusionHits = 0;     ///< fusions reused across reg variants
    uint64_t Lowerings = 0;      ///< fused codegen+regalloc executed
    uint64_t LoweringHits = 0;   ///< fused lowerings served from cache
    uint64_t SimRuns = 0;        ///< candidate simulations executed
    uint64_t SimMemoHits = 0;    ///< simulations served by memoization
    uint64_t CompileRetries = 0; ///< transient compile failures retried
    uint64_t DiskHits = 0;       ///< results served from the ResultStore
    uint64_t DiskMisses = 0;     ///< ResultStore consulted, no answer
    uint64_t DiskWrites = 0;     ///< results persisted to the ResultStore
    /// Simulator contexts whose workload inputs were built (a search
    /// the store answers builds none).
    uint64_t ContextSetups = 0;
    /// Searches whose phase 1 a stored summary answered, and summaries
    /// persisted after a clean phase 1 (NWayRunner::sweep). The Disk*
    /// counters above count simulation records only.
    uint64_t SummaryHits = 0;
    uint64_t SummaryWrites = 0;
  };

  /// Compiles (or fetches) CuLite \p Source. On failure returns null,
  /// appends the recorded diagnostics to \p Diags, and (when \p Err is
  /// non-null) stores the structured failure Status.
  ///
  /// Only successful compilations are cached: a failed compile is never
  /// inserted, so the next request for the key compiles afresh
  /// (injected and transient faults must be retryable, and a permanent
  /// failure simply recompiles, which is cheap next to the sweep). An
  /// already-cancelled \p Cancel returns its status before touching the
  /// map.
  std::shared_ptr<const CompiledKernel>
  getKernel(std::string_view Source, const std::string &Name,
            unsigned RegBound, DiagnosticEngine &Diags,
            Status *Err = nullptr,
            const CancellationToken &Cancel = CancellationToken());

  /// Compiles (or fetches) one of the paper's benchmark kernels.
  std::shared_ptr<const CompiledKernel>
  getBenchKernel(kernels::BenchKernelId Id, unsigned RegBound,
                 DiagnosticEngine &Diags, Status *Err = nullptr,
                 const CancellationToken &Cancel = CancellationToken());

  Stats stats() const;

  /// Bumps one statistics counter (used by NWayRunner for the fusion,
  /// lowering, simulation, context set-up and summary layers).
  void count(uint64_t Stats::*Counter, uint64_t N = 1);

  /// Attaches an on-disk second-level store. Simulation results and
  /// phase-1 summaries are both served and persisted through it (see
  /// load/storeSimResult and load/storePhase1Summary); kernel compiles
  /// never touch it. Null detaches.
  void attachStore(std::shared_ptr<ResultStore> Store);
  std::shared_ptr<ResultStore> store() const;
  bool hasStore() const;

  /// Retry schedule for Status::transient() compile failures. The
  /// default (MaxAttempts = 1) never retries, preserving historical
  /// compile-count behavior; hfusec opts in via --compile-retries.
  void setRetryPolicy(RetryPolicy Policy);

  /// Looks a simulation result up in the attached store: a completed
  /// run or a clean budget abort (isStorableSimResult), never a failure.
  /// Nullopt when nothing usable is stored, on any contained disk
  /// failure, or without a store. Counts nothing: whether a record
  /// answers depends on the caller's budget, so SimMemo counts the disk
  /// hit or miss once it knows.
  std::optional<gpusim::SimResult> loadSimResult(const std::string &Key);
  /// Persists \p R under \p Key, replacing any record there. No-op
  /// unless a store is attached and isStorableSimResult(R); failures are
  /// contained (counted, never propagated).
  void storeSimResult(const std::string &Key, const gpusim::SimResult &R);

  /// Looks a phase-1 summary up in the attached store. Nullopt without
  /// a store, on a miss or any contained disk failure, and for a
  /// payload that does not decode. Counts nothing: the search counts a
  /// hit once the record fits its candidates.
  std::optional<Phase1Summary> loadPhase1Summary(const std::string &Key);
  /// Persists \p Summary under \p Key, replacing any record there; a
  /// landed write counts SummaryWrites. Failures are contained.
  void storePhase1Summary(const std::string &Key,
                          const Phase1Summary &Summary);

private:
  struct Key {
    size_t SourceHash;
    size_t SourceLen;
    std::string Name;
    unsigned RegBound;
    bool operator<(const Key &O) const {
      return std::tie(SourceHash, SourceLen, Name, RegBound) <
             std::tie(O.SourceHash, O.SourceLen, O.Name, O.RegBound);
    }
  };

  mutable std::mutex Mu;
  std::map<Key, std::shared_ptr<const CompiledKernel>> Map;
  Stats S;
  std::shared_ptr<ResultStore> Store_;
  RetryPolicy Retry_;
};

/// The default process-wide cache instance: NWayRunner falls back to
/// it when Options::Cache is null, so independent runners in one
/// process share kernel compilations. Tests and benches that count
/// compilations pass their own instance instead.
CompileCache &globalCompileCache();

} // namespace hfuse::profile

#endif // HFUSE_PROFILE_COMPILE_H
