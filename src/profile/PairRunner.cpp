//===-- profile/PairRunner.cpp - Benchmark-pair experiment driver ---------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "profile/PairRunner.h"

#include "cudalang/ASTPrinter.h"
#include "gpusim/Occupancy.h"
#include "ir/RegAlloc.h"
#include "profile/IncumbentSweep.h"
#include "support/BinaryCodec.h"
#include "support/FaultInjector.h"
#include "support/Hashing.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "transform/Fusion.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>

using namespace hfuse;
using namespace hfuse::gpusim;
using namespace hfuse::kernels;
using namespace hfuse::profile;

unsigned hfuse::profile::nextSearchRunSeq() {
  static std::atomic<unsigned> NextRunSeq{0};
  return NextRunSeq.fetch_add(1, std::memory_order_relaxed) + 1;
}

PairRunner::PairRunner(BenchKernelId A, BenchKernelId B, Options Opts)
    : IdA(A), IdB(B), Opts(std::move(Opts)) {
  // Null means the process-wide default cache, so independent runners
  // (e.g. the bench loops over all 16 pairs) share kernel compiles.
  Cache = this->Opts.Cache
              ? this->Opts.Cache
              : std::shared_ptr<CompileCache>(&globalCompileCache(),
                                              [](CompileCache *) {});

  // An empty token is upgraded to a private live one so the cancel-*
  // fault sites (and callers holding a copy of Options) always have a
  // real token to fire; it has no deadline and no external cancel()
  // caller, so it cannot fire on its own.
  if (!this->Opts.Cancel.valid())
    this->Opts.Cancel = CancellationToken::make();

  DiagnosticEngine Diags;
  if (this->Opts.UseCompileCache) {
    K1 = Cache->getBenchKernel(A, /*RegBound=*/0, Diags, nullptr,
                               this->Opts.Cancel);
    K2 = Cache->getBenchKernel(B, /*RegBound=*/0, Diags, nullptr,
                               this->Opts.Cancel);
  } else {
    // Seed cost profile: compile both inputs from scratch.
    Cache->count(&CompileCache::Stats::KernelCompiles, 2);
    K1 = compileBenchKernel(A, /*RegBound=*/0, Diags);
    K2 = compileBenchKernel(B, /*RegBound=*/0, Diags);
  }
  if (!K1 || !K2) {
    Err = "kernel compilation failed:\n" + Diags.str();
    return;
  }

  std::string CtxErr;
  std::unique_ptr<SimContext> C = makeContext(CtxErr);
  if (!C) {
    Err = CtxErr;
    return;
  }
  Primary = std::move(*C);
  FreeContexts.push_back(&Primary);
  Ready = true;
}

std::unique_ptr<PairRunner::SimContext>
PairRunner::makeContext(std::string &Error) const {
  auto C = std::make_unique<SimContext>();

  WorkloadConfig C1;
  C1.SizeScale = Opts.Scale1;
  C1.SimSMs = Opts.SimSMs;
  C1.Seed = Opts.Seed;
  WorkloadConfig C2 = C1;
  C2.SizeScale = Opts.Scale2;
  C2.Seed = Opts.Seed + 1;
  C->W1 = makeWorkload(IdA, C1);
  C->W2 = makeWorkload(IdB, C2);
  if (!C->W1 || !C->W2) {
    Error = "workload construction failed";
    return nullptr;
  }

  SimConfig SC;
  SC.Arch = Opts.Arch;
  SC.SimSMs = Opts.SimSMs;
  SC.ModelL2 = Opts.ModelL2;
  SC.WatchdogCycles = Opts.WatchdogCycles;
  SC.WallTimeoutMs = Opts.WallTimeoutMs;
  SC.Cancel = Opts.Cancel;
  C->Sim = std::make_unique<Simulator>(SC);
  C->W1->setup(*C->Sim);
  C->W2->setup(*C->Sim);
  return C;
}

PairRunner::SimContext *PairRunner::acquireContext(std::string &Error) {
  {
    std::lock_guard<std::mutex> Lock(ContextMu);
    if (!FreeContexts.empty()) {
      SimContext *C = FreeContexts.back();
      FreeContexts.pop_back();
      return C;
    }
  }
  // Build a fresh context outside the lock; setup is the expensive part.
  std::unique_ptr<SimContext> C = makeContext(Error);
  if (!C)
    return nullptr;
  std::lock_guard<std::mutex> Lock(ContextMu);
  ExtraContexts.push_back(std::move(C));
  return ExtraContexts.back().get();
}

void PairRunner::releaseContext(SimContext *C) {
  std::lock_guard<std::mutex> Lock(ContextMu);
  FreeContexts.push_back(C);
}

unsigned PairRunner::soloRegs(int Which) const {
  return (Which == 0 ? K1 : K2)->IR->ArchRegsPerThread;
}

int PairRunner::commonGrid() const {
  return std::max(Primary.W1->preferredGrid(), Primary.W2->preferredGrid());
}

SimResult PairRunner::fail(const std::string &Message) const {
  SimResult R;
  R.Error = Message;
  return R;
}

SimResult PairRunner::runLaunches(
    SimContext &C, const std::vector<KernelLaunch> &Launches, int Threads1,
    int Threads2, const RunBudget &Budget, double *FenceWaitMs) {
  C.W1->clearOutputs(*C.Sim);
  C.W2->clearOutputs(*C.Sim);
  SimResult R = C.Sim->run(Launches, StatsLevel::Full, Budget, FenceWaitMs);
  if (!R.Ok)
    return R;
  if (Opts.Verify) {
    std::string VerifyErr;
    if (Threads1 > 0 && !C.W1->verify(*C.Sim, Threads1, VerifyErr)) {
      R.Ok = false;
      R.Error = "verification failed: " + VerifyErr;
      return R;
    }
    if (Threads2 > 0 && !C.W2->verify(*C.Sim, Threads2, VerifyErr)) {
      R.Ok = false;
      R.Error = "verification failed: " + VerifyErr;
      return R;
    }
  }
  return R;
}

SimResult PairRunner::runNative() {
  if (!Ready)
    return fail(Err);
  Workload *W1 = Primary.W1.get(), *W2 = Primary.W2.get();
  KernelLaunch L1;
  L1.Kernel = K1->IR.get();
  L1.GridDim = W1->preferredGrid();
  L1.BlockDim = W1->preferredBlock();
  L1.BlockDimY = W1->preferredBlockY();
  L1.DynSharedBytes = W1->dynSharedBytes();
  L1.Params = W1->params();
  L1.Label = kernelDisplayName(IdA);
  KernelLaunch L2;
  L2.Kernel = K2->IR.get();
  L2.GridDim = W2->preferredGrid();
  L2.BlockDim = W2->preferredBlock();
  L2.BlockDimY = W2->preferredBlockY();
  L2.DynSharedBytes = W2->dynSharedBytes();
  L2.Params = W2->params();
  L2.Label = kernelDisplayName(IdB);
  return runLaunches(Primary, {L1, L2},
                     L1.GridDim * W1->preferredBlockThreads(),
                     L2.GridDim * W2->preferredBlockThreads());
}

SimResult PairRunner::runSolo(int Which) {
  if (!Ready)
    return fail(Err);
  Workload *W = Which == 0 ? Primary.W1.get() : Primary.W2.get();
  const CompiledKernel *K = Which == 0 ? K1.get() : K2.get();
  KernelLaunch L;
  L.Kernel = K->IR.get();
  L.GridDim = W->preferredGrid();
  L.BlockDim = W->preferredBlock();
  L.BlockDimY = W->preferredBlockY();
  L.DynSharedBytes = W->dynSharedBytes();
  L.Params = W->params();
  L.Label = kernelDisplayName(Which == 0 ? IdA : IdB);
  int Total = L.GridDim * W->preferredBlockThreads();
  return runLaunches(Primary, {L}, Which == 0 ? Total : 0,
                     Which == 1 ? Total : 0);
}

uint64_t PairRunner::soloIssuedCount(int Which, Status &E,
                                     SearchStats *Stats) {
  std::optional<uint64_t> &Cached = SoloIssued[Which == 0 ? 0 : 1];
  if (Cached)
    return *Cached;
  std::string CtxErr;
  SimContext *Ctx = acquireContext(CtxErr);
  if (!Ctx) {
    E = Status(ErrorCode::WorkloadError, CtxErr);
    return 0;
  }
  Workload *W = Which == 0 ? Ctx->W1.get() : Ctx->W2.get();
  const CompiledKernel *K = Which == 0 ? K1.get() : K2.get();
  KernelLaunch L;
  L.Kernel = K->IR.get();
  L.GridDim = W->preferredGrid();
  L.BlockDim = W->preferredBlock();
  L.BlockDimY = W->preferredBlockY();
  L.DynSharedBytes = W->dynSharedBytes();
  L.Params = W->params();
  L.Label = kernelDisplayName(Which == 0 ? IdA : IdB);
  // Ranking probe only: Minimal stats (TotalIssued is level-invariant)
  // and no output verification.
  W->clearOutputs(*Ctx->Sim);
  SimResult R = Ctx->Sim->run({L}, StatsLevel::Minimal, /*CycleBudget=*/0);
  releaseContext(Ctx);
  if (!R.Ok) {
    E = statusFromSim(R);
    return 0;
  }
  Cache->count(&CompileCache::Stats::SimRuns);
  if (Stats) {
    ++Stats->Simulations;
    Stats->SimulatedInsts += R.TotalIssued;
  }
  Cached = R.TotalIssued;
  return *Cached;
}

SimResult PairRunner::runVFused() {
  if (!Ready)
    return fail(Err);
  if (!VFused) {
    DiagnosticEngine Diags;
    auto Ctx = std::make_unique<cuda::ASTContext>();
    transform::FusionResult FR = transform::fuseVertical(
        *Ctx, K1->fn(), K2->fn(), /*FusedName=*/"", Diags);
    if (!FR.Ok)
      return fail("vertical fusion failed:\n" + Diags.str());
    auto IR = lowerFunction(*Ctx, FR.Fused, /*RegBound=*/0, Diags);
    if (!IR)
      return fail("vertical fusion lowering failed:\n" + Diags.str());
    VFused = std::make_unique<CompiledKernel>();
    VFused->Pre = std::make_unique<transform::PreprocessedKernel>();
    VFused->Pre->Ctx = std::move(Ctx);
    VFused->Pre->Kernel = FR.Fused;
    VFused->IR = std::move(IR);
    VFusedDynShared =
        Primary.W1->dynSharedBytes() + Primary.W2->dynSharedBytes();
  }
  KernelLaunch L;
  L.Kernel = VFused->IR.get();
  int Grid = commonGrid();
  L.GridDim = Grid;
  L.BlockDim = 256;
  L.DynSharedBytes = VFusedDynShared;
  L.Params = Primary.W1->params();
  L.Params.insert(L.Params.end(), Primary.W2->params().begin(),
                  Primary.W2->params().end());
  L.Label = formatString("VFuse(%s+%s)", kernelDisplayName(IdA),
                         kernelDisplayName(IdB));
  return runLaunches(Primary, {L}, Grid * 256, Grid * 256);
}

std::shared_ptr<ir::IRKernel>
PairRunner::getFusedIR(int D1, int D2, unsigned RegBound,
                       uint32_t &DynShared, Status &Err) {
  // With the cache on, one entry per partition serves every register
  // bound; with it off, each (partition, bound) redoes the pipeline.
  auto Key = std::make_tuple(D1, D2,
                             Opts.UseCompileCache ? 0u : RegBound);
  FusionEntry *Entry;
  {
    std::lock_guard<std::mutex> Lock(FusionCacheMu);
    std::unique_ptr<FusionEntry> &Slot = FusionCache[Key];
    if (!Slot)
      Slot = std::make_unique<FusionEntry>();
    Entry = Slot.get();
  }

  std::lock_guard<std::mutex> Lock(Entry->Mu);
  if (!Entry->Attempted) {
    // Fault-injection point for the fusion stage. Fired faults are
    // transient: return the failure without marking the entry
    // attempted, so a retry redoes the fusion instead of replaying an
    // injected error as if it were a property of the partition.
    if (Status S = FaultInjector::instance().check(
            FaultSite::Fuse, formatString("%d/%d", D1, D2));
        !S.ok()) {
      Err = std::move(S);
      return nullptr;
    }
    Entry->Attempted = true;
    Cache->count(&CompileCache::Stats::FusionRuns);
    DiagnosticEngine Diags;
    Entry->Ctx = std::make_unique<cuda::ASTContext>();
    transform::HorizontalFusionOptions HO;
    HO.D1 = D1;
    HO.D2 = D2;
    HO.Y1 = Primary.W1->preferredBlockY();
    HO.Y2 = Primary.W2->preferredBlockY();
    HO.UsePartialBarriers = Opts.UsePartialBarriers;
    transform::FusionResult FR =
        transform::fuseHorizontal(*Entry->Ctx, K1->fn(), K2->fn(), HO,
                                  Diags);
    if (!FR.Ok) {
      Entry->Err = Status(ErrorCode::FusionUnsupported,
                          "horizontal fusion failed:\n" + Diags.str());
    } else {
      Entry->Fused = FR.Fused;
      Entry->BaseIR = lowerFunctionNoRegAlloc(*Entry->Ctx, FR.Fused, Diags);
      if (!Entry->BaseIR)
        Entry->Err = Status(ErrorCode::CodegenError,
                            "fused kernel lowering failed:\n" + Diags.str());
      Entry->DynShared =
          Primary.W1->dynSharedBytes() + Primary.W2->dynSharedBytes();
    }
  } else if (Entry->ByBound.find(RegBound) == Entry->ByBound.end()) {
    // The AST-level work of this partition is being reused for a new
    // register variant (or a fresh query of a known failure).
    if (!Entry->Err.ok() || Entry->BaseIR)
      Cache->count(&CompileCache::Stats::FusionHits);
  }
  if (!Entry->Err.ok()) {
    Err = Entry->Err;
    return nullptr;
  }
  DynShared = Entry->DynShared;

  auto It = Entry->ByBound.find(RegBound);
  if (It != Entry->ByBound.end()) {
    Cache->count(&CompileCache::Stats::LoweringHits);
    return It->second;
  }

  // A bound at or above the natural allocation is a no-op: alias the
  // unbounded IR so the simulation memo recognizes the identical launch.
  if (Opts.UseCompileCache && RegBound != 0 && Entry->UnboundedRegs != 0 &&
      RegBound >= Entry->UnboundedRegs) {
    auto U = Entry->ByBound.find(0u);
    if (U != Entry->ByBound.end()) {
      Cache->count(&CompileCache::Stats::LoweringHits);
      Entry->ByBound.emplace(RegBound, U->second);
      return U->second;
    }
  }

  // Fault-injection point for the per-bound lowering stage; nothing is
  // memoized for this bound yet, so the failure is naturally retryable.
  if (Status S = FaultInjector::instance().check(
          FaultSite::Lower, formatString("%d/%d:r%u", D1, D2, RegBound));
      !S.ok()) {
    Err = std::move(S);
    return nullptr;
  }

  Cache->count(&CompileCache::Stats::Lowerings);
  auto IR = std::make_shared<ir::IRKernel>(*Entry->BaseIR);
  ir::RegAllocResult RA = ir::allocateRegisters(*IR, RegBound);
  if (!RA.Ok) {
    Err = Status(ErrorCode::RegAllocError,
                 "fused register allocation failed: " + RA.Error);
    return nullptr;
  }
  if (RegBound == 0)
    Entry->UnboundedRegs = IR->ArchRegsPerThread;
  Entry->ByBound.emplace(RegBound, IR);
  return IR;
}

SimResult PairRunner::runHFusedIn(SimContext *C, int D1, int D2,
                                  unsigned RegBound, Status &Err,
                                  SearchStats *Stats, const RunBudget &Budget,
                                  double *FenceWaitMs) {
  uint32_t DynShared = 0;
  std::shared_ptr<ir::IRKernel> IR =
      getFusedIR(D1, D2, RegBound, DynShared, Err);
  if (!IR)
    return fail(Err.message());

  int Grid = commonGrid();
  int BlockDim = D1 + D2;
  SimMemo::Key MemoKey{IR.get(), Grid, BlockDim, DynShared};

  // Disk key for the second-level ResultStore. It mirrors the memo key
  // with pointer identity widened to content identity — the IR dump
  // hash — plus everything else the simulation is a pure function of:
  // launch geometry, the architecture/simulator model, and the
  // workload identity (pair, seed, scales) that determines the kernel
  // parameters. Verified runs bypass the disk: a served result
  // skips simulation, so the workload outputs verify() needs would not
  // exist.
  std::string DiskKey;
  if (Opts.UseCompileCache && !Opts.Verify && Cache->hasStore()) {
    ByteWriter KW;
    KW.str("sim-result");
    KW.u64(fnv1a64(IR->str()));
    KW.u32(static_cast<uint32_t>(Grid));
    KW.u32(static_cast<uint32_t>(BlockDim));
    KW.u32(DynShared);
    KW.str(Opts.Arch.Name);
    KW.u32(static_cast<uint32_t>(Opts.Arch.NumSMs));
    KW.f64(Opts.Arch.ClockGHz);
    KW.u32(static_cast<uint32_t>(Opts.SimSMs));
    KW.u8(Opts.ModelL2 ? 1 : 0);
    KW.u64(static_cast<uint64_t>(Opts.Seed));
    KW.f64(Opts.Scale1);
    KW.f64(Opts.Scale2);
    KW.str(kernelDisplayName(IdA));
    KW.str(kernelDisplayName(IdB));
    DiskKey = KW.take();
  }
  // Only a simulation needs a context: memo and disk hits never take
  // one from the pool (or build a fresh one).
  auto Simulate = [&](const RunBudget &B) -> std::optional<SimResult> {
    std::string CtxErr;
    SimContext *Ctx = C ? C : acquireContext(CtxErr);
    if (!Ctx) {
      Err = Status(ErrorCode::WorkloadError, CtxErr);
      return std::nullopt;
    }
    KernelLaunch L;
    L.Kernel = IR.get();
    L.GridDim = Grid;
    L.BlockDim = BlockDim;
    L.DynSharedBytes = DynShared;
    L.Params = Ctx->W1->params();
    L.Params.insert(L.Params.end(), Ctx->W2->params().begin(),
                    Ctx->W2->params().end());
    L.Label = formatString("HFuse(%s+%s,%d/%d%s)", kernelDisplayName(IdA),
                           kernelDisplayName(IdB), D1, D2,
                           RegBound ? formatString(",r%u", RegBound).c_str()
                                    : "");
    Cache->count(&CompileCache::Stats::SimRuns);
    if (Stats)
      ++Stats->Simulations;
    SimResult R = runLaunches(*Ctx, {L}, Grid * D1, Grid * D2, B, FenceWaitMs);
    if (!C)
      releaseContext(Ctx);
    if (Stats) {
      Stats->SimulatedInsts += R.TotalIssued;
      if (R.BudgetExceeded)
        Stats->AbandonedInsts += R.TotalIssued;
    }
    return R;
  };
  return Memo.run(MemoKey, DiskKey, Opts, *Cache, Stats, Budget, FenceWaitMs,
                  Simulate);
}

SimResult PairRunner::runHFused(int D1, int D2, unsigned RegBound) {
  if (!Ready)
    return fail(Err);
  Status E;
  SimResult R = runHFusedIn(&Primary, D1, D2, RegBound, E, nullptr);
  if (!R.Ok && !E.ok())
    Err = E.message();
  return R;
}

std::optional<unsigned> PairRunner::figure6RegBoundImpl(int D1, int D2,
                                                        Status &Err) {
  const GpuArch &A = Opts.Arch;
  unsigned NRegs1 = K1->IR->ArchRegsPerThread;
  unsigned NRegs2 = K2->IR->ArchRegsPerThread;
  int D0 = D1 + D2;

  // b1/b2: register-limited concurrent blocks of the original kernels.
  long B1 = A.RegsPerSM / (static_cast<long>(D1) * NRegs1);
  long B2 = A.RegsPerSM / (static_cast<long>(D2) * NRegs2);
  if (B1 < 1 || B2 < 1)
    return std::nullopt;

  // Shared memory of the fused kernel.
  uint32_t DynShared = 0;
  std::shared_ptr<ir::IRKernel> IR =
      getFusedIR(D1, D2, /*RegBound=*/0, DynShared, Err);
  if (!IR)
    return std::nullopt;
  uint32_t ShMem = IR->StaticSharedBytes + DynShared;
  long BShMem = ShMem > 0 ? A.SharedMemPerSM / ShMem : LONG_MAX;
  long BThreads = A.MaxThreadsPerSM / D0;

  long B0 = std::min({B1, B2, BShMem, BThreads});
  if (B0 < 1)
    return std::nullopt;

  long R0 = A.RegsPerSM / (B0 * D0);
  R0 = std::min<long>(R0, A.MaxRegsPerThread);
  // Below this there is no room for even the spill scratch registers.
  long MinUseful = ir::RegOverhead + ir::SpillScratchRegs * 2 + 8;
  if (R0 < MinUseful)
    return std::nullopt;
  return static_cast<unsigned>(R0);
}

std::optional<unsigned> PairRunner::figure6RegBound(int D1, int D2) {
  if (!Ready)
    return std::nullopt;
  Status E;
  std::optional<unsigned> R0 = figure6RegBoundImpl(D1, D2, E);
  if (!E.ok())
    Err = E.message();
  return R0;
}

SearchResult PairRunner::searchBestConfig(bool NaiveEvenSplit) {
  auto Start = std::chrono::steady_clock::now();
  SearchResult SR;
  // Process-unique run id, joined against every span this search emits
  // and against the driver's failed:/abandoned: table rows.
  SR.RunId = formatString("s%u:%s+%s", nextSearchRunSeq(),
                          kernelDisplayName(IdA), kernelDisplayName(IdB));
  if (!Ready) {
    // A cancel that landed inside the constructor (input-kernel
    // compilation) is a request verdict, not an internal error.
    SR.Err = Opts.Cancel.cancelled() ? Opts.Cancel.status()
                                     : Status(ErrorCode::Internal, Err);
    SR.Error = SR.Err.message().empty() ? Err : SR.Err.message();
    return SR;
  }
  telemetry::TraceSpan SearchSpan;
  if (telemetry::traceOn())
    SearchSpan.beginSpan(
        "search", SR.RunId,
        formatString("{\"jobs\":%d,\"budget\":\"%s\",\"bound\":\"%s\"}",
                     Opts.SearchJobs, searchBudgetModeName(Opts.Budget),
                     Opts.MeasuredBound ? "measured" : "static"));

  bool Tunable = kernelHasTunableBlockDim(IdA) &&
                 kernelHasTunableBlockDim(IdB);
  int D0 = Tunable
               ? 1024
               : Primary.W1->preferredBlockThreads() +
                     Primary.W2->preferredBlockThreads();

  // A partition must be divisible by the kernel's fixed .y extent so its
  // threads form whole rows of the original block shape.
  auto Feasible = [&](int D1) {
    return D1 % Primary.W1->preferredBlockY() == 0 &&
           (D0 - D1) % Primary.W2->preferredBlockY() == 0;
  };

  std::vector<int> Partitions;
  if (!Tunable || NaiveEvenSplit) {
    if (Feasible(D0 / 2))
      Partitions.push_back(D0 / 2);
  } else {
    for (int D1 = 128; D1 < D0; D1 += 128)
      if (Feasible(D1))
        Partitions.push_back(D1);
  }

  // The search proper runs in three phases so that pruning decisions
  // are a deterministic function of the candidate list, never of
  // worker timing:
  //   1. compile: fuse + lower every candidate (parallel, CPU-bound,
  //      no simulator state needed);
  //   2. prune: walk candidates in canonical measurement order
  //      (partition ascending, unbounded before bounded) and drop the
  //      dominated ones (serial, occupancy arithmetic only);
  //   3. profile: simulate the kept candidates (parallel, one private
  //      simulator context per worker).

  /// One enumerated candidate of the sweep.
  struct Candidate {
    /// Canonical id: the index in this enumeration, stable across
    /// SearchJobs (exported as FusionCandidate::Id and friends).
    int Id = -1;
    int D1 = 0, D2 = 0;
    unsigned RegBound = 0;
    std::shared_ptr<ir::IRKernel> IR;
    uint32_t DynShared = 0;
    int BlocksPerSM = 0;
    /// Index of this partition's unbounded sibling (bounded only).
    int Sibling = -1;
    bool Pruned = false;
    std::string PruneReason;
    int DominatorBlocksPerSM = 0;
    /// Occupancy-dominated but re-admitted under the measured-margin
    /// rule: simulated with the tighter incumbent/(1+margin) budget
    /// instead of being skipped outright.
    bool MarginReadmit = false;
    /// Cut off by the cycle budget (with the budget it ran under and
    /// the instructions it issued before the abort).
    bool Abandoned = false;
    uint64_t AbandonBudget = 0;
    uint64_t AbandonIssued = 0;
    /// Contained failure that retired this candidate (compile, fuse,
    /// lower, or simulate); Ok while the candidate is healthy.
    Status Error;
    /// Never reached: the request was cancelled or deadlined before
    /// this candidate's turn (lands in SearchResult::Unvisited).
    bool Skipped = false;
    std::optional<FusionCandidate> Measured;
  };
  std::vector<Candidate> Cands;
  Cands.reserve(2 * Partitions.size());
  for (int D1 : Partitions) {
    Candidate C;
    C.D1 = D1;
    C.D2 = D0 - D1;
    C.RegBound = 0;
    Cands.push_back(C);
    if (!NaiveEvenSplit) {
      C.Sibling = static_cast<int>(Cands.size()) - 1;
      // RegBound filled during phase 1 (it needs the fused kernel's
      // shared-memory size); a placeholder marks the slot.
      C.RegBound = UINT_MAX;
      Cands.push_back(C);
    }
  }
  for (size_t I = 0; I < Cands.size(); ++I)
    Cands[I].Id = static_cast<int>(I);

  int Jobs = Opts.SearchJobs <= 0
                 ? static_cast<int>(ThreadPool::defaultConcurrency())
                 : Opts.SearchJobs;
  // Phase 3 has up to two candidates per partition in flight.
  Jobs = std::min(Jobs,
                  static_cast<int>(std::max<size_t>(1, Cands.size())));
  std::unique_ptr<ThreadPool> Pool;
  if (Jobs > 1)
    Pool = std::make_unique<ThreadPool>(static_cast<unsigned>(Jobs));

  // Phase 1: one task per partition lowers the unbounded variant,
  // derives r0, and lowers the bounded variant (sharing the fusion).
  size_t PerPart = NaiveEvenSplit ? 1 : 2;
  {
    telemetry::TraceSpan PhaseSpan("phase", "compile");
    parallelFor(Pool.get(), Partitions.size(), [&](size_t I) {
      Candidate &U = Cands[I * PerPart];
      // Deterministic cancel point for the compile phase: the fault
      // site fires the *request's* token (it never fails a candidate),
      // so injected cancellation reproduces exactly.
      if (!FaultInjector::instance()
               .check(FaultSite::CancelCompile,
                      formatString("%d/%d", U.D1, U.D2))
               .ok())
        Opts.Cancel.cancel();
      if (Opts.Cancel.cancelled()) {
        U.Skipped = true;
        if (!NaiveEvenSplit)
          Cands[I * PerPart + 1].Skipped = true;
        return;
      }
      {
        telemetry::TraceSpan CandSpan;
        if (telemetry::traceOn())
          CandSpan.beginSpan(
              "fuse", formatString("c%d %d/%d", U.Id, U.D1, U.D2),
              formatString("{\"run\":\"%s\",\"cand\":%d}", SR.RunId.c_str(),
                           U.Id));
        U.IR = getFusedIR(U.D1, U.D2, 0, U.DynShared, U.Error);
      }
      if (U.IR)
        U.BlocksPerSM =
            computeOccupancy(Opts.Arch, D0,
                             static_cast<int>(U.IR->ArchRegsPerThread),
                             U.IR->StaticSharedBytes + U.DynShared)
                .BlocksPerSM;
      if (NaiveEvenSplit)
        return;
      Candidate &B = Cands[I * PerPart + 1];
      Status BoundErr;
      std::optional<unsigned> R0 = figure6RegBoundImpl(B.D1, B.D2, BoundErr);
      if (!R0)
        return; // no bounded trial for this partition (seed behavior)
      B.RegBound = *R0;
      {
        telemetry::TraceSpan CandSpan;
        if (telemetry::traceOn())
          CandSpan.beginSpan(
              "fuse",
              formatString("c%d %d/%d:r%u", B.Id, B.D1, B.D2, B.RegBound),
              formatString("{\"run\":\"%s\",\"cand\":%d}", SR.RunId.c_str(),
                           B.Id));
        B.IR = getFusedIR(B.D1, B.D2, *R0, B.DynShared, B.Error);
      }
      if (B.IR)
        B.BlocksPerSM =
            computeOccupancy(Opts.Arch, D0,
                             static_cast<int>(B.IR->ArchRegsPerThread),
                             B.IR->StaticSharedBytes + B.DynShared)
                .BlocksPerSM;
    });
  }

  // Phase 2: occupancy pruning over the canonical order. Level 1 rules
  // preserve results: a candidate that cannot launch, or a bounded
  // variant whose bound fails to raise blocks/SM over its partition's
  // unbounded sibling (same code plus spill traffic at no occupancy
  // gain), cannot be the winner. Level 2 adds strict cross-partition
  // dominance: MaxSeen tracks the best blocks/SM among candidates kept
  // so far, and later candidates strictly below it are skipped — a
  // heuristic that typically halves the sweep but may miss a
  // low-occupancy winner by a few percent. Identical-IR variants
  // (bound at/above the natural allocation) are exempt from pruning —
  // they replay the sibling's memoized result for free.
  telemetry::TraceSpan PruneSpan("phase", "prune");
  int MaxSeen = 0;
  for (Candidate &C : Cands) {
    // Deterministic cancel point for the prune phase; a cancelled
    // request leaves every not-yet-resolved candidate unvisited (ones
    // already retired by a contained failure keep their verdict).
    if (!FaultInjector::instance()
             .check(FaultSite::CancelPrune,
                    formatString("%d/%d", C.D1, C.D2))
             .ok())
      Opts.Cancel.cancel();
    if (Opts.Cancel.cancelled()) {
      if (C.Error.ok())
        C.Skipped = true;
      continue;
    }
    if (C.Skipped || !C.IR || C.RegBound == UINT_MAX)
      continue;
    if (Opts.PruneLevel <= 0) {
      MaxSeen = std::max(MaxSeen, C.BlocksPerSM);
      continue;
    }
    const bool IsBounded = C.RegBound != 0;
    Candidate *Sib =
        IsBounded && C.Sibling >= 0 ? &Cands[C.Sibling] : nullptr;
    bool AliasOfSibling = Sib && Sib->IR == C.IR;
    if (C.BlocksPerSM <= 0) {
      C.Pruned = true;
      C.PruneReason = "cannot launch: 0 blocks/SM";
    } else if (AliasOfSibling && !Sib->Pruned) {
      // Free via memoization; never prune.
    } else if (Sib && Sib->IR && !Sib->Pruned && !AliasOfSibling &&
               C.BlocksPerSM <= Sib->BlocksPerSM) {
      C.Pruned = true;
      C.DominatorBlocksPerSM = Sib->BlocksPerSM;
      C.PruneReason = formatString(
          "r%u gives %d blocks/SM, no gain over the unbounded variant's "
          "%d: same code plus spills cannot win",
          C.RegBound, C.BlocksPerSM, Sib->BlocksPerSM);
    } else if (Opts.PruneLevel >= 2 && C.BlocksPerSM < MaxSeen) {
      if (Opts.Budget != SearchBudgetMode::Off) {
        // Measured-margin rule: instead of trusting the occupancy
        // heuristic, re-admit the dominated candidate under the
        // tighter incumbent/(1+margin) budget. A genuinely fast one
        // completes and competes; an abandoned one is measured to be
        // worse than incumbent/(1+margin), bounding the aggressive
        // sweep's Best to within (1+margin)x of the true optimum.
        C.MarginReadmit = true;
        C.DominatorBlocksPerSM = MaxSeen;
      } else {
        C.Pruned = true;
        C.DominatorBlocksPerSM = MaxSeen;
        C.PruneReason = formatString(
            "%d blocks/SM strictly dominated by a measured candidate "
            "with %d",
            C.BlocksPerSM, MaxSeen);
      }
    }
    if (!C.Pruned)
      MaxSeen = std::max(MaxSeen, C.BlocksPerSM);
  }
  PruneSpan.finish();

  // Phase 3: simulate the kept candidates.
  std::vector<size_t> Kept;
  for (size_t I = 0; I < Cands.size(); ++I)
    if (Cands[I].IR && Cands[I].RegBound != UINT_MAX &&
        !Cands[I].Pruned && !Cands[I].Skipped)
      Kept.push_back(I);
  std::vector<SearchStats> KeptStats(Kept.size());

  // Measures Kept[K] under \p Budget; returns its cycles when it
  // completed. \p WaitedMs is fence wait before it started.
  auto Measure = [&](size_t K, const RunBudget &Budget,
                     double WaitedMs) -> std::optional<uint64_t> {
    Candidate &C = Cands[Kept[K]];
    // Deterministic cancel point for the simulate phase (see the
    // compile-phase comment); Kept candidates are still unresolved, so
    // skipping is always the right verdict here.
    if (!FaultInjector::instance()
             .check(FaultSite::CancelSimulate,
                    formatString("%d/%d", C.D1, C.D2))
             .ok())
      Opts.Cancel.cancel();
    if (Opts.Cancel.cancelled()) {
      C.Skipped = true;
      return std::nullopt;
    }
    telemetry::TraceSpan CandSpan;
    if (telemetry::traceOn())
      CandSpan.beginSpan(
          "simulate",
          C.RegBound ? formatString("c%d %d/%d:r%u", C.Id, C.D1, C.D2,
                                    C.RegBound)
                     : formatString("c%d %d/%d", C.Id, C.D1, C.D2),
          simulateSpanArgs(SR.RunId, C.Id, Budget));
    FusionCandidate FC;
    FC.Id = C.Id;
    FC.D1 = C.D1;
    FC.D2 = C.D2;
    FC.RegBound = C.RegBound;
    Status E;
    double FenceWaitMs = WaitedMs;
    FC.Result = runHFusedIn(nullptr, C.D1, C.D2, C.RegBound, E,
                            &KeptStats[K], Budget, &FenceWaitMs);
    recordFenceWait(CandSpan, Budget, FenceWaitMs);
    if (FC.Result.Ok) {
      FC.TimeMs = FC.Result.TotalMs;
      FC.Cycles = FC.Result.TotalCycles;
      C.Measured = std::move(FC);
      return C.Measured->Cycles;
    }
    if (FC.Result.Cancelled ||
        (Opts.Cancel.cancelled() && !E.ok() &&
         (E.code() == ErrorCode::Cancelled ||
          E.code() == ErrorCode::DeadlineExceeded))) {
      // The cancel landed mid-simulation (or mid-compile-wait): the
      // candidate was interrupted, not measured and not at fault —
      // account it as unvisited like the ones never started.
      C.Skipped = true;
    } else if (FC.Result.BudgetExceeded) {
      C.Abandoned = true;
      C.AbandonBudget = effectiveBudget(Budget);
      C.AbandonIssued = FC.Result.TotalIssued;
    } else if (C.Error.ok())
      // Pipeline failures arrive in E; simulation failures (deadlock,
      // timeout, OOB, verification) are classified off the SimResult.
      C.Error = !E.ok() ? E : statusFromSim(FC.Result);
    return std::nullopt;
  };

  // Unbudgeted search keeps the historical canonical measurement order.
  // Budgeted search reorders phase 3 best-first: candidates are ranked
  // by a lower bound on their cycle count, the front-runner seeds the
  // incumbent, and everything else runs under CycleBudget = incumbent
  // (margin-readmitted candidates under the tighter
  // incumbent/(1+margin)), overlapping the seed behind an incumbent
  // fence (profile/IncumbentSweep.h). Whether a candidate completes or
  // aborts depends only on its own true cycle count against that
  // budget, so results stay deterministic across SearchJobs — and Best
  // is bit-identical to the unbudgeted sweep, because any candidate at
  // or below the incumbent still completes with exact cycles while
  // aborted ones were strictly worse.
  const bool Budgeted = Opts.Budget != SearchBudgetMode::Off;
  const bool Tight = Opts.Budget == SearchBudgetMode::IncumbentTight;
  telemetry::TraceSpan SimPhaseSpan("phase", "simulate");
  std::vector<size_t> Order(Kept.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  if (Budgeted && !Kept.empty()) {
    // Occupancy/issue-width lower bound. The grid drains in
    // ceil(Grid / (BlocksPerSM * SimSMs)) occupancy waves, and a wave
    // lasts at least as long as its slower sub-kernel: a warp issues at
    // most one instruction per cycle, and a sub-kernel's per-thread
    // dynamic work scales inversely with its share of the block (the
    // work a block covers is partition-invariant), so the per-block
    // critical path goes as max(Insts1/D1, Insts2/D2) with the input
    // kernels' static instruction counts standing in for their dynamic
    // ratios. Bounded variants additionally inflate every thread by
    // their spill code (fused static count vs the unbounded sibling's)
    // — which ranks the spill-heavy crypto bounds last, exactly the
    // runs worth abandoning. Ties keep canonical order (stable sort).
    const int Grid = commonGrid();
    double S1 = static_cast<double>(K1->IR->numInstructions());
    double S2 = static_cast<double>(K2->IR->numInstructions());
    if (Opts.MeasuredBound) {
      // Rank on each kernel's *measured* dynamic work — one solo
      // simulation per input kernel, the same issued-count quantity
      // exported as the sim.issued.<label> gauges — instead of the
      // static instruction-count proxy. Only the ranking changes (so
      // only which candidate seeds the incumbent); Best is invariant.
      // A failed probe falls back to the static proxy.
      Status SoloErr1, SoloErr2;
      uint64_t I1 = soloIssuedCount(0, SoloErr1, &SR.Stats);
      uint64_t I2 = soloIssuedCount(1, SoloErr2, &SR.Stats);
      if (SoloErr1.ok() && SoloErr2.ok() && I1 != 0 && I2 != 0) {
        S1 = static_cast<double>(I1);
        S2 = static_cast<double>(I2);
      }
    }
    std::vector<double> Bound(Kept.size());
    for (size_t I = 0; I < Kept.size(); ++I) {
      const Candidate &C = Cands[Kept[I]];
      double PerThread = std::max(S1 / C.D1, S2 / C.D2);
      const Candidate *Sib = C.Sibling >= 0 ? &Cands[C.Sibling] : nullptr;
      if (Sib && Sib->IR && Sib->IR != C.IR)
        PerThread *= static_cast<double>(C.IR->numInstructions()) /
                     static_cast<double>(
                         std::max<size_t>(1, Sib->IR->numInstructions()));
      uint64_t BlocksPerWave =
          uint64_t(std::max(1, C.BlocksPerSM)) * Opts.SimSMs;
      uint64_t Waves =
          (uint64_t(Grid) + BlocksPerWave - 1) / BlocksPerWave;
      Bound[I] = static_cast<double>(Waves) * PerThread;
    }
    std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
      const Candidate &CA = Cands[Kept[A]], &CB = Cands[Kept[B]];
      // Margin-readmitted candidates are presumed slow: never seed
      // the incumbent from one.
      if (CA.MarginReadmit != CB.MarginReadmit)
        return CB.MarginReadmit;
      return Bound[A] < Bound[B];
    });
  }
  SweepHooks Hooks;
  Hooks.Measure = Measure;
  Hooks.Discard = [&](size_t K) {
    Candidate &C = Cands[Kept[K]];
    C.Measured.reset();
    C.Abandoned = false;
    C.AbandonBudget = C.AbandonIssued = 0;
    C.Error = Status();
    C.Skipped = false;
    KeptStats[K] = SearchStats();
  };
  Hooks.MarginReadmit = [&](size_t K) { return Cands[Kept[K]].MarginReadmit; };
  Hooks.SameLaunch = [&](size_t K, size_t SeedK) {
    return Cands[Kept[K]].IR == Cands[Kept[SeedK]].IR;
  };
  uint64_t Incumbent = runSimulatePhase(Pool.get(), Opts, Order, Hooks);
  SimPhaseSpan.finish();

  if (Tight && Incumbent != 0) {
    // Deterministic reporting for the tightened sweep: which
    // non-winning candidates completed (vs were abandoned) depends on
    // the budget each happened to run under, i.e. on worker timing.
    // Re-issue every kept candidate's verdict under the *final*
    // incumbent, as if the sweep had used it from the start: a
    // measured candidate over its final budget is demoted to
    // Abandoned at that budget (IssuedInsts 0, like a memo-decided
    // abandonment), and every abandonment is normalized the same way.
    // The winner and its exact ties always survive, so Best and All
    // are bit-identical across SearchJobs — only the cost counters
    // (SimulatedInsts/AbandonedInsts) keep reflecting the real,
    // timing-dependent work done.
    const uint64_t FinalMargin = marginBudget(Incumbent, Opts.BudgetMarginPct);
    for (size_t K : Kept) {
      Candidate &C = Cands[K];
      if (C.Skipped || !C.Error.ok())
        continue;
      const uint64_t FinalBudget = C.MarginReadmit ? FinalMargin : Incumbent;
      if (C.Measured && C.Measured->Cycles > FinalBudget) {
        C.Measured.reset();
        C.Abandoned = true;
      }
      if (C.Abandoned) {
        C.AbandonBudget = FinalBudget;
        C.AbandonIssued = 0;
      }
    }
  }

  Status FirstError;
  for (Candidate &C : Cands) {
    // A bounded slot whose partition yielded no r0 is not a candidate
    // (seed behavior) — but a slot cancelled before r0 was computed is
    // one that *would* have existed: count it as unvisited with the
    // bound still pending, so the ledger identity Candidates == All +
    // Pruned + Abandoned + Failed + Unvisited holds on partial runs.
    if (C.RegBound == UINT_MAX && !C.Skipped)
      continue; // partition without a bounded trial
    if (FirstError.ok() && !C.Error.ok())
      FirstError = C.Error;
    ++SR.Stats.Candidates;
    if (C.Skipped) {
      UnvisitedCandidate U;
      U.Id = C.Id;
      U.D1 = C.D1;
      U.D2 = C.D2;
      U.RegBound = C.RegBound == UINT_MAX ? 0 : C.RegBound;
      U.BoundPending = C.RegBound == UINT_MAX;
      SR.Unvisited.push_back(U);
      ++SR.Stats.Unvisited;
      continue;
    }
    if (!C.Error.ok()) {
      // Contained failure: the candidate is retired with its error
      // recorded and the sweep goes on. Recorded in canonical order
      // (this loop), so the report is deterministic across SearchJobs.
      FailedCandidate F;
      F.Id = C.Id;
      F.D1 = C.D1;
      F.D2 = C.D2;
      F.RegBound = C.RegBound;
      F.Err = C.Error;
      SR.Failed.push_back(std::move(F));
      ++SR.Stats.Failed;
      continue;
    }
    if (C.Pruned) {
      PrunedCandidate P;
      P.Id = C.Id;
      P.D1 = C.D1;
      P.D2 = C.D2;
      P.RegBound = C.RegBound;
      P.BlocksPerSM = C.BlocksPerSM;
      P.DominatorBlocksPerSM = C.DominatorBlocksPerSM;
      P.Reason = std::move(C.PruneReason);
      SR.Pruned.push_back(std::move(P));
      ++SR.Stats.Pruned;
    } else if (C.Abandoned) {
      AbandonedCandidate A;
      A.Id = C.Id;
      A.D1 = C.D1;
      A.D2 = C.D2;
      A.RegBound = C.RegBound;
      A.BudgetCycles = C.AbandonBudget;
      A.IssuedInsts = C.AbandonIssued;
      SR.Abandoned.push_back(A);
      ++SR.Stats.Abandoned;
    } else if (C.Measured)
      SR.All.push_back(std::move(*C.Measured));
  }
  for (const SearchStats &S : KeptStats) {
    SR.Stats.Simulations += S.Simulations;
    SR.Stats.MemoHits += S.MemoHits;
    SR.Stats.SimulatedInsts += S.SimulatedInsts;
    SR.Stats.AbandonedInsts += S.AbandonedInsts;
  }
  SR.Partial = SR.Stats.Unvisited > 0;
  if (SR.Partial) {
    SR.PartialReason = Opts.Cancel.status();
    if (SR.PartialReason.ok()) // defensive: Skipped implies a fired token
      SR.PartialReason =
          Status::transient(ErrorCode::Cancelled, "request cancelled");
  }
  SR.Stats.IncumbentCycles = Incumbent;
  SR.Stats.WallMs =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - Start)
          .count();

  // Funnel counters, bumped once per search from the canonical
  // accounting above (deterministic across SearchJobs). Write-only:
  // nothing below ever reads them back.
  if (telemetry::metricsOn()) {
    HFUSE_METRIC_ADD("search.runs", 1);
    HFUSE_METRIC_ADD("search.candidates", SR.Stats.Candidates);
    HFUSE_METRIC_ADD("search.pruned", SR.Stats.Pruned);
    HFUSE_METRIC_ADD("search.abandoned", SR.Stats.Abandoned);
    HFUSE_METRIC_ADD("search.failed", SR.Stats.Failed);
    HFUSE_METRIC_ADD("search.unvisited", SR.Stats.Unvisited);
    if (SR.Partial)
      HFUSE_METRIC_ADD("search.partial", 1);
    HFUSE_METRIC_ADD("search.simulations", SR.Stats.Simulations);
    HFUSE_METRIC_ADD("search.sim_insts", SR.Stats.SimulatedInsts);
    HFUSE_METRIC_ADD("search.abandoned_insts", SR.Stats.AbandonedInsts);
    HFUSE_METRIC_GAUGE_SET("search.incumbent_cycles",
                           SR.Stats.IncumbentCycles);
  }

  if (SR.All.empty()) {
    // A cancel that landed before any measurement has no best-so-far
    // to return: the request verdict (Cancelled/DeadlineExceeded) is
    // the error, not a fusion infeasibility.
    if (SR.Partial)
      SR.Err = SR.PartialReason;
    else
      SR.Err = !FirstError.ok()
                   ? FirstError
                   : Status(ErrorCode::FusionUnsupported,
                            Err.empty() ? "no feasible fusion configuration"
                                        : Err);
    SR.Error = SR.Err.message();
    return SR;
  }
  SR.Best = *std::min_element(
      SR.All.begin(), SR.All.end(),
      [](const FusionCandidate &X, const FusionCandidate &Y) {
        return X.Cycles < Y.Cycles;
      });
  SR.Ok = true;
  return SR;
}

std::string PairRunner::fusedSource(int D1, int D2) {
  if (!Ready)
    return "";
  cuda::ASTContext Ctx;
  DiagnosticEngine Diags;
  transform::HorizontalFusionOptions HO;
  HO.D1 = D1;
  HO.D2 = D2;
  HO.Y1 = Primary.W1->preferredBlockY();
  HO.Y2 = Primary.W2->preferredBlockY();
  transform::FusionResult FR =
      transform::fuseHorizontal(Ctx, K1->fn(), K2->fn(), HO, Diags);
  if (!FR.Ok)
    return "";
  return cuda::printFunction(FR.Fused);
}
