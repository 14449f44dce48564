//===-- profile/NWayRunner.cpp - N-way fusion portfolio search ------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "profile/NWayRunner.h"

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
#include <chrono>
#include <climits>
#include <functional>

using namespace hfuse;
using namespace hfuse::gpusim;
using namespace hfuse::kernels;
using namespace hfuse::profile;

std::string hfuse::profile::dimsLabel(const std::vector<int> &Dims) {
  std::string S;
  for (size_t I = 0; I < Dims.size(); ++I) {
    if (I)
      S += "/";
    S += formatString("%d", Dims[I]);
  }
  return S;
}

std::string NWayRunner::namesLabel() const {
  std::string S;
  for (size_t I = 0; I < Ids.size(); ++I) {
    if (I)
      S += "+";
    S += kernelDisplayName(Ids[I]);
  }
  return S;
}

NWayRunner::NWayRunner(std::vector<BenchKernelId> InIds, Options InOpts)
    : Ids(std::move(InIds)), Opts(std::move(InOpts)),
      SoloIssued(Ids.size()) {
  // Null means the process-wide default cache: kernels shared across
  // portfolios (and with pair searches) compile exactly once per
  // register-bound variant, no matter how many runners touch them.
  Cache = this->Opts.Cache
              ? this->Opts.Cache
              : std::shared_ptr<CompileCache>(&globalCompileCache(),
                                              [](CompileCache *) {});

  if (!this->Opts.Cancel.valid())
    this->Opts.Cancel = CancellationToken::make();

  if (Ids.size() < 2) {
    Err = "n-way fusion needs at least 2 kernels";
    return;
  }

  DiagnosticEngine Diags;
  Ks.reserve(Ids.size());
  for (BenchKernelId Id : Ids) {
    std::shared_ptr<const CompiledKernel> K;
    if (this->Opts.UseCompileCache) {
      K = Cache->getBenchKernel(Id, /*RegBound=*/0, Diags, nullptr,
                                this->Opts.Cancel);
    } else {
      Cache->count(&CompileCache::Stats::KernelCompiles);
      K = compileBenchKernel(Id, /*RegBound=*/0, Diags);
    }
    if (!K) {
      Err = "kernel compilation failed:\n" + Diags.str();
      return;
    }
    Ks.push_back(std::move(K));
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

std::unique_ptr<NWayRunner::SimContext>
NWayRunner::makeContext(std::string &Error) const {
  auto C = std::make_unique<SimContext>();
  C->W.reserve(Ids.size());
  for (size_t I = 0; I < Ids.size(); ++I) {
    WorkloadConfig WC;
    WC.SizeScale = Opts.Scale;
    WC.SimSMs = Opts.SimSMs;
    // Distinct seeds per kernel, mirroring the pair runner's Seed /
    // Seed + 1 so a pair-of-the-portfolio reproduces the same data.
    WC.Seed = Opts.Seed + static_cast<uint32_t>(I);
    C->W.push_back(makeWorkload(Ids[I], WC));
    if (!C->W.back()) {
      Error = "workload construction failed";
      return nullptr;
    }
  }

  SimConfig SC;
  SC.Arch = Opts.Arch;
  SC.SimSMs = Opts.SimSMs;
  SC.ModelL2 = Opts.ModelL2;
  SC.WatchdogCycles = Opts.WatchdogCycles;
  SC.WallTimeoutMs = Opts.WallTimeoutMs;
  SC.Cancel = Opts.Cancel;
  C->Sim = std::make_unique<Simulator>(SC);
  for (auto &W : C->W)
    W->setup(*C->Sim);
  return C;
}

NWayRunner::SimContext *NWayRunner::acquireContext(std::string &Error) {
  {
    std::lock_guard<std::mutex> Lock(ContextMu);
    if (!FreeContexts.empty()) {
      SimContext *C = FreeContexts.back();
      FreeContexts.pop_back();
      return C;
    }
  }
  std::unique_ptr<SimContext> C = makeContext(Error);
  if (!C)
    return nullptr;
  std::lock_guard<std::mutex> Lock(ContextMu);
  ExtraContexts.push_back(std::move(C));
  return ExtraContexts.back().get();
}

void NWayRunner::releaseContext(SimContext *C) {
  std::lock_guard<std::mutex> Lock(ContextMu);
  FreeContexts.push_back(C);
}

int NWayRunner::commonGrid() const {
  int Grid = 0;
  for (const auto &W : Primary.W)
    Grid = std::max(Grid, W->preferredGrid());
  return Grid;
}

SimResult NWayRunner::fail(const std::string &Message) const {
  SimResult R;
  R.Error = Message;
  return R;
}

SimResult NWayRunner::runLaunches(SimContext &C,
                                  const std::vector<KernelLaunch> &Launches,
                                  const std::vector<int> &VerifyThreads,
                                  const RunBudget &Budget,
                                  double *FenceWaitMs) {
  for (auto &W : C.W)
    W->clearOutputs(*C.Sim);
  SimResult R = C.Sim->run(Launches, StatsLevel::Full, Budget, FenceWaitMs);
  if (!R.Ok)
    return R;
  if (Opts.Verify) {
    std::string VerifyErr;
    for (size_t I = 0; I < C.W.size(); ++I) {
      if (I < VerifyThreads.size() && VerifyThreads[I] > 0 &&
          !C.W[I]->verify(*C.Sim, VerifyThreads[I], VerifyErr)) {
        R.Ok = false;
        R.Error = "verification failed: " + VerifyErr;
        return R;
      }
    }
  }
  return R;
}

SimResult NWayRunner::runNative() {
  if (!Ready)
    return fail(Err);
  std::vector<KernelLaunch> Launches;
  std::vector<int> VerifyThreads;
  for (size_t I = 0; I < Ids.size(); ++I) {
    Workload *W = Primary.W[I].get();
    KernelLaunch L;
    L.Kernel = Ks[I]->IR.get();
    L.GridDim = W->preferredGrid();
    L.BlockDim = W->preferredBlock();
    L.BlockDimY = W->preferredBlockY();
    L.DynSharedBytes = W->dynSharedBytes();
    L.Params = W->params();
    L.Label = kernelDisplayName(Ids[I]);
    VerifyThreads.push_back(L.GridDim * W->preferredBlockThreads());
    Launches.push_back(std::move(L));
  }
  return runLaunches(Primary, Launches, VerifyThreads);
}

SimResult NWayRunner::runSerial() {
  if (!Ready)
    return fail(Err);
  SimResult Agg;
  for (size_t I = 0; I < Ids.size(); ++I) {
    Workload *W = Primary.W[I].get();
    KernelLaunch L;
    L.Kernel = Ks[I]->IR.get();
    L.GridDim = W->preferredGrid();
    L.BlockDim = W->preferredBlock();
    L.BlockDimY = W->preferredBlockY();
    L.DynSharedBytes = W->dynSharedBytes();
    L.Params = W->params();
    L.Label = kernelDisplayName(Ids[I]);
    std::vector<int> VerifyThreads(Ids.size(), 0);
    VerifyThreads[I] = L.GridDim * W->preferredBlockThreads();
    SimResult R = runLaunches(Primary, {L}, VerifyThreads);
    if (!R.Ok)
      return R;
    Agg.TotalCycles += R.TotalCycles;
    Agg.TotalMs += R.TotalMs;
    Agg.TotalIssued += R.TotalIssued;
  }
  Agg.Ok = true;
  return Agg;
}

std::shared_ptr<ir::IRKernel>
NWayRunner::getFusedIR(const std::vector<int> &Dims, unsigned RegBound,
                       uint32_t &DynShared, Status &Err) {
  auto Key =
      std::make_pair(Dims, Opts.UseCompileCache ? 0u : RegBound);
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
    if (Status S = FaultInjector::instance().check(FaultSite::Fuse,
                                                   dimsLabel(Dims));
        !S.ok()) {
      Err = std::move(S);
      return nullptr;
    }
    Entry->Attempted = true;
    Cache->count(&CompileCache::Stats::FusionRuns);
    DiagnosticEngine Diags;
    Entry->Ctx = std::make_unique<cuda::ASTContext>();
    std::vector<const cuda::FunctionDecl *> Fns;
    std::vector<std::pair<int, int>> Shapes;
    for (size_t I = 0; I < Ids.size(); ++I) {
      Fns.push_back(Ks[I]->fn());
      Shapes.emplace_back(Primary.W[I]->preferredBlockY(), 1);
    }
    transform::MultiFusionResult MR = transform::fuseHorizontalMany(
        *Entry->Ctx, Fns, Dims, /*FusedName=*/"", Diags, Shapes);
    if (!MR.Ok) {
      // Validation rejections arrive structured in MR.Err (the API-
      // consistency fix); anything that predates the Status channel
      // falls back to the diagnostics text.
      Entry->Err = MR.Err.ok()
                       ? Status(ErrorCode::FusionUnsupported,
                                "n-way fusion failed:\n" + Diags.str())
                       : MR.Err;
    } else {
      Entry->Fused = MR.Fused;
      Entry->BaseIR = lowerFunctionNoRegAlloc(*Entry->Ctx, MR.Fused, Diags);
      if (!Entry->BaseIR)
        Entry->Err = Status(ErrorCode::CodegenError,
                            "fused kernel lowering failed:\n" + Diags.str());
      uint32_t Dyn = 0;
      for (const auto &W : Primary.W)
        Dyn += W->dynSharedBytes();
      Entry->DynShared = Dyn;
    }
  } else if (Entry->ByBound.find(RegBound) == Entry->ByBound.end()) {
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

  // A bound at or above the natural allocation aliases the unbounded
  // IR, so the simulation memo recognizes the identical launch.
  if (Opts.UseCompileCache && RegBound != 0 && Entry->UnboundedRegs != 0 &&
      RegBound >= Entry->UnboundedRegs) {
    auto U = Entry->ByBound.find(0u);
    if (U != Entry->ByBound.end()) {
      Cache->count(&CompileCache::Stats::LoweringHits);
      Entry->ByBound.emplace(RegBound, U->second);
      return U->second;
    }
  }

  if (Status S = FaultInjector::instance().check(
          FaultSite::Lower,
          formatString("%s:r%u", dimsLabel(Dims).c_str(), RegBound));
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

SimResult NWayRunner::runHFusedIn(SimContext *C,
                                  const std::vector<int> &Dims,
                                  unsigned RegBound, Status &Err,
                                  SearchStats *Stats, const RunBudget &Budget,
                                  double *FenceWaitMs) {
  uint32_t DynShared = 0;
  std::shared_ptr<ir::IRKernel> IR =
      getFusedIR(Dims, RegBound, DynShared, Err);
  if (!IR)
    return fail(Err.message());

  int Grid = commonGrid();
  int BlockDim = 0;
  for (int D : Dims)
    BlockDim += D;
  SimMemo::Key MemoKey{IR.get(), Grid, BlockDim, DynShared};

  // Disk key: the memo key with pointer identity widened to content
  // identity (the fused IR dump hash) plus everything else the
  // simulation is a pure function of — launch geometry, simulator
  // model, and workload identity (kernel set, seed, scale) — so warm
  // --cache-dir reruns are bit-identical to cold ones. Same
  // contract as the pair runner's key; the kernel-count field keeps
  // the layouts disjoint.
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
    KW.u32(static_cast<uint32_t>(Ids.size()));
    for (size_t I = 0; I < Ids.size(); ++I) {
      KW.f64(Opts.Scale);
      KW.str(kernelDisplayName(Ids[I]));
    }
    DiskKey = KW.take();
  }
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
    std::vector<int> VerifyThreads;
    for (size_t I = 0; I < Ctx->W.size(); ++I) {
      const auto &P = Ctx->W[I]->params();
      L.Params.insert(L.Params.end(), P.begin(), P.end());
      VerifyThreads.push_back(Grid * Dims[I]);
    }
    L.Label = formatString(
        "HFuse(%s,%s%s)", namesLabel().c_str(), dimsLabel(Dims).c_str(),
        RegBound ? formatString(",r%u", RegBound).c_str() : "");
    Cache->count(&CompileCache::Stats::SimRuns);
    if (Stats)
      ++Stats->Simulations;
    SimResult R = runLaunches(*Ctx, {L}, VerifyThreads, B, FenceWaitMs);
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

SimResult NWayRunner::runHFused(const std::vector<int> &Dims,
                                unsigned RegBound) {
  if (!Ready)
    return fail(Err);
  if (Dims.size() != Ids.size())
    return fail("partition count does not match kernel count");
  Status E;
  SimResult R = runHFusedIn(&Primary, Dims, RegBound, E, nullptr);
  if (!R.Ok && !E.ok())
    Err = E.message();
  return R;
}

std::optional<unsigned>
NWayRunner::regBoundImpl(const std::vector<int> &Dims, Status &Err) {
  const GpuArch &A = Opts.Arch;
  int D0 = 0;
  long BMin = LONG_MAX;
  for (size_t I = 0; I < Ids.size(); ++I) {
    // b_k: register-limited concurrent blocks of original kernel k.
    long B = A.RegsPerSM /
             (static_cast<long>(Dims[I]) * Ks[I]->IR->ArchRegsPerThread);
    if (B < 1)
      return std::nullopt;
    BMin = std::min(BMin, B);
    D0 += Dims[I];
  }

  uint32_t DynShared = 0;
  std::shared_ptr<ir::IRKernel> IR =
      getFusedIR(Dims, /*RegBound=*/0, DynShared, Err);
  if (!IR)
    return std::nullopt;
  uint32_t ShMem = IR->StaticSharedBytes + DynShared;
  long BShMem = ShMem > 0 ? A.SharedMemPerSM / ShMem : LONG_MAX;
  long BThreads = A.MaxThreadsPerSM / D0;

  long B0 = std::min({BMin, BShMem, BThreads});
  if (B0 < 1)
    return std::nullopt;

  long R0 = A.RegsPerSM / (B0 * D0);
  R0 = std::min<long>(R0, A.MaxRegsPerThread);
  long MinUseful = ir::RegOverhead + ir::SpillScratchRegs * 2 + 8;
  if (R0 < MinUseful)
    return std::nullopt;
  return static_cast<unsigned>(R0);
}

std::optional<unsigned> NWayRunner::regBound(const std::vector<int> &Dims) {
  if (!Ready || Dims.size() != Ids.size())
    return std::nullopt;
  Status E;
  std::optional<unsigned> R0 = regBoundImpl(Dims, E);
  if (!E.ok())
    Err = E.message();
  return R0;
}

uint64_t NWayRunner::soloIssuedCount(size_t Which, Status &E,
                                     SearchStats *Stats) {
  std::optional<uint64_t> &Cached = SoloIssued[Which];
  if (Cached)
    return *Cached;
  std::string CtxErr;
  SimContext *Ctx = acquireContext(CtxErr);
  if (!Ctx) {
    E = Status(ErrorCode::WorkloadError, CtxErr);
    return 0;
  }
  Workload *W = Ctx->W[Which].get();
  KernelLaunch L;
  L.Kernel = Ks[Which]->IR.get();
  L.GridDim = W->preferredGrid();
  L.BlockDim = W->preferredBlock();
  L.BlockDimY = W->preferredBlockY();
  L.DynSharedBytes = W->dynSharedBytes();
  L.Params = W->params();
  L.Label = kernelDisplayName(Ids[Which]);
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

NWaySearchResult NWayRunner::searchBestConfig() {
  auto Start = std::chrono::steady_clock::now();
  NWaySearchResult SR;
  SR.RunId =
      formatString("s%u:%s", nextSearchRunSeq(), namesLabel().c_str());
  if (!Ready) {
    SR.Err = Opts.Cancel.cancelled() ? Opts.Cancel.status()
                                     : Status(ErrorCode::Internal, Err);
    SR.Error = SR.Err.message().empty() ? Err : SR.Err.message();
    return SR;
  }
  telemetry::TraceSpan SearchSpan;
  if (telemetry::traceOn())
    SearchSpan.beginSpan(
        "search", SR.RunId,
        formatString("{\"jobs\":%d,\"budget\":\"%s\",\"bound\":\"%s\","
                     "\"kernels\":%zu}",
                     Opts.SearchJobs, searchBudgetModeName(Opts.Budget),
                     Opts.MeasuredBound ? "measured" : "static",
                     Ids.size()));

  const size_t NK = Ids.size();

  // Enumeration: per-kernel partition choices in ascending order —
  // fixed-shape kernels (crypto) pin their native thread count, tunable
  // (DL) kernels sweep multiples of 128 compatible with their .y
  // extent — then the lexicographic cartesian product filtered to
  // warp-multiple splits summing <= 1024 (the hardware block limit).
  std::vector<std::vector<int>> Choices(NK);
  for (size_t K = 0; K < NK; ++K) {
    Workload *W = Primary.W[K].get();
    if (!kernelHasTunableBlockDim(Ids[K])) {
      Choices[K].push_back(W->preferredBlockThreads());
    } else {
      for (int D = 128; D <= 1024 - 128 * static_cast<int>(NK - 1);
           D += 128)
        if (D % W->preferredBlockY() == 0)
          Choices[K].push_back(D);
    }
  }
  std::vector<std::vector<int>> Partitions;
  {
    std::vector<int> Cur(NK, 0);
    std::function<void(size_t, int)> Rec = [&](size_t K, int Sum) {
      if (K == NK) {
        Partitions.push_back(Cur);
        return;
      }
      for (int D : Choices[K]) {
        if (Sum + D > 1024)
          break; // choices ascend: everything after is too big too
        Cur[K] = D;
        Rec(K + 1, Sum + D);
      }
    };
    Rec(0, 0);
  }

  /// One enumerated candidate (same life cycle as the pair sweep's).
  struct Candidate {
    int Id = -1;
    std::vector<int> Dims;
    int D0 = 0;
    unsigned RegBound = 0;
    std::shared_ptr<ir::IRKernel> IR;
    uint32_t DynShared = 0;
    int BlocksPerSM = 0;
    int Sibling = -1;
    bool Pruned = false;
    std::string PruneReason;
    int DominatorBlocksPerSM = 0;
    bool MarginReadmit = false;
    bool Abandoned = false;
    uint64_t AbandonBudget = 0;
    uint64_t AbandonIssued = 0;
    Status Error;
    bool Skipped = false;
    std::optional<NWayCandidate> Measured;
  };
  std::vector<Candidate> Cands;
  Cands.reserve(2 * Partitions.size());
  for (const std::vector<int> &Dims : Partitions) {
    Candidate C;
    C.Dims = Dims;
    for (int D : Dims)
      C.D0 += D;
    C.RegBound = 0;
    Cands.push_back(C);
    C.Sibling = static_cast<int>(Cands.size()) - 1;
    // RegBound computed in phase 1 (needs the fused shared-memory
    // size); the placeholder marks the slot.
    C.RegBound = UINT_MAX;
    Cands.push_back(C);
  }
  for (size_t I = 0; I < Cands.size(); ++I)
    Cands[I].Id = static_cast<int>(I);

  int Jobs = Opts.SearchJobs <= 0
                 ? static_cast<int>(ThreadPool::defaultConcurrency())
                 : Opts.SearchJobs;
  Jobs = std::min(Jobs,
                  static_cast<int>(std::max<size_t>(1, Cands.size())));
  std::unique_ptr<ThreadPool> Pool;
  if (Jobs > 1)
    Pool = std::make_unique<ThreadPool>(static_cast<unsigned>(Jobs));

  // Phase 1: fuse + lower, one task per partition; the bounded variant
  // shares the partition's fusion/codegen via the fusion cache.
  {
    telemetry::TraceSpan PhaseSpan("phase", "compile");
    parallelFor(Pool.get(), Partitions.size(), [&](size_t I) {
      Candidate &U = Cands[I * 2];
      if (!FaultInjector::instance()
               .check(FaultSite::CancelCompile, dimsLabel(U.Dims))
               .ok())
        Opts.Cancel.cancel();
      if (Opts.Cancel.cancelled()) {
        U.Skipped = true;
        Cands[I * 2 + 1].Skipped = true;
        return;
      }
      {
        telemetry::TraceSpan CandSpan;
        if (telemetry::traceOn())
          CandSpan.beginSpan(
              "fuse",
              formatString("c%d %s", U.Id, dimsLabel(U.Dims).c_str()),
              formatString("{\"run\":\"%s\",\"cand\":%d}", SR.RunId.c_str(),
                           U.Id));
        U.IR = getFusedIR(U.Dims, 0, U.DynShared, U.Error);
      }
      if (U.IR)
        U.BlocksPerSM =
            computeOccupancy(Opts.Arch, U.D0,
                             static_cast<int>(U.IR->ArchRegsPerThread),
                             U.IR->StaticSharedBytes + U.DynShared)
                .BlocksPerSM;
      Candidate &B = Cands[I * 2 + 1];
      Status BoundErr;
      std::optional<unsigned> R0 = regBoundImpl(B.Dims, BoundErr);
      if (!R0)
        return; // no bounded trial for this partition
      B.RegBound = *R0;
      {
        telemetry::TraceSpan CandSpan;
        if (telemetry::traceOn())
          CandSpan.beginSpan(
              "fuse",
              formatString("c%d %s:r%u", B.Id, dimsLabel(B.Dims).c_str(),
                           B.RegBound),
              formatString("{\"run\":\"%s\",\"cand\":%d}", SR.RunId.c_str(),
                           B.Id));
        B.IR = getFusedIR(B.Dims, *R0, B.DynShared, B.Error);
      }
      if (B.IR)
        B.BlocksPerSM =
            computeOccupancy(Opts.Arch, B.D0,
                             static_cast<int>(B.IR->ArchRegsPerThread),
                             B.IR->StaticSharedBytes + B.DynShared)
                .BlocksPerSM;
    });
  }

  // Phase 2: occupancy pruning over the canonical order — identical
  // rules to the pair sweep (see PairRunner.cpp for the full
  // commentary on why level 1 is result-preserving).
  telemetry::TraceSpan PruneSpan("phase", "prune");
  int MaxSeen = 0;
  for (Candidate &C : Cands) {
    if (!FaultInjector::instance()
             .check(FaultSite::CancelPrune, dimsLabel(C.Dims))
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

  auto Measure = [&](size_t K, const RunBudget &Budget,
                     double WaitedMs) -> std::optional<uint64_t> {
    Candidate &C = Cands[Kept[K]];
    if (!FaultInjector::instance()
             .check(FaultSite::CancelSimulate, dimsLabel(C.Dims))
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
          C.RegBound ? formatString("c%d %s:r%u", C.Id,
                                    dimsLabel(C.Dims).c_str(), C.RegBound)
                     : formatString("c%d %s", C.Id,
                                    dimsLabel(C.Dims).c_str()),
          simulateSpanArgs(SR.RunId, C.Id, Budget));
    NWayCandidate FC;
    FC.Id = C.Id;
    FC.Dims = C.Dims;
    FC.RegBound = C.RegBound;
    Status E;
    double FenceWaitMs = WaitedMs;
    FC.Result = runHFusedIn(nullptr, C.Dims, C.RegBound, E, &KeptStats[K],
                            Budget, &FenceWaitMs);
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
      C.Skipped = true;
    } else if (FC.Result.BudgetExceeded) {
      C.Abandoned = true;
      C.AbandonBudget = effectiveBudget(Budget);
      C.AbandonIssued = FC.Result.TotalIssued;
    } else if (C.Error.ok())
      C.Error = !E.ok() ? E : statusFromSim(FC.Result);
    return std::nullopt;
  };

  // Budgeted ordering + the fenced incumbent sweep (see PairRunner.cpp;
  // this is the same algorithm with the generalized N-way lower bound).
  const bool Budgeted = Opts.Budget != SearchBudgetMode::Off;
  const bool Tight = Opts.Budget == SearchBudgetMode::IncumbentTight;
  telemetry::TraceSpan SimPhaseSpan("phase", "simulate");
  std::vector<size_t> Order(Kept.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  if (Budgeted && !Kept.empty()) {
    // Generalized lower bound: the grid drains in
    // ceil(Grid / (BlocksPerSM * SimSMs)) waves, a wave lasts at least
    // as long as its slowest sub-kernel — per-thread dynamic work
    // scales inversely with the kernel's share of the block, giving
    // max_k(S_k / D_k) — and bounded variants inflate every thread by
    // their spill code.
    const int Grid = commonGrid();
    std::vector<double> S(NK);
    for (size_t K = 0; K < NK; ++K)
      S[K] = static_cast<double>(Ks[K]->IR->numInstructions());
    if (Opts.MeasuredBound) {
      // Measured ranking (one solo probe per kernel, the same issued
      // counts the sim.issued.<label> gauges export); only the order
      // — so only the incumbent seed — changes, never Best. Falls
      // back to the static proxy if any probe fails.
      std::vector<double> M(NK);
      bool AllOk = true;
      for (size_t K = 0; K < NK && AllOk; ++K) {
        Status SoloErr;
        uint64_t I = soloIssuedCount(K, SoloErr, &SR.Stats);
        AllOk = SoloErr.ok() && I != 0;
        M[K] = static_cast<double>(I);
      }
      if (AllOk)
        S = std::move(M);
    }
    std::vector<double> Bound(Kept.size());
    for (size_t I = 0; I < Kept.size(); ++I) {
      const Candidate &C = Cands[Kept[I]];
      double PerThread = 0.0;
      for (size_t K = 0; K < NK; ++K)
        PerThread = std::max(PerThread, S[K] / C.Dims[K]);
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
    // Canonical post-sweep reporting under the final incumbent (see
    // the pair runner and SearchOptions.h for the determinism story).
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
    if (C.RegBound == UINT_MAX && !C.Skipped)
      continue; // partition without a bounded trial
    if (FirstError.ok() && !C.Error.ok())
      FirstError = C.Error;
    ++SR.Stats.Candidates;
    if (C.Skipped) {
      NWayUnvisitedCandidate U;
      U.Id = C.Id;
      U.Dims = C.Dims;
      U.RegBound = C.RegBound == UINT_MAX ? 0 : C.RegBound;
      U.BoundPending = C.RegBound == UINT_MAX;
      SR.Unvisited.push_back(std::move(U));
      ++SR.Stats.Unvisited;
      continue;
    }
    if (!C.Error.ok()) {
      NWayFailedCandidate F;
      F.Id = C.Id;
      F.Dims = C.Dims;
      F.RegBound = C.RegBound;
      F.Err = C.Error;
      SR.Failed.push_back(std::move(F));
      ++SR.Stats.Failed;
      continue;
    }
    if (C.Pruned) {
      NWayPrunedCandidate P;
      P.Id = C.Id;
      P.Dims = C.Dims;
      P.RegBound = C.RegBound;
      P.BlocksPerSM = C.BlocksPerSM;
      P.DominatorBlocksPerSM = C.DominatorBlocksPerSM;
      P.Reason = std::move(C.PruneReason);
      SR.Pruned.push_back(std::move(P));
      ++SR.Stats.Pruned;
    } else if (C.Abandoned) {
      NWayAbandonedCandidate A;
      A.Id = C.Id;
      A.Dims = C.Dims;
      A.RegBound = C.RegBound;
      A.BudgetCycles = C.AbandonBudget;
      A.IssuedInsts = C.AbandonIssued;
      SR.Abandoned.push_back(std::move(A));
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
    if (SR.PartialReason.ok())
      SR.PartialReason =
          Status::transient(ErrorCode::Cancelled, "request cancelled");
  }
  SR.Stats.IncumbentCycles = Incumbent;
  SR.Stats.WallMs =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - Start)
          .count();

  // Same funnel counters as the pair search — one registry serves
  // both, so dashboards and the driver's --metrics snapshot aggregate
  // pair and N-way sweeps uniformly.
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
      [](const NWayCandidate &X, const NWayCandidate &Y) {
        return X.Cycles < Y.Cycles;
      });
  SR.Ok = true;
  return SR;
}
