//===-- profile/NWayRunner.cpp - The configuration search -----------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "profile/NWayRunner.h"

#include "gpusim/Occupancy.h"
#include "ir/RegAlloc.h"
#include "profile/IncumbentSweep.h"
#include "support/BinaryCodec.h"
#include "support/BuildId.h"
#include "support/FaultInjector.h"
#include "support/Log.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "transform/Fusion.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <climits>
#include <functional>

using namespace hfuse;
using namespace hfuse::gpusim;
using namespace hfuse::kernels;
using namespace hfuse::profile;

unsigned hfuse::profile::nextSearchRunSeq() {
  static std::atomic<unsigned> NextRunSeq{0};
  return NextRunSeq.fetch_add(1, std::memory_order_relaxed) + 1;
}

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
    : Ids(std::move(InIds)), Opts(std::move(InOpts)) {
  // Null means the process-wide default cache: kernels shared across
  // searches compile exactly once, no matter how many runners touch
  // them (e.g. the bench loops over all 16 pairs).
  Cache = this->Opts.Cache
              ? this->Opts.Cache
              : std::shared_ptr<CompileCache>(&globalCompileCache(),
                                              [](CompileCache *) {});

  // An empty token is upgraded to a private live one so the cancel-*
  // fault sites (and callers holding a copy of Options) always have a
  // real token to fire; it has no deadline and no external cancel()
  // caller, so only a fault site or a process interrupt can fire it.
  if (!this->Opts.Cancel.valid())
    this->Opts.Cancel = CancellationToken::make();

  if (Ids.size() < 2) {
    Err = Status(ErrorCode::Internal,
                 "horizontal fusion needs at least 2 kernels");
    return;
  }
  const size_t NScales = this->Opts.Scales.size();
  if (NScales > 1 && NScales != Ids.size()) {
    Err = Status(ErrorCode::Internal,
                 formatString("%zu workload scales for %zu kernels",
                              NScales, Ids.size()));
    return;
  }

  std::string CtxErr;
  std::unique_ptr<SimContext> C = makeContext(CtxErr);
  if (!C) {
    Err = Status(ErrorCode::Internal, CtxErr);
    return;
  }
  Primary = std::move(*C);
  FreeContexts.push_back(&Primary);
  Ready = true;
}

bool NWayRunner::ok() const {
  std::lock_guard<std::mutex> Lock(InputsMu);
  return Ready && !InputsFailed;
}

Status NWayRunner::compileInputs() {
  if (!Ready)
    return Err;
  std::lock_guard<std::mutex> Lock(InputsMu);
  if (Ks.size() == Ids.size())
    return Status::success();
  DiagnosticEngine Diags;
  std::vector<std::shared_ptr<const CompiledKernel>> Compiled;
  Compiled.reserve(Ids.size());
  for (BenchKernelId Id : Ids) {
    Status CompileErr;
    std::shared_ptr<const CompiledKernel> K = Cache->getBenchKernel(
        Id, /*RegBound=*/0, Diags, &CompileErr, Opts.Cancel);
    if (!K) {
      // Keep the compile's code and transient flag: a retryable
      // injected fault is not an internal error.
      std::string Msg = "kernel compilation failed:\n" + Diags.str();
      Err = CompileErr.transient()
                ? Status::transient(CompileErr.code(), std::move(Msg))
                : Status(CompileErr.code(), std::move(Msg));
      InputsFailed = true;
      return Err;
    }
    Compiled.push_back(std::move(K));
  }
  Ks = std::move(Compiled);
  InputsFailed = false;
  return Status::success();
}

double NWayRunner::scale(size_t K) const {
  if (Opts.Scales.empty())
    return 1.0;
  return Opts.Scales[Opts.Scales.size() == 1 ? 0 : K];
}

std::unique_ptr<NWayRunner::SimContext>
NWayRunner::makeContext(std::string &Error) const {
  auto C = std::make_unique<SimContext>();
  C->W.reserve(Ids.size());
  for (size_t I = 0; I < Ids.size(); ++I) {
    WorkloadConfig WC;
    WC.SizeScale = scale(I);
    WC.SimSMs = Opts.SimSMs;
    // Distinct seeds per kernel (Seed, Seed + 1, ...), so a kernel's
    // data depends only on its position.
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
  return C;
}

NWayRunner::SimContext &NWayRunner::setUp(SimContext &C) {
  if (!C.IsSetUp) {
    for (auto &W : C.W)
      W->setup(*C.Sim);
    C.IsSetUp = true;
    Cache->count(&CompileCache::Stats::ContextSetups);
  }
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
  // Build a fresh context outside the lock.
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

unsigned NWayRunner::soloRegs(size_t K) {
  return compileInputs().ok() ? Ks[K]->IR->ArchRegsPerThread : 0;
}

int NWayRunner::commonGrid() const {
  int Grid = 0;
  for (const auto &W : Primary.W)
    Grid = std::max(Grid, W->preferredGrid());
  return Grid;
}

uint32_t NWayRunner::fusedDynShared() const {
  uint32_t Dyn = 0;
  for (const auto &W : Primary.W)
    Dyn += W->dynSharedBytes();
  return Dyn;
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
  assert(C.IsSetUp && "launch params read before setUp()");
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

KernelLaunch NWayRunner::soloLaunch(size_t K) {
  const Workload &W = *setUp(Primary).W[K];
  KernelLaunch L;
  L.Kernel = Ks[K]->IR.get();
  L.GridDim = W.preferredGrid();
  L.BlockDim = W.preferredBlock();
  L.BlockDimY = W.preferredBlockY();
  L.DynSharedBytes = W.dynSharedBytes();
  L.Params = W.params();
  L.Label = kernelDisplayName(Ids[K]);
  return L;
}

SimResult NWayRunner::runNative() {
  if (Status S = compileInputs(); !S.ok())
    return fail(S.message());
  std::vector<KernelLaunch> Launches;
  std::vector<int> VerifyThreads;
  for (size_t I = 0; I < Ids.size(); ++I) {
    Launches.push_back(soloLaunch(I));
    VerifyThreads.push_back(Launches.back().GridDim *
                            Primary.W[I]->preferredBlockThreads());
  }
  return runLaunches(Primary, Launches, VerifyThreads);
}

SimResult NWayRunner::runSolo(size_t K) {
  if (Status S = compileInputs(); !S.ok())
    return fail(S.message());
  KernelLaunch L = soloLaunch(K);
  std::vector<int> VerifyThreads(Ids.size(), 0);
  VerifyThreads[K] = L.GridDim * Primary.W[K]->preferredBlockThreads();
  return runLaunches(Primary, {L}, VerifyThreads);
}

SimResult NWayRunner::runSerial() {
  SimResult Agg;
  for (size_t I = 0; I < Ids.size(); ++I) {
    SimResult R = runSolo(I);
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
                       Status &Err) {
  // One entry per partition serves every register bound.
  FusionEntry *Entry;
  {
    std::lock_guard<std::mutex> Lock(FusionCacheMu);
    std::unique_ptr<FusionEntry> &Slot = FusionCache[Dims];
    if (!Slot)
      Slot = std::make_unique<FusionEntry>();
    Entry = Slot.get();
  }

  std::lock_guard<std::mutex> Lock(Entry->Mu);
  if (!Entry->Attempted) {
    // Fusion reads the input kernels' ASTs. A failed compile leaves the
    // entry unattempted, so the next caller compiles again.
    if (Status S = compileInputs(); !S.ok()) {
      Err = std::move(S);
      return nullptr;
    }
    // Fault-injection point for the fusion stage. Fired faults are
    // transient: return the failure without marking the entry
    // attempted, so a retry redoes the fusion instead of replaying an
    // injected error as if it were a property of the partition.
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
        *Entry->Ctx, Fns, Dims, /*FusedName=*/"", Diags, Shapes,
        Opts.UsePartialBarriers);
    if (!MR.Ok) {
      Entry->Err = MR.Err;
    } else {
      Entry->BaseIR = lowerFunctionNoRegAlloc(*Entry->Ctx, MR.Fused, Diags);
      if (!Entry->BaseIR)
        Entry->Err = Status(ErrorCode::CodegenError,
                            "fused kernel lowering failed:\n" + Diags.str());
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

  auto It = Entry->ByBound.find(RegBound);
  if (It != Entry->ByBound.end()) {
    Cache->count(&CompileCache::Stats::LoweringHits);
    return It->second;
  }

  // A bound at or above the natural allocation aliases the unbounded
  // IR, so the simulation memo recognizes the identical launch.
  if (RegBound != 0 && Entry->UnboundedRegs != 0 &&
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
                                  unsigned RegBound, uint64_t Hash,
                                  Status &Err, SearchStats *Stats,
                                  const RunBudget &Budget,
                                  double *FenceWaitMs) {
  const int Grid = commonGrid();
  int BlockDim = 0;
  for (int D : Dims)
    BlockDim += D;
  const uint32_t DynShared = fusedDynShared();
  SimMemo::Key MemoKey{Hash, Grid, BlockDim, DynShared};

  // Disk key for the second-level ResultStore. It extends the memo key
  // with everything else the simulation is a pure function of: the
  // architecture/simulator model and the workload identity (seed, then
  // each kernel's scale and name) that determines the kernel
  // parameters. Verified runs bypass the disk: a served result skips
  // simulation, so the workload outputs verify() needs would not exist.
  std::string DiskKey;
  if (!Opts.Verify && Cache->hasStore()) {
    ByteWriter KW;
    KW.str("sim-result");
    KW.u64(Hash);
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
      KW.f64(scale(I));
      KW.str(kernelDisplayName(Ids[I]));
    }
    DiskKey = KW.take();
  }
  // Only a simulation needs the fused IR, a context and its workload
  // inputs: memo and disk hits never fuse or lower, never take a context
  // from the pool, and never build or set one up.
  auto Simulate = [&](const RunBudget &B) -> Expected<SimResult> {
    std::shared_ptr<ir::IRKernel> IR = getFusedIR(Dims, RegBound, Err);
    if (!IR)
      return Err;
    if (IR->contentHash() != Hash) {
      // Phase 1 (or the summary standing in for it) promised another
      // kernel: the store or the toolchain's determinism is broken.
      // Simulating this IR would answer for a launch nobody asked for.
      HFUSE_METRIC_ADD("compile.digest_mismatches", 1);
      logWarn("fused kernel %s%s does not match its phase-1 digest",
              dimsLabel(Dims).c_str(),
              RegBound ? formatString(":r%u", RegBound).c_str() : "");
      Err = Status(ErrorCode::Internal,
                   "fused kernel does not match its phase-1 digest");
      return Err;
    }
    std::string CtxErr;
    SimContext *Ctx = C ? C : acquireContext(CtxErr);
    if (!Ctx) {
      Err = Status(ErrorCode::WorkloadError, CtxErr);
      return Err;
    }
    setUp(*Ctx);
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
  return Memo.run(MemoKey, DiskKey, Opts.Cancel, *Cache, Stats, Budget,
                  FenceWaitMs, Simulate);
}

SimResult NWayRunner::runHFused(const std::vector<int> &Dims,
                                unsigned RegBound) {
  if (!Ready)
    return fail(Err.message());
  if (Dims.size() != Ids.size())
    return fail("partition count does not match kernel count");
  Status E;
  std::shared_ptr<ir::IRKernel> IR = getFusedIR(Dims, RegBound, E);
  SimResult R = IR ? runHFusedIn(&Primary, Dims, RegBound, IR->contentHash(),
                                 E, nullptr)
                   : fail(E.message());
  if (!R.Ok && !E.ok())
    Err = E;
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

  std::shared_ptr<ir::IRKernel> IR = getFusedIR(Dims, /*RegBound=*/0, Err);
  if (!IR)
    return std::nullopt;
  uint32_t ShMem = IR->StaticSharedBytes + fusedDynShared();
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
  Status E = compileInputs();
  std::optional<unsigned> R0;
  if (E.ok())
    R0 = regBoundImpl(Dims, E);
  if (!E.ok())
    Err = E;
  return R0;
}

std::vector<std::vector<int>> NWayRunner::partitions() const {
  // A runner whose constructor failed has no workloads to shape the
  // partitions; sweep() reports why.
  if (!Ready)
    return {};
  const size_t NK = Ids.size();
  // A partition must be divisible by each kernel's fixed .y extent so its
  // threads form whole rows of the original block shape.
  auto Feasible = [&](size_t K, int D) {
    return D % Primary.W[K]->preferredBlockY() == 0;
  };
  std::vector<std::vector<int>> Partitions;
  if (NK == 2) {
    // Figure 6: two tunable kernels split a 1024-thread block at a
    // granularity of 128; otherwise the pair runs the even split of its
    // native block sizes.
    const bool Tunable =
        kernelHasTunableBlockDim(Ids[0]) && kernelHasTunableBlockDim(Ids[1]);
    const int D0 = Tunable ? 1024
                           : Primary.W[0]->preferredBlockThreads() +
                                 Primary.W[1]->preferredBlockThreads();
    const int Step = Tunable ? 128 : D0 / 2;
    for (int D1 = Step; D1 < D0; D1 += Step)
      if (Feasible(0, D1) && Feasible(1, D0 - D1))
        Partitions.push_back({D1, D0 - D1});
    return Partitions;
  }

  // Per-kernel choices in ascending order — fixed-shape kernels (crypto)
  // pin their native thread count, tunable (DL) kernels sweep multiples
  // of 128 — then the lexicographic product filtered to splits summing
  // to at most 1024 (the hardware block limit).
  std::vector<std::vector<int>> Choices(NK);
  for (size_t K = 0; K < NK; ++K) {
    if (!kernelHasTunableBlockDim(Ids[K])) {
      Choices[K].push_back(Primary.W[K]->preferredBlockThreads());
    } else {
      for (int D = 128; D <= 1024 - 128 * static_cast<int>(NK - 1);
           D += 128)
        if (Feasible(K, D))
          Choices[K].push_back(D);
    }
  }
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
  return Partitions;
}

std::string
NWayRunner::phase1SummaryKey(const std::vector<std::vector<int>> &Partitions,
                             bool TryBound) const {
  // Verified runs bypass the store. Without a build ID nothing vouches
  // that this binary fuses and lowers as the one that wrote a summary.
  const std::string &Build = executableBuildId();
  if (Opts.Verify || !Cache->hasStore() || Build.empty())
    return {};
  ByteWriter KW;
  KW.str("phase1-summary");
  KW.str(Build);
  KW.u32(static_cast<uint32_t>(Ids.size()));
  for (size_t I = 0; I < Ids.size(); ++I) {
    KW.str(kernelDisplayName(Ids[I]));
    KW.f64(scale(I));
  }
  // The arch's thread, block, register and shared-memory limits: r0 and
  // the occupancy of the recorded shapes are functions of them.
  const GpuArch &A = Opts.Arch;
  KW.str(A.Name);
  for (int V : {A.MaxThreadsPerSM, A.MaxBlocksPerSM, A.MaxThreadsPerBlock,
                A.WarpSize, A.RegsPerSM, A.MaxRegsPerThread, A.RegAllocUnit,
                A.SharedMemPerSM, A.SharedAllocUnit})
    KW.u32(static_cast<uint32_t>(V));
  KW.u8(Opts.UsePartialBarriers ? 1 : 0);
  KW.u32(static_cast<uint32_t>(Partitions.size()));
  for (const std::vector<int> &Dims : Partitions)
    for (int D : Dims)
      KW.u32(static_cast<uint32_t>(D));
  KW.u8(TryBound ? 1 : 0);
  return KW.take();
}

SearchResult NWayRunner::searchBestConfig() {
  return sweep(partitions(), /*TryBound=*/true);
}

SearchResult
NWayRunner::sweep(const std::vector<std::vector<int>> &Partitions,
                  bool TryBound) {
  auto Start = std::chrono::steady_clock::now();
  SearchResult SR;
  if (!Ready) {
    // Construction compiles nothing, so its failure is reported as it
    // happened.
    SR.Err = Err;
    return SR;
  }
  const size_t NK = Ids.size();

  // The search proper runs in three phases so that pruning decisions
  // are a deterministic function of the candidate list, never of
  // worker timing:
  //   1. compile: fuse + lower every candidate (parallel, CPU-bound,
  //      no simulator state needed), or read what that would learn from
  //      the store's phase-1 summary;
  //   2. prune: walk candidates in canonical order (partitions in
  //      order, unbounded before bounded) and drop the dominated ones
  //      (serial, occupancy arithmetic only);
  //   3. profile: simulate the kept candidates (parallel, one private
  //      simulator context per worker).

  /// One enumerated candidate of the sweep.
  struct Candidate {
    /// Canonical id: the index in this enumeration, stable across
    /// SearchJobs (exported as FusionCandidate::Id and friends).
    int Id = -1;
    std::vector<int> Dims;
    int D0 = 0;
    unsigned RegBound = 0;
    /// What phase 1 learned about the lowered candidate (none until it
    /// was lowered); phases 2 and 3 read nothing else of it.
    std::optional<LoweredShape> Shape;
    int BlocksPerSM = 0;
    /// Index of this partition's unbounded sibling (bounded only).
    int Sibling = -1;
    bool Pruned = false;
    std::string PruneReason;
    int DominatorBlocksPerSM = 0;
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
  const size_t PerPart = TryBound ? 2 : 1;
  std::vector<Candidate> Cands;
  Cands.reserve(PerPart * Partitions.size());
  for (const std::vector<int> &Dims : Partitions) {
    Candidate C;
    C.Dims = Dims;
    for (int D : Dims)
      C.D0 += D;
    C.RegBound = 0;
    Cands.push_back(C);
    if (TryBound) {
      C.Sibling = static_cast<int>(Cands.size()) - 1;
      // RegBound filled during phase 1 (it needs the fused kernel's
      // shared-memory size); a placeholder marks the slot.
      C.RegBound = UINT_MAX;
      Cands.push_back(C);
    }
  }
  for (size_t I = 0; I < Cands.size(); ++I)
    Cands[I].Id = static_cast<int>(I);

  // Phase 1 is a pure function of the binary and of what the summary
  // key holds, so a stored summary of an earlier clean phase 1 answers
  // it whole. It must fit this search: one shape per input kernel, and
  // slot for slot, an unbounded candidate holds a shape, a bounded one
  // a shape under a real bound or nothing (no r0). Anything else is a
  // miss, and the clean phase 1 below replaces the record.
  const std::string SummaryKey = phase1SummaryKey(Partitions, TryBound);
  std::optional<Phase1Summary> Summary;
  if (!SummaryKey.empty())
    Summary = Cache->loadPhase1Summary(SummaryKey);
  auto Fits = [&](size_t I) {
    const Phase1Entry &E = Summary->Entries[I];
    if (Cands[I].Sibling < 0)
      return E.Shape && E.RegBound == 0;
    return !E.Shape || (E.RegBound != 0 && E.RegBound != UINT_MAX);
  };
  bool Hit = Summary && Summary->Inputs.size() == NK &&
             Summary->Entries.size() == Cands.size();
  for (size_t I = 0; Hit && I < Cands.size(); ++I)
    Hit = Fits(I);

  // The input kernels' shapes; the bound ordering reads their
  // instruction counts. A miss fuses, which needs the kernels
  // themselves: they compile here, before the run id is taken, so a
  // failed or cancelled compile ends the search with 0 candidates and
  // spends no id.
  std::vector<LoweredShape> InputShapes;
  if (Hit) {
    InputShapes = Summary->Inputs;
  } else if (Status S = compileInputs(); !S.ok()) {
    if (Opts.Cancel.cancelled()) {
      SR.Partial = true;
      SR.PartialReason = Opts.Cancel.status();
      SR.Err = SR.PartialReason;
    } else {
      SR.Err = std::move(S);
    }
    return SR;
  } else {
    for (const std::shared_ptr<const CompiledKernel> &K : Ks)
      InputShapes.push_back(LoweredShape::of(*K->IR));
  }

  // Process-unique run id, joined against every span this search emits
  // and against the driver's failed:/abandoned: table rows.
  SR.RunId =
      formatString("s%u:%s", nextSearchRunSeq(), namesLabel().c_str());
  telemetry::TraceSpan SearchSpan;
  if (telemetry::traceOn())
    SearchSpan.beginSpan(
        "search", SR.RunId,
        formatString("{\"jobs\":%d,\"budget\":\"%s\",\"kernels\":%zu}",
                     Opts.SearchJobs, searchBudgetModeName(Opts.Budget),
                     NK));

  int Jobs = Opts.SearchJobs <= 0
                 ? static_cast<int>(ThreadPool::defaultConcurrency())
                 : Opts.SearchJobs;
  Jobs = std::min(Jobs,
                  static_cast<int>(std::max<size_t>(1, Cands.size())));
  std::unique_ptr<ThreadPool> Pool;
  if (Jobs > 1)
    Pool = std::make_unique<ThreadPool>(static_cast<unsigned>(Jobs));

  const uint32_t DynShared = fusedDynShared();
  auto Occupancy = [&](const Candidate &C) {
    return computeOccupancy(Opts.Arch, C.D0,
                            static_cast<int>(C.Shape->ArchRegs),
                            C.Shape->StaticShared + DynShared)
        .BlocksPerSM;
  };

  // Deterministic cancel point for the compile phase, once per
  // partition on either path below: the fault site fires the
  // *request's* token (it never fails a candidate), so injected
  // cancellation reproduces exactly. A cancelled partition's candidates
  // go unvisited.
  auto PartitionCancelled = [&](size_t I) {
    if (!FaultInjector::instance()
             .check(FaultSite::CancelCompile, dimsLabel(Partitions[I]))
             .ok())
      Opts.Cancel.cancel();
    if (!Opts.Cancel.cancelled())
      return false;
    for (size_t V = 0; V < PerPart; ++V)
      Cands[I * PerPart + V].Skipped = true;
    return true;
  };

  {
    telemetry::TraceSpan PhaseSpan("phase", "compile");
    if (Hit) {
      Cache->count(&CompileCache::Stats::SummaryHits);
      for (size_t I = 0; I < Partitions.size(); ++I) {
        if (PartitionCancelled(I))
          continue;
        for (size_t V = 0; V < PerPart; ++V) {
          Candidate &C = Cands[I * PerPart + V];
          const Phase1Entry &E = Summary->Entries[I * PerPart + V];
          if (!E.Shape)
            continue; // no bounded trial for this partition
          C.RegBound = E.RegBound;
          C.Shape = E.Shape;
          C.BlocksPerSM = Occupancy(C);
        }
      }
    } else {
      // One task per partition lowers the unbounded variant, derives
      // r0, and lowers the bounded variant (sharing the fusion).
      const uint64_t FiredBefore = FaultInjector::instance().firedCount();
      parallelFor(Pool.get(), Partitions.size(), [&](size_t I) {
        if (PartitionCancelled(I))
          return;
        auto Lower = [&](Candidate &C) {
          telemetry::TraceSpan CandSpan;
          if (telemetry::traceOn())
            CandSpan.beginSpan(
                "fuse",
                C.RegBound ? formatString("c%d %s:r%u", C.Id,
                                          dimsLabel(C.Dims).c_str(),
                                          C.RegBound)
                           : formatString("c%d %s", C.Id,
                                          dimsLabel(C.Dims).c_str()),
                formatString("{\"run\":\"%s\",\"cand\":%d}",
                             SR.RunId.c_str(), C.Id));
          if (std::shared_ptr<ir::IRKernel> IR =
                  getFusedIR(C.Dims, C.RegBound, C.Error)) {
            C.Shape = LoweredShape::of(*IR);
            C.BlocksPerSM = Occupancy(C);
          }
        };
        Lower(Cands[I * PerPart]);
        if (!TryBound)
          return;
        Candidate &B = Cands[I * PerPart + 1];
        Status BoundErr;
        std::optional<unsigned> R0 = regBoundImpl(B.Dims, BoundErr);
        if (!R0)
          return; // no bounded trial for this partition
        B.RegBound = *R0;
        Lower(B);
      });
      // Only a clean phase 1 is a property of its inputs: a cancel, a
      // failed candidate or a fired fault (which may have failed one)
      // would store the request's accident.
      const bool Clean =
          !SummaryKey.empty() && !Opts.Cancel.cancelled() &&
          FaultInjector::instance().firedCount() == FiredBefore &&
          std::all_of(Cands.begin(), Cands.end(), [](const Candidate &C) {
            return C.Error.ok() && !C.Skipped;
          });
      if (Clean) {
        Phase1Summary Record{InputShapes, {}};
        Record.Entries.reserve(Cands.size());
        for (const Candidate &C : Cands)
          Record.Entries.push_back({C.Shape ? C.RegBound : 0, C.Shape});
        Cache->storePhase1Summary(SummaryKey, Record);
      }
    }
  }

  // Phase 2: occupancy pruning over the canonical order. The rules
  // preserve results: a candidate that cannot launch, or a bounded
  // variant whose bound fails to raise blocks/SM over its partition's
  // unbounded sibling (same code plus spill traffic at no occupancy
  // gain), cannot be the winner. Identical-IR variants (bound at/above
  // the natural allocation) are exempt — they replay the sibling's
  // memoized result for free.
  telemetry::TraceSpan PruneSpan("phase", "prune");
  for (Candidate &C : Cands) {
    // Deterministic cancel point for the prune phase; a cancelled
    // request leaves every not-yet-resolved candidate unvisited (ones
    // already retired by a contained failure keep their verdict).
    if (!FaultInjector::instance()
             .check(FaultSite::CancelPrune, dimsLabel(C.Dims))
             .ok())
      Opts.Cancel.cancel();
    if (Opts.Cancel.cancelled()) {
      if (C.Error.ok())
        C.Skipped = true;
      continue;
    }
    if (!Opts.Prune || C.Skipped || !C.Shape || C.RegBound == UINT_MAX)
      continue;
    Candidate *Sib =
        C.RegBound != 0 && C.Sibling >= 0 ? &Cands[C.Sibling] : nullptr;
    bool AliasOfSibling =
        Sib && Sib->Shape && Sib->Shape->Hash == C.Shape->Hash;
    if (C.BlocksPerSM <= 0) {
      C.Pruned = true;
      C.PruneReason = "cannot launch: 0 blocks/SM";
    } else if (Sib && Sib->Shape && !Sib->Pruned && !AliasOfSibling &&
               C.BlocksPerSM <= Sib->BlocksPerSM) {
      C.Pruned = true;
      C.DominatorBlocksPerSM = Sib->BlocksPerSM;
      C.PruneReason = formatString(
          "r%u gives %d blocks/SM, no gain over the unbounded variant's "
          "%d: same code plus spills cannot win",
          C.RegBound, C.BlocksPerSM, Sib->BlocksPerSM);
    }
  }
  PruneSpan.finish();

  // Phase 3: simulate the kept candidates.
  std::vector<size_t> Kept;
  for (size_t I = 0; I < Cands.size(); ++I)
    if (Cands[I].Shape && Cands[I].RegBound != UINT_MAX &&
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
    FusionCandidate FC;
    FC.Id = C.Id;
    FC.Dims = C.Dims;
    FC.RegBound = C.RegBound;
    Status E;
    double FenceWaitMs = WaitedMs;
    FC.Result = runHFusedIn(nullptr, C.Dims, C.RegBound, C.Shape->Hash, E,
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

  // Unbudgeted search keeps the canonical measurement order. Budgeted
  // search reorders phase 3 best-first: candidates are ranked by a lower
  // bound on their cycle count, the front-runner seeds the incumbent,
  // and everything else runs under a cycle budget = incumbent, overlapping
  // the seed behind an incumbent fence (profile/IncumbentSweep.h).
  // Whether a candidate completes or aborts depends only on its own true
  // cycle count against that budget, so results stay deterministic
  // across SearchJobs — and Best is bit-identical to the unbudgeted
  // sweep, because any candidate at or below the incumbent still
  // completes with exact cycles while aborted ones were strictly worse.
  telemetry::TraceSpan SimPhaseSpan("phase", "simulate");
  std::vector<size_t> Order(Kept.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  if (Opts.Budget != SearchBudgetMode::Off && !Kept.empty()) {
    // Occupancy/issue-width lower bound. The grid drains in
    // ceil(Grid / (BlocksPerSM * SimSMs)) occupancy waves, and a wave
    // lasts at least as long as its slowest sub-kernel: a warp issues at
    // most one instruction per cycle, and a sub-kernel's per-thread
    // dynamic work scales inversely with its share of the block (the
    // work a block covers is partition-invariant), so the per-block
    // critical path goes as max_k(S_k / D_k) with the input kernels'
    // static instruction counts S_k standing in for their dynamic
    // ratios. Bounded variants additionally inflate every thread by
    // their spill code (fused static count vs the unbounded sibling's)
    // — which ranks the spill-heavy crypto bounds last, exactly the
    // runs worth abandoning. Ties keep canonical order (stable sort).
    const int Grid = commonGrid();
    std::vector<double> Bound(Kept.size());
    for (size_t I = 0; I < Kept.size(); ++I) {
      const Candidate &C = Cands[Kept[I]];
      double PerThread = 0.0;
      for (size_t K = 0; K < NK; ++K)
        PerThread = std::max(PerThread,
                             static_cast<double>(InputShapes[K].Insts) /
                                 C.Dims[K]);
      const Candidate *Sib = C.Sibling >= 0 ? &Cands[C.Sibling] : nullptr;
      if (Sib && Sib->Shape && Sib->Shape->Hash != C.Shape->Hash)
        PerThread *= static_cast<double>(C.Shape->Insts) /
                     static_cast<double>(
                         std::max<uint64_t>(1, Sib->Shape->Insts));
      uint64_t BlocksPerWave =
          uint64_t(std::max(1, C.BlocksPerSM)) * Opts.SimSMs;
      uint64_t Waves =
          (uint64_t(Grid) + BlocksPerWave - 1) / BlocksPerWave;
      Bound[I] = static_cast<double>(Waves) * PerThread;
    }
    std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
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
  Hooks.SameLaunch = [&](size_t K, size_t SeedK) {
    const Candidate &A = Cands[Kept[K]], &B = Cands[Kept[SeedK]];
    return A.Shape->Hash == B.Shape->Hash && A.D0 == B.D0;
  };
  uint64_t Incumbent = runSimulatePhase(Pool.get(), Opts, Order, Hooks);
  SimPhaseSpan.finish();

  Status FirstError;
  for (Candidate &C : Cands) {
    // A bounded slot whose partition yielded no r0 is not a candidate —
    // but a slot cancelled before r0 was computed is one that *would*
    // have existed: count it as unvisited with the bound still pending,
    // so the ledger identity Candidates == All + Pruned + Abandoned +
    // Failed + Unvisited holds on partial runs.
    if (C.RegBound == UINT_MAX && !C.Skipped)
      continue; // partition without a bounded trial
    if (FirstError.ok() && !C.Error.ok())
      FirstError = C.Error;
    ++SR.Stats.Candidates;
    if (C.Skipped) {
      UnvisitedCandidate U;
      U.Id = C.Id;
      U.Dims = C.Dims;
      U.RegBound = C.RegBound == UINT_MAX ? 0 : C.RegBound;
      U.BoundPending = C.RegBound == UINT_MAX;
      SR.Unvisited.push_back(std::move(U));
      ++SR.Stats.Unvisited;
      continue;
    }
    if (!C.Error.ok()) {
      // Contained failure: the candidate is retired with its error
      // recorded and the sweep goes on. Recorded in canonical order
      // (this loop), so the report is deterministic across SearchJobs.
      FailedCandidate F;
      F.Id = C.Id;
      F.Dims = C.Dims;
      F.RegBound = C.RegBound;
      F.Err = C.Error;
      SR.Failed.push_back(std::move(F));
      ++SR.Stats.Failed;
      continue;
    }
    if (C.Pruned) {
      PrunedCandidate P;
      P.Id = C.Id;
      P.Dims = C.Dims;
      P.RegBound = C.RegBound;
      P.BlocksPerSM = C.BlocksPerSM;
      P.DominatorBlocksPerSM = C.DominatorBlocksPerSM;
      P.Reason = std::move(C.PruneReason);
      SR.Pruned.push_back(std::move(P));
      ++SR.Stats.Pruned;
    } else if (C.Abandoned) {
      AbandonedCandidate A;
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
                            Err.ok() ? "no feasible fusion configuration"
                                     : Err.message());
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
