//===-- profile/Compile.cpp - Kernel compilation helpers ------------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "profile/Compile.h"

#include "codegen/CodeGen.h"
#include "cudalang/Sema.h"
#include "ir/RegAlloc.h"
#include "support/BinaryCodec.h"
#include "support/FaultInjector.h"
#include "support/Telemetry.h"

using namespace hfuse;
using namespace hfuse::profile;

namespace {

/// Registry name for each CompileCache statistics counter, so every
/// count() call is mirrored into the telemetry snapshot. The Stats
/// struct stays the source of truth the tests pin; the mirror is
/// write-only observability.
const char *metricNameFor(uint64_t CompileCache::Stats::*Counter) {
  using Stats = CompileCache::Stats;
  if (Counter == &Stats::KernelCompiles)
    return "compile.kernel_compiles";
  if (Counter == &Stats::KernelHits)
    return "compile.cache_hits";
  if (Counter == &Stats::FusionRuns)
    return "compile.fusions";
  if (Counter == &Stats::FusionHits)
    return "compile.fusion_hits";
  if (Counter == &Stats::Lowerings)
    return "compile.lowerings";
  if (Counter == &Stats::LoweringHits)
    return "compile.lowering_hits";
  if (Counter == &Stats::SimRuns)
    return "search.sim_runs";
  if (Counter == &Stats::SimMemoHits)
    return "search.sim_memo_hits";
  if (Counter == &Stats::CompileRetries)
    return "compile.retries";
  if (Counter == &Stats::DiskHits)
    return "compile.disk_hits";
  if (Counter == &Stats::DiskMisses)
    return "compile.disk_misses";
  if (Counter == &Stats::DiskWrites)
    return "compile.disk_writes";
  if (Counter == &Stats::ContextSetups)
    return "sim.context_setups";
  if (Counter == &Stats::SummaryHits)
    return "compile.summary_hits";
  if (Counter == &Stats::SummaryWrites)
    return "compile.summary_writes";
  return nullptr;
}

void mirrorCount(uint64_t CompileCache::Stats::*Counter, uint64_t N) {
  if (!telemetry::metricsOn())
    return;
  if (const char *Name = metricNameFor(Counter))
    telemetry::MetricsRegistry::instance().counter(Name).add(N);
}

} // namespace

std::string hfuse::profile::encodeSimResult(const gpusim::SimResult &R) {
  ByteWriter W;
  uint8_t Flags = (R.Ok ? 1 : 0) | (R.BudgetExceeded ? 2 : 0) |
                  (R.Deadlock ? 4 : 0) | (R.TimedOut ? 8 : 0) |
                  (R.FaultInjected ? 16 : 0);
  W.u8(Flags);
  W.str(R.Error);
  W.u64(R.TotalCycles);
  W.f64(R.TotalMs);
  W.u32(static_cast<uint32_t>(R.Kernels.size()));
  for (const gpusim::KernelMetrics &K : R.Kernels) {
    W.str(K.Label);
    W.u64(K.ElapsedCycles);
    W.f64(K.TimeMs);
    W.u64(K.IssuedInsts);
    W.f64(K.IssueSlotUtilPct);
    W.f64(K.MemStallPct);
    W.f64(K.AchievedOccupancyPct);
    W.u32(K.RegsPerThread);
    W.u32(K.SharedBytesPerBlock);
    W.u32(static_cast<uint32_t>(K.TheoreticalBlocksPerSM));
    W.u64(K.GlobalSectors);
    W.f64(K.L2HitRatePct);
  }
  W.f64(R.DeviceIssueSlotUtilPct);
  W.f64(R.DeviceMemStallPct);
  W.f64(R.DeviceOccupancyPct);
  W.u64(R.TotalIssued);
  for (double S : R.StallSharePct)
    W.f64(S);
  return W.take();
}

std::optional<gpusim::SimResult>
hfuse::profile::decodeSimResult(std::string_view Bytes) {
  ByteReader Rd(Bytes);
  gpusim::SimResult R;
  uint8_t Flags = Rd.u8();
  R.Ok = Flags & 1;
  R.BudgetExceeded = Flags & 2;
  R.Deadlock = Flags & 4;
  R.TimedOut = Flags & 8;
  R.FaultInjected = Flags & 16;
  R.Error = Rd.str();
  R.TotalCycles = Rd.u64();
  R.TotalMs = Rd.f64();
  uint32_t NumKernels = Rd.u32();
  // Guard the reservation against a garbage count in a (checksum-
  // colliding) malformed record: each kernel entry is >= 69 bytes.
  if (!Rd.ok() || NumKernels > Rd.remaining() / 69 + 1)
    return std::nullopt;
  R.Kernels.resize(NumKernels);
  for (gpusim::KernelMetrics &K : R.Kernels) {
    K.Label = Rd.str();
    K.ElapsedCycles = Rd.u64();
    K.TimeMs = Rd.f64();
    K.IssuedInsts = Rd.u64();
    K.IssueSlotUtilPct = Rd.f64();
    K.MemStallPct = Rd.f64();
    K.AchievedOccupancyPct = Rd.f64();
    K.RegsPerThread = Rd.u32();
    K.SharedBytesPerBlock = Rd.u32();
    K.TheoreticalBlocksPerSM = static_cast<int>(Rd.u32());
    K.GlobalSectors = Rd.u64();
    K.L2HitRatePct = Rd.f64();
  }
  R.DeviceIssueSlotUtilPct = Rd.f64();
  R.DeviceMemStallPct = Rd.f64();
  R.DeviceOccupancyPct = Rd.f64();
  R.TotalIssued = Rd.u64();
  for (double &S : R.StallSharePct)
    S = Rd.f64();
  if (!Rd.atEnd())
    return std::nullopt;
  return R;
}

LoweredShape LoweredShape::of(const ir::IRKernel &IR) {
  LoweredShape S;
  S.Hash = IR.contentHash();
  S.ArchRegs = IR.ArchRegsPerThread;
  S.StaticShared = IR.StaticSharedBytes;
  S.Insts = IR.numInstructions();
  return S;
}

namespace {

void writeShape(ByteWriter &W, const LoweredShape &S) {
  W.u64(S.Hash);
  W.u32(S.ArchRegs);
  W.u32(S.StaticShared);
  W.u64(S.Insts);
}

LoweredShape readShape(ByteReader &Rd) {
  LoweredShape S;
  S.Hash = Rd.u64();
  S.ArchRegs = Rd.u32();
  S.StaticShared = Rd.u32();
  S.Insts = Rd.u64();
  return S;
}

} // namespace

std::string
hfuse::profile::encodePhase1Summary(const Phase1Summary &Summary) {
  ByteWriter W;
  W.u32(static_cast<uint32_t>(Summary.Inputs.size()));
  for (const LoweredShape &S : Summary.Inputs)
    writeShape(W, S);
  W.u32(static_cast<uint32_t>(Summary.Entries.size()));
  for (const Phase1Entry &E : Summary.Entries) {
    W.u8(E.Shape ? 1 : 0);
    if (!E.Shape)
      continue;
    W.u32(E.RegBound);
    writeShape(W, *E.Shape);
  }
  return W.take();
}

std::optional<Phase1Summary>
hfuse::profile::decodePhase1Summary(std::string_view Bytes) {
  ByteReader Rd(Bytes);
  Phase1Summary Summary;
  // Guard both reservations against garbage counts: an input shape is
  // 24 bytes, an entry at least its 1-byte tag.
  uint32_t NInputs = Rd.u32();
  if (!Rd.ok() || NInputs > Rd.remaining() / 24)
    return std::nullopt;
  Summary.Inputs.resize(NInputs);
  for (LoweredShape &S : Summary.Inputs)
    S = readShape(Rd);
  uint32_t N = Rd.u32();
  if (!Rd.ok() || N > Rd.remaining())
    return std::nullopt;
  Summary.Entries.resize(N);
  for (Phase1Entry &E : Summary.Entries) {
    uint8_t Tag = Rd.u8();
    if (Tag > 1)
      return std::nullopt;
    if (!Tag)
      continue;
    E.RegBound = Rd.u32();
    E.Shape = readShape(Rd);
  }
  if (!Rd.atEnd())
    return std::nullopt;
  return Summary;
}

std::unique_ptr<CompiledKernel>
hfuse::profile::compileSource(std::string_view Source,
                              const std::string &Name, unsigned RegBound,
                              DiagnosticEngine &Diags) {
  auto R = compileSourceOr(Source, Name, RegBound, Diags);
  return R ? R.take() : nullptr;
}

Expected<std::unique_ptr<CompiledKernel>>
hfuse::profile::compileSourceOr(std::string_view Source,
                                const std::string &Name, unsigned RegBound,
                                DiagnosticEngine &Diags) {
  if (Status S = FaultInjector::instance().check(FaultSite::Compile, Name);
      !S.ok()) {
    Diags.error(SourceLocation(), S.str());
    return S;
  }
  auto Result = std::make_unique<CompiledKernel>();
  auto Pre = transform::parseAndPreprocessOr(Source, Name, Diags);
  if (!Pre)
    return Pre.status();
  Result->Pre = Pre.take();
  Result->IR = codegen::compileKernel(Result->Pre->Kernel, Diags);
  if (!Result->IR)
    return Status(ErrorCode::CodegenError, Diags.str());
  ir::RegAllocResult RA = ir::allocateRegisters(*Result->IR, RegBound);
  if (!RA.Ok) {
    Diags.error(SourceLocation(), RA.Error);
    return Status(ErrorCode::RegAllocError, RA.Error);
  }
  return Result;
}

std::unique_ptr<CompiledKernel>
hfuse::profile::compileBenchKernel(kernels::BenchKernelId Id,
                                   unsigned RegBound,
                                   DiagnosticEngine &Diags) {
  return compileSource(kernels::kernelSource(Id),
                       kernels::kernelFunctionName(Id), RegBound, Diags);
}

std::unique_ptr<ir::IRKernel>
hfuse::profile::lowerFunction(cuda::ASTContext &Ctx, cuda::FunctionDecl *Fn,
                              unsigned RegBound, DiagnosticEngine &Diags) {
  auto IR = lowerFunctionNoRegAlloc(Ctx, Fn, Diags);
  if (!IR)
    return nullptr;
  ir::RegAllocResult RA = ir::allocateRegisters(*IR, RegBound);
  if (!RA.Ok) {
    Diags.error(SourceLocation(), RA.Error);
    return nullptr;
  }
  return IR;
}

std::unique_ptr<ir::IRKernel>
hfuse::profile::lowerFunctionNoRegAlloc(cuda::ASTContext &Ctx,
                                        cuda::FunctionDecl *Fn,
                                        DiagnosticEngine &Diags) {
  // The function may have been analyzed before (e.g. when lowering the
  // same fusion twice with different register bounds).
  transform::stripImplicitCasts(Fn->body());
  cuda::Sema S(Ctx, Diags);
  if (!S.runOnFunction(Fn))
    return nullptr;
  return codegen::compileKernel(Fn, Diags);
}

std::shared_ptr<const CompiledKernel>
CompileCache::getKernel(std::string_view Source, const std::string &Name,
                        unsigned RegBound, DiagnosticEngine &Diags,
                        Status *Err, const CancellationToken &Cancel) {
  // A request that is already cancelled never touches the map: no
  // entry is created, no counter moves.
  if (Cancel.cancelled()) {
    if (Err)
      *Err = Cancel.status();
    return nullptr;
  }

  Key K{std::hash<std::string_view>{}(Source), Source.size(), Name,
        RegBound};
  std::lock_guard<std::mutex> Lock(Mu);
  if (auto It = Map.find(K); It != Map.end()) {
    ++S.KernelHits;
    mirrorCount(&Stats::KernelHits, 1);
    if (Err)
      *Err = Status::success();
    return It->second;
  }

  telemetry::TraceSpan CompileSpan;
  if (telemetry::traceOn())
    CompileSpan.beginSpan("compile", "kernel:" + Name,
                          "{\"reg_bound\":" + std::to_string(RegBound) +
                              "}");
  // Bounded retry for transient failures (injected faults, flaky I/O
  // behind a compile). Each extra attempt is a real compilation, so it
  // counts as one: the compile-count pins stay exact. Permanent
  // failures never retry — recompiling a parse error yields the same
  // parse error.
  std::shared_ptr<const CompiledKernel> Kernel;
  uint64_t Retries = 0;
  Status CompileErr = retryTransient(
      Retry_,
      [&]() -> Status {
        DiagnosticEngine Local;
        auto R = compileSourceOr(Source, Name, RegBound, Local);
        if (!R)
          return R.status();
        Kernel = R.take();
        return Status::success();
      },
      &Retries);
  S.KernelCompiles += 1 + Retries;
  S.CompileRetries += Retries;
  mirrorCount(&Stats::KernelCompiles, 1 + Retries);
  if (Retries)
    mirrorCount(&Stats::CompileRetries, Retries);

  if (Err)
    *Err = CompileErr;
  if (!Kernel) {
    Diags.error(SourceLocation(),
                "cached compilation failed:\n" + CompileErr.message());
    return nullptr;
  }
  Map.emplace(std::move(K), Kernel);
  return Kernel;
}

std::shared_ptr<const CompiledKernel>
CompileCache::getBenchKernel(kernels::BenchKernelId Id, unsigned RegBound,
                             DiagnosticEngine &Diags, Status *Err,
                             const CancellationToken &Cancel) {
  return getKernel(kernels::kernelSource(Id), kernels::kernelFunctionName(Id),
                   RegBound, Diags, Err, Cancel);
}

CompileCache::Stats CompileCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return S;
}

void CompileCache::count(uint64_t Stats::*Counter, uint64_t N) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    S.*Counter += N;
  }
  mirrorCount(Counter, N);
}

void CompileCache::attachStore(std::shared_ptr<ResultStore> Store) {
  std::lock_guard<std::mutex> Lock(Mu);
  Store_ = std::move(Store);
}

std::shared_ptr<ResultStore> CompileCache::store() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Store_;
}

bool CompileCache::hasStore() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Store_ != nullptr;
}

void CompileCache::setRetryPolicy(RetryPolicy Policy) {
  std::lock_guard<std::mutex> Lock(Mu);
  Retry_ = std::move(Policy);
}

bool hfuse::profile::isStorableSimResult(const gpusim::SimResult &R) {
  if (R.Ok)
    return true;
  return R.BudgetExceeded && !R.FaultInjected && !R.Cancelled &&
         !R.TimedOut && !R.Deadlock;
}

std::optional<gpusim::SimResult>
CompileCache::loadSimResult(const std::string &Key) {
  std::shared_ptr<ResultStore> St = store();
  if (!St)
    return std::nullopt;
  std::optional<std::string> Bytes = St->get(Key);
  if (!Bytes)
    return std::nullopt;
  std::optional<gpusim::SimResult> R = decodeSimResult(*Bytes);
  // The store's checksum already vouched for the bytes; a payload the
  // codec cannot parse (or that no writer would have stored) means a
  // schema drift the version stamp missed. Served answers must never
  // be wrong, so treat it as a miss and let the fresh simulation
  // overwrite the record.
  if (!R || !isStorableSimResult(*R))
    return std::nullopt;
  return R;
}

void CompileCache::storeSimResult(const std::string &Key,
                                  const gpusim::SimResult &R) {
  // A failure must never be servable from cache, in this process or a
  // later one. A clean abort is a verdict about the launch under its
  // budget, as in the memo.
  if (!isStorableSimResult(R))
    return;
  std::shared_ptr<ResultStore> St = store();
  if (!St)
    return;
  if (St->put(Key, encodeSimResult(R)).ok())
    count(&Stats::DiskWrites);
}

std::optional<Phase1Summary>
CompileCache::loadPhase1Summary(const std::string &Key) {
  std::shared_ptr<ResultStore> St = store();
  if (!St)
    return std::nullopt;
  std::optional<std::string> Bytes = St->get(Key);
  if (!Bytes)
    return std::nullopt;
  return decodePhase1Summary(*Bytes);
}

void CompileCache::storePhase1Summary(const std::string &Key,
                                      const Phase1Summary &Summary) {
  std::shared_ptr<ResultStore> St = store();
  if (St && St->put(Key, encodePhase1Summary(Summary)).ok())
    count(&Stats::SummaryWrites);
}

CompileCache &hfuse::profile::globalCompileCache() {
  static CompileCache Cache;
  return Cache;
}
