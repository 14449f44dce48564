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
#include "support/Log.h"
#include "support/Telemetry.h"

#include <chrono>
#include <cstdio>

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
  // entry is created, no counter moves, nothing to poison.
  if (Cancel.cancelled()) {
    if (Err)
      *Err = Cancel.status();
    return nullptr;
  }

  Key K{std::hash<std::string_view>{}(Source), Source.size(), Name,
        RegBound};

  // The retry loop serves one case: a cached entry flagged as corrupt
  // by its integrity check. The reader retires it (identity-checked)
  // and re-enters as a fresh compiler — corruption is transient by
  // definition, so recovery is recompilation, not propagation.
  for (;;) {
    std::shared_ptr<std::shared_future<Compiled>> Fut;
    std::promise<Compiled> Promise;
    bool IsCompiler = false;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      auto It = Map.find(K);
      if (It != Map.end()) {
        ++S.KernelHits;
        mirrorCount(&Stats::KernelHits, 1);
        Fut = It->second;
      } else {
        IsCompiler = true;
        ++S.KernelCompiles;
        mirrorCount(&Stats::KernelCompiles, 1);
        Fut = std::make_shared<std::shared_future<Compiled>>(
            Promise.get_future().share());
        Map.emplace(K, Fut);
      }
    }

    if (IsCompiler) {
      Compiled C;
      RetryPolicy Policy;
      {
        std::lock_guard<std::mutex> Lock(Mu);
        Policy = Retry_;
      }
      telemetry::TraceSpan CompileSpan;
      if (telemetry::traceOn())
        CompileSpan.beginSpan("compile", "kernel:" + Name,
                              "{\"reg_bound\":" + std::to_string(RegBound) +
                                  "}");
      // Bounded retry for transient failures (injected faults, flaky
      // I/O behind a compile). Each extra attempt is a real
      // compilation, so it counts as one: the compile-count pins stay
      // exact. Permanent failures never retry — recompiling a parse
      // error yields the same parse error.
      uint64_t Retries = 0;
      C.Err = retryTransient(
          Policy,
          [&]() -> Status {
            DiagnosticEngine Local;
            auto R = compileSourceOr(Source, Name, RegBound, Local);
            if (!R)
              return R.status();
            C.Kernel = R.take();
            return Status::success();
          },
          &Retries);
      if (Retries) {
        {
          std::lock_guard<std::mutex> Lock(Mu);
          S.KernelCompiles += Retries;
          S.CompileRetries += Retries;
        }
        mirrorCount(&Stats::KernelCompiles, Retries);
        mirrorCount(&Stats::CompileRetries, Retries);
      }
      if (!C.Kernel) {
        // Retire the negative entry *before* publishing the result:
        // every waiter already blocked on this future receives the
        // error, while any later request finds no entry and compiles
        // afresh. The identity check keeps a concurrent sequence of
        // fail/retry from erasing a successor's entry.
        std::lock_guard<std::mutex> Lock(Mu);
        auto It = Map.find(K);
        if (It != Map.end() && It->second == Fut)
          Map.erase(It);
      } else if (hasStore()) {
        publishCompileDigest(Name, RegBound,
                             static_cast<uint64_t>(K.SourceHash), *C.Kernel);
      }
      Promise.set_value(std::move(C));
    }

    // A cancellable waiter polls instead of blocking: when its token
    // fires it *detaches* — unblocks with a Cancelled status — while
    // the compiling thread runs to completion and publishes the entry
    // for the other requests sharing the key. The compiler itself
    // never detaches mid-compile (it owns the entry; a dangling
    // promise would wedge every waiter), which is fine: one compile is
    // cheap next to the sweep the cancellation is aborting.
    if (!IsCompiler && Cancel.valid()) {
      while (Fut->wait_for(std::chrono::milliseconds(1)) !=
             std::future_status::ready) {
        if (Cancel.cancelled()) {
          if (Err)
            *Err = Cancel.status();
          return nullptr;
        }
      }
    }

    const Compiled &C = Fut->get();
    if (!C.Kernel) {
      Diags.error(SourceLocation(),
                  "cached compilation failed:\n" + C.Err.message());
      if (Err)
        *Err = C.Err;
      return nullptr;
    }
    // Entry integrity check (the detection signal is injection-driven;
    // a real corruption check would validate a content hash here).
    if (!IsCompiler) {
      FaultInjector &FI = FaultInjector::instance();
      if (FI.armed() &&
          !FI.check(FaultSite::CacheCorrupt, Name).ok()) {
        std::lock_guard<std::mutex> Lock(Mu);
        auto It = Map.find(K);
        if (It != Map.end() && It->second == Fut)
          Map.erase(It);
        continue;
      }
    }
    if (Err)
      *Err = Status::success();
    return C.Kernel;
  }
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

void CompileCache::resetStats() {
  std::lock_guard<std::mutex> Lock(Mu);
  S = Stats();
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

RetryPolicy CompileCache::retryPolicy() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Retry_;
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

void CompileCache::publishCompileDigest(const std::string &Name,
                                        unsigned RegBound,
                                        uint64_t SourceHash,
                                        const CompiledKernel &CK) {
  std::shared_ptr<ResultStore> St = store();
  if (!St || !CK.IR)
    return;
  ByteWriter KeyW;
  KeyW.str("compile-digest");
  KeyW.str(Name);
  KeyW.u32(RegBound);
  KeyW.u64(SourceHash);
  std::string Key = KeyW.take();

  ByteWriter W;
  W.u64(CK.IR->contentHash());
  std::string Digest = W.take();

  // Cross-check before (re)publishing: a stored digest that disagrees
  // with a fresh compile of identical source means the toolchain's
  // determinism broke between runs — exactly the bug the warm==cold
  // invariant exists to catch. The fresh compile is the ground truth
  // (it is what this process will simulate), so warn and overwrite.
  if (std::optional<std::string> Prev = St->get(Key)) {
    if (*Prev == Digest)
      return;
    HFUSE_METRIC_ADD("compile.digest_mismatches", 1);
    logWarn("compile digest mismatch for kernel '%s' (r%u); determinism "
            "drift — record overwritten",
            Name.c_str(), RegBound);
  }
  (void)St->put(Key, Digest);
}

CompileCache &hfuse::profile::globalCompileCache() {
  static CompileCache Cache;
  return Cache;
}
