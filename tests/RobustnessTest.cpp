//===-- tests/RobustnessTest.cpp - Fault-containment tests ----------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault-containment contract of the search pipeline, driven by the
/// deterministic FaultInjector:
///
///  - malformed sources travel Lexer -> Parser -> Sema -> preprocessing
///    as structured errors (every prefix of a valid kernel), never as a
///    crash;
///  - the CompileCache never memoizes a failure: a failed compile is
///    never inserted, so the next request recompiles (pinned compile
///    counts), also when threads race for one key;
///  - a wedged (fault-injected) simulation fails its candidate, is
///    eagerly retired from the simulation memo, and a retry reproduces
///    the healthy bit-identical result;
///  - a Figure 6 sweep with an injected compile failure, a failing
///    lowering, and a wedged simulation still returns the bit-identical
///    Best of a fault-free sweep on all 16 paper pairs, across
///    SearchJobs 1 and 4, with every casualty recorded in
///    SearchResult::Failed in canonical order.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "profile/Compile.h"
#include "profile/PairRunner.h"
#include "support/FaultInjector.h"
#include "support/StringUtils.h"
#include "transform/Pipeline.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace hfuse;
using namespace hfuse::bench;
using namespace hfuse::gpusim;
using namespace hfuse::kernels;
using namespace hfuse::profile;

namespace {

/// Every test leaves the process-wide injector disarmed.
struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::instance().reset(); }
};

void arm(const std::string &Spec) {
  std::string Err;
  ASSERT_TRUE(FaultInjector::instance().configure(Spec, &Err)) << Err;
}

PairRunner::Options quickOptions() {
  PairRunner::Options Opts;
  Opts.Arch = makeGTX1080Ti();
  Opts.SimSMs = 2;
  Opts.Scales = {0.2};
  Opts.Verify = false;
  Opts.Cache = std::make_shared<CompileCache>();
  return Opts;
}

const char *ValidKernel = R"(
// A kernel exercising the lexer/parser surface: comments, asm barriers,
// shared arrays, loops, float and unsigned literals, calls.
__global__ void probe(float *out, const float *in, int n) {
  __shared__ float tile[256];
  unsigned int tid = threadIdx.x;
  float acc = 0.0f;
  for (int i = blockIdx.x * blockDim.x + (int)tid; i < n;
       i += gridDim.x * blockDim.x) {
    tile[tid] = in[i] * 2.0f; /* inline comment */
    asm("bar.sync 0, 256;");
    acc += tile[255u - tid];
    asm("bar.sync 0, 256;");
  }
  out[blockIdx.x * blockDim.x + tid] = acc;
}
)";

} // namespace

//===----------------------------------------------------------------------===//
// Malformed input through the front end
//===----------------------------------------------------------------------===//

TEST(Robustness, EveryPrefixOfAValidKernelFailsCleanly) {
  std::string Source(ValidKernel);

  // The full source compiles; every proper prefix either also parses
  // (e.g. truncation inside a trailing comment) or is rejected with a
  // structured ParseError/SemaError and a diagnostic — never a crash,
  // assert, or empty-handed failure.
  {
    DiagnosticEngine Diags;
    auto Full = transform::parseAndPreprocessOr(Source, "", Diags);
    ASSERT_TRUE(bool(Full)) << Diags.str();
  }
  for (size_t Len = 0; Len < Source.size(); ++Len) {
    DiagnosticEngine Diags;
    auto R = transform::parseAndPreprocessOr(Source.substr(0, Len), "",
                                             Diags);
    if (R)
      continue;
    const Status &S = R.status();
    EXPECT_TRUE(S.code() == ErrorCode::ParseError ||
                S.code() == ErrorCode::SemaError)
        << "prefix " << Len << ": " << S.str();
    EXPECT_FALSE(S.message().empty()) << "prefix " << Len;
  }
}

TEST(Robustness, CompileSourceOrClassifiesPhases) {
  DiagnosticEngine Diags;
  auto P = compileSourceOr("__global__ void k(int *a) { a[0] = ; }", "", 0,
                           Diags);
  ASSERT_FALSE(bool(P));
  EXPECT_EQ(P.status().code(), ErrorCode::ParseError);

  DiagnosticEngine Diags2;
  auto S = compileSourceOr("__global__ void k(int *a) { b[0] = 1; }", "", 0,
                           Diags2);
  ASSERT_FALSE(bool(S));
  EXPECT_EQ(S.status().code(), ErrorCode::SemaError);
  EXPECT_NE(S.status().message().find("b"), std::string::npos);

  DiagnosticEngine Diags3;
  auto Missing = compileSourceOr(
      "__device__ int helper(int x) { return x + 1; }", "", 0, Diags3);
  ASSERT_FALSE(bool(Missing));
  EXPECT_EQ(Missing.status().code(), ErrorCode::SemaError);
}

//===----------------------------------------------------------------------===//
// CompileCache failure semantics
//===----------------------------------------------------------------------===//

TEST(Robustness, FailedCompileIsNotMemoizedAndRetrySucceeds) {
  InjectorGuard G;
  CompileCache Cache;

  arm("compile:nth=1");
  DiagnosticEngine D1;
  Status Err;
  auto K = Cache.getKernel(ValidKernel, "", 0, D1, &Err);
  EXPECT_EQ(K, nullptr);
  EXPECT_EQ(Err.code(), ErrorCode::CodegenError);
  EXPECT_TRUE(Err.transient());
  EXPECT_NE(D1.str().find("injected fault"), std::string::npos) << D1.str();
  CompileCache::Stats S = Cache.stats();
  EXPECT_EQ(S.KernelCompiles, 1u); // the failed attempt ran a compile
  EXPECT_EQ(S.KernelHits, 0u);

  // The negative result was retired, not cached: the retry compiles
  // again (count goes to 2) and succeeds.
  DiagnosticEngine D2;
  K = Cache.getKernel(ValidKernel, "", 0, D2, &Err);
  ASSERT_NE(K, nullptr) << D2.str();
  EXPECT_TRUE(Err.ok());
  S = Cache.stats();
  EXPECT_EQ(S.KernelCompiles, 2u);
  EXPECT_EQ(S.KernelHits, 0u);

  // And the success IS memoized: a third request hits.
  DiagnosticEngine D3;
  auto K2 = Cache.getKernel(ValidKernel, "", 0, D3, &Err);
  EXPECT_EQ(K2, K);
  S = Cache.stats();
  EXPECT_EQ(S.KernelCompiles, 2u);
  EXPECT_EQ(S.KernelHits, 1u);
}

TEST(Robustness, TransientCompileFailureIsRetriedInsideOneRequest) {
  InjectorGuard G;
  CompileCache Cache;
  std::vector<uint64_t> Delays;
  RetryPolicy P;
  P.MaxAttempts = 3;
  P.BackoffBaseMs = 5;
  P.Sleep = [&](uint64_t Ms) { Delays.push_back(Ms); };
  Cache.setRetryPolicy(P);

  // The first attempt fails transiently; the request-level retry turns
  // the failure into a success without the caller seeing anything.
  arm("compile:nth=1");
  DiagnosticEngine D;
  Status Err;
  auto K = Cache.getKernel(ValidKernel, "", 0, D, &Err);
  ASSERT_NE(K, nullptr) << D.str();
  EXPECT_TRUE(Err.ok());
  CompileCache::Stats S = Cache.stats();
  EXPECT_EQ(S.KernelCompiles, 2u);
  EXPECT_EQ(S.CompileRetries, 1u);
  ASSERT_EQ(Delays.size(), 1u);
  EXPECT_EQ(Delays[0], 5u); // deterministic backoff schedule

  // The healed result is memoized like any other success.
  DiagnosticEngine D2;
  EXPECT_EQ(Cache.getKernel(ValidKernel, "", 0, D2, &Err), K);
  EXPECT_EQ(Cache.stats().KernelHits, 1u);
}

TEST(Robustness, CompileRetriesAreBoundedAndSurfaceTheLastError) {
  InjectorGuard G;
  CompileCache Cache;
  std::vector<uint64_t> Delays;
  RetryPolicy P;
  P.MaxAttempts = 3;
  P.BackoffBaseMs = 5;
  P.Sleep = [&](uint64_t Ms) { Delays.push_back(Ms); };
  Cache.setRetryPolicy(P);

  // Every attempt fails: the request gives up after exactly
  // MaxAttempts compiles and reports the structured transient error.
  arm("compile");
  DiagnosticEngine D;
  Status Err;
  EXPECT_EQ(Cache.getKernel(ValidKernel, "", 0, D, &Err), nullptr);
  EXPECT_EQ(Err.code(), ErrorCode::CodegenError);
  EXPECT_TRUE(Err.transient());
  CompileCache::Stats S = Cache.stats();
  EXPECT_EQ(S.KernelCompiles, 3u);
  EXPECT_EQ(S.CompileRetries, 2u);
  ASSERT_EQ(Delays.size(), 2u);
  EXPECT_EQ(Delays[0], 5u);
  EXPECT_EQ(Delays[1], 10u);

  // The exhausted failure was retired, not cached: once the fault
  // clears, the next request compiles fresh and succeeds.
  FaultInjector::instance().reset();
  DiagnosticEngine D2;
  EXPECT_NE(Cache.getKernel(ValidKernel, "", 0, D2, &Err), nullptr)
      << D2.str();
}

TEST(Robustness, PermanentCompileFailuresAreNeverRetried) {
  CompileCache Cache;
  int Slept = 0;
  RetryPolicy P;
  P.MaxAttempts = 5;
  P.BackoffBaseMs = 5;
  P.Sleep = [&](uint64_t) { ++Slept; };
  Cache.setRetryPolicy(P);

  // A sema error is deterministic: retrying it would just burn five
  // compiles reaching the same diagnostic.
  DiagnosticEngine D;
  Status Err;
  EXPECT_EQ(Cache.getKernel("__global__ void k(int *a) { b[0] = 1; }", "",
                            0, D, &Err),
            nullptr);
  EXPECT_EQ(Err.code(), ErrorCode::SemaError);
  EXPECT_FALSE(Err.transient());
  CompileCache::Stats S = Cache.stats();
  EXPECT_EQ(S.KernelCompiles, 1u);
  EXPECT_EQ(S.CompileRetries, 0u);
  EXPECT_EQ(Slept, 0);
}

TEST(Robustness, ConcurrentCompilesOfOneKeyNeverCacheAFailure) {
  InjectorGuard G;
  CompileCache Cache;
  arm("compile:nth=1");

  // N threads race for the same key while the first compile is rigged
  // to fail. The cache compiles under its mutex, so exactly one caller
  // runs the failing compile and gets the structured injected error;
  // the failure is not inserted, the next caller compiles cleanly, and
  // everyone after it hits.
  const int N = 8;
  std::vector<std::thread> Threads;
  std::vector<Status> Errs(N);
  std::vector<int> Got(N, 0);
  for (int I = 0; I < N; ++I)
    Threads.emplace_back([&, I] {
      DiagnosticEngine D;
      Got[I] =
          Cache.getKernel(ValidKernel, "", 0, D, &Errs[I]) != nullptr;
    });
  for (auto &T : Threads)
    T.join();

  int Failures = 0;
  for (int I = 0; I < N; ++I) {
    if (Got[I]) {
      EXPECT_TRUE(Errs[I].ok());
      continue;
    }
    ++Failures;
    EXPECT_EQ(Errs[I].code(), ErrorCode::CodegenError);
    EXPECT_TRUE(Errs[I].transient());
  }
  EXPECT_EQ(Failures, 1);
  EXPECT_EQ(FaultInjector::instance().firedCount(), 1u);
  CompileCache::Stats S = Cache.stats();
  EXPECT_EQ(S.KernelCompiles, 2u);
  EXPECT_EQ(S.KernelHits, uint64_t(N - 2));

  DiagnosticEngine D;
  Status Err;
  EXPECT_NE(Cache.getKernel(ValidKernel, "", 0, D, &Err), nullptr)
      << D.str();
  EXPECT_EQ(Cache.stats().KernelCompiles, 2u);
}

//===----------------------------------------------------------------------===//
// Wedged simulations and the simulation memo
//===----------------------------------------------------------------------===//

TEST(Robustness, WedgedSimulationIsRetiredFromTheMemoAndRetryMatches) {
  InjectorGuard G;

  // Reference cycles from a fault-free runner.
  PairRunner::Options Ref = quickOptions();
  PairRunner RRef(BenchKernelId::Batchnorm, BenchKernelId::Hist, Ref);
  ASSERT_TRUE(RRef.ok()) << RRef.error();
  SimResult Healthy = RRef.runHFused({512, 512}, 0);
  ASSERT_TRUE(Healthy.Ok) << Healthy.Error;

  PairRunner::Options Opts = quickOptions();
  PairRunner R(BenchKernelId::Batchnorm, BenchKernelId::Hist, Opts);
  ASSERT_TRUE(R.ok()) << R.error();

  // First run is wedged: the fused kernel's first barrier never
  // releases, the instant detector classifies the deadlock, and the
  // memo entry is retired before the failure is published.
  arm("sim-wedge:nth=1:label=,512/512)");
  SimResult W = R.runHFused({512, 512}, 0);
  EXPECT_FALSE(W.Ok);
  EXPECT_TRUE(W.Deadlock) << W.Error;
  EXPECT_TRUE(W.FaultInjected);
  CompileCache::Stats S = Opts.Cache->stats();
  EXPECT_EQ(S.SimRuns, 1u);
  EXPECT_EQ(S.SimMemoHits, 0u);

  // Retry re-simulates (no poisoned entry) and is bit-identical to the
  // fault-free runner.
  SimResult Retry = R.runHFused({512, 512}, 0);
  ASSERT_TRUE(Retry.Ok) << Retry.Error;
  EXPECT_FALSE(Retry.FaultInjected);
  EXPECT_EQ(Retry.TotalCycles, Healthy.TotalCycles);
  EXPECT_EQ(Retry.TotalIssued, Healthy.TotalIssued);
  S = Opts.Cache->stats();
  EXPECT_EQ(S.SimRuns, 2u);
  EXPECT_EQ(S.SimMemoHits, 0u);

  // The healthy result is memoized as usual.
  SimResult Again = R.runHFused({512, 512}, 0);
  ASSERT_TRUE(Again.Ok);
  EXPECT_EQ(Again.TotalCycles, Healthy.TotalCycles);
  S = Opts.Cache->stats();
  EXPECT_EQ(S.SimRuns, 2u);
  EXPECT_EQ(S.SimMemoHits, 1u);
}

//===----------------------------------------------------------------------===//
// The fault-injected Figure 6 sweep: bit-identical Best on all pairs
//===----------------------------------------------------------------------===//

namespace {

std::string caseName(const testing::TestParamInfo<BenchPair> &Info) {
  return std::string(kernelDisplayName(Info.param.A)) + "_" +
         kernelDisplayName(Info.param.B);
}

using CandKey = std::pair<std::vector<int>, unsigned>;

std::set<CandKey> failedKeys(const SearchResult &SR) {
  std::set<CandKey> Keys;
  for (const FailedCandidate &F : SR.Failed)
    Keys.insert({F.Dims, F.RegBound});
  return Keys;
}

class FaultInjectedSearch : public testing::TestWithParam<BenchPair> {};

} // namespace

TEST_P(FaultInjectedSearch, BestIsBitIdenticalWithInjectedFaults) {
  InjectorGuard G;
  const BenchPair &P = GetParam();

  // Fault-free reference sweep (budgeted, the production default path).
  PairRunner::Options Opts = quickOptions();
  Opts.Budget = SearchBudgetMode::Incumbent;
  PairRunner RRef(P.A, P.B, Opts);
  ASSERT_TRUE(RRef.ok()) << RRef.error();
  SearchResult Ref = RRef.searchBestConfig();
  ASSERT_TRUE(Ref.Ok) << Ref.Err;
  ASSERT_TRUE(Ref.Failed.empty());

  // Pick victims among the non-winning candidates: a bounded variant
  // whose lowering we fail outright (skipping bound values that alias
  // the unbounded IR, where no lowering runs and no fault can fire),
  // and a second candidate whose simulation we wedge.
  auto IsBest = [&](const FusionCandidate &C) {
    return C.Id == Ref.Best.Id;
  };
  const FusionCandidate *LowerVictim = nullptr;
  for (const FusionCandidate &C : Ref.All) {
    if (IsBest(C) || C.RegBound == 0)
      continue;
    bool MaybeAliased = false;
    for (const FusionCandidate &U : Ref.All)
      if (U.Dims == C.Dims && U.RegBound == 0 && U.Cycles == C.Cycles)
        MaybeAliased = true;
    if (!MaybeAliased) {
      LowerVictim = &C;
      break;
    }
  }
  const FusionCandidate *WedgeVictim = nullptr;
  for (const FusionCandidate &C : Ref.All) {
    if (IsBest(C) || &C == LowerVictim)
      continue;
    if (LowerVictim && C.Dims == LowerVictim->Dims &&
        C.RegBound == LowerVictim->RegBound)
      continue;
    WedgeVictim = &C;
    break;
  }

  std::string Spec = "compile:nth=1";
  if (LowerVictim)
    Spec += formatString(";lower:label=%s:r%u",
                         dimsLabel(LowerVictim->Dims).c_str(),
                         LowerVictim->RegBound);
  if (WedgeVictim)
    Spec += formatString(";sim-wedge:label=,%s%s)",
                         dimsLabel(WedgeVictim->Dims).c_str(),
                         WedgeVictim->RegBound
                             ? formatString(",r%u", WedgeVictim->RegBound)
                                   .c_str()
                             : "");

  std::set<CandKey> FailedAtJobs1;
  for (int Jobs : {1, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    arm(Spec);

    // A fresh cache compiles the input kernels again, so the first
    // construction trips the injected compile failure: construction
    // fails with the structured error instead of crashing.
    PairRunner::Options FOpts = Opts;
    FOpts.SearchJobs = Jobs;
    FOpts.Cache = std::make_shared<CompileCache>();
    PairRunner Broken(P.A, P.B, FOpts);
    ASSERT_FALSE(Broken.ok());
    EXPECT_NE(Broken.error().find("injected fault"), std::string::npos)
        << Broken.error();

    // The one-shot rule is spent and the failure was never cached: the
    // retry constructs cleanly on a fresh cache and sweeps with the
    // lowering fault and the wedge still armed.
    FOpts.Cache = std::make_shared<CompileCache>();
    PairRunner R(P.A, P.B, FOpts);
    ASSERT_TRUE(R.ok()) << R.error();
    SearchResult SR = R.searchBestConfig();
    ASSERT_TRUE(SR.Ok) << SR.Err;

    // The headline: Best is bit-identical to the fault-free sweep.
    EXPECT_EQ(SR.Best.Dims, Ref.Best.Dims);
    EXPECT_EQ(SR.Best.RegBound, Ref.Best.RegBound);
    EXPECT_EQ(SR.Best.Cycles, Ref.Best.Cycles);

    // Accounting closes with the new Failed column.
    EXPECT_EQ(SR.Stats.Candidates, SR.All.size() + SR.Pruned.size() +
                                       SR.Abandoned.size() +
                                       SR.Failed.size());
    EXPECT_EQ(SR.Stats.Failed, SR.Failed.size());

    // The lowering victim was retired into Failed, not silently
    // dropped, and reports the injected fault.
    std::set<CandKey> Failed = failedKeys(SR);
    if (LowerVictim) {
      CandKey VK{LowerVictim->Dims, LowerVictim->RegBound};
      EXPECT_EQ(Failed.count(VK), 1u) << "lowering victim not in Failed";
      for (const FailedCandidate &F : SR.Failed)
        if (CandKey{F.Dims, F.RegBound} == VK) {
          EXPECT_EQ(F.Err.code(), ErrorCode::RegAllocError);
          EXPECT_NE(F.Err.message().find("injected"), std::string::npos);
        }
    }
    // Every surviving candidate measured the reference cycles exactly.
    for (const FusionCandidate &C : SR.All) {
      for (const FusionCandidate &RC : Ref.All)
        if (RC.Dims == C.Dims && RC.RegBound == C.RegBound)
          EXPECT_EQ(C.Cycles, RC.Cycles);
    }

    // Failure placement is deterministic across worker counts.
    if (Jobs == 1)
      FailedAtJobs1 = Failed;
    else
      EXPECT_EQ(Failed, FailedAtJobs1);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPaperPairs, FaultInjectedSearch,
                         testing::ValuesIn(paperPairs()), caseName);

//===----------------------------------------------------------------------===//
// Watchdog plumbed through the search options
//===----------------------------------------------------------------------===//

TEST(Robustness, RunnerWatchdogOptionsAreWiredThrough) {
  InjectorGuard G;
  // With the wedge armed for every simulation of this partition and the
  // watchdog plumbed through PairRunner::Options, the candidate fails
  // as SimDeadlock (instant or watchdog — both deterministic) while a
  // fault-free candidate of the same runner still simulates normally.
  PairRunner::Options Opts = quickOptions();
  Opts.WatchdogCycles = 50000;
  PairRunner R(BenchKernelId::Batchnorm, BenchKernelId::Hist, Opts);
  ASSERT_TRUE(R.ok()) << R.error();

  arm("sim-wedge:label=,640/384)");
  SimResult W = R.runHFused({640, 384}, 0);
  EXPECT_FALSE(W.Ok);
  EXPECT_TRUE(W.Deadlock) << W.Error;
  EXPECT_TRUE(W.FaultInjected);

  SimResult Healthy = R.runHFused({512, 512}, 0);
  EXPECT_TRUE(Healthy.Ok) << Healthy.Error;
}
