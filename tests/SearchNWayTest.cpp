//===-- tests/SearchNWayTest.cpp - N-way portfolio search -----------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The N-way (3+ kernel) configuration search: determinism across
/// worker counts, result preservation under pruning and the budget
/// modes, warm-store bit-identity, anytime (partial) ledger accounting
/// under cancellation, fault containment, and the generalized register
/// bound. The crypto triple Blake256+SHA256+Ethash is the acceptance
/// workload: its kernels pin their native 256-thread blocks, so the
/// enumeration is small enough for quick-scale runs while still
/// exercising every phase.
///
//===----------------------------------------------------------------------===//

#include "profile/NWayRunner.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <unistd.h>

using namespace hfuse;
using namespace hfuse::gpusim;
using namespace hfuse::kernels;
using namespace hfuse::profile;
namespace fs = std::filesystem;

namespace {

/// One compilation cache across all cases: the point of the portfolio
/// design is that each kernel compiles once no matter how many N-way
/// sweeps (or pair sweeps) touch it.
std::shared_ptr<CompileCache> testCache() {
  static std::shared_ptr<CompileCache> Cache =
      std::make_shared<CompileCache>();
  return Cache;
}

std::vector<BenchKernelId> cryptoTriple() {
  return {BenchKernelId::Blake256, BenchKernelId::SHA256,
          BenchKernelId::Ethash};
}

NWayRunner::Options quickOptions() {
  NWayRunner::Options Opts;
  Opts.Arch = makeGTX1080Ti();
  Opts.SimSMs = 2;
  // 0.25 is the hfusec --quick scale: big enough that the fused
  // triple's latency-hiding win over the stream baseline is real at 2
  // simulated SMs, small enough for test-suite wall time.
  Opts.Scales = {0.25};
  Opts.Verify = false;
  Opts.Cache = testCache();
  return Opts;
}

SearchResult runSweep(const std::vector<BenchKernelId> &Ids,
                          NWayRunner::Options Opts) {
  NWayRunner R(Ids, std::move(Opts));
  EXPECT_TRUE(R.ok()) << R.error();
  return R.searchBestConfig();
}

std::map<std::pair<std::vector<int>, unsigned>, uint64_t>
candidateMap(const SearchResult &SR) {
  std::map<std::pair<std::vector<int>, unsigned>, uint64_t> M;
  for (const FusionCandidate &C : SR.All)
    M[{C.Dims, C.RegBound}] = C.Cycles;
  return M;
}

std::vector<BenchKernelId> dlTriple() {
  return {BenchKernelId::Hist, BenchKernelId::Im2Col, BenchKernelId::Maxpool};
}

/// Every measured, abandoned (budget and issued instructions) and failed
/// verdict, by canonical id, plus the incumbent.
std::vector<std::string> ledger(const SearchResult &SR) {
  std::vector<std::string> L;
  for (const FusionCandidate &C : SR.All)
    L.push_back("all c" + std::to_string(C.Id) + " " +
                std::to_string(C.Cycles));
  for (const AbandonedCandidate &A : SR.Abandoned)
    L.push_back("abandoned c" + std::to_string(A.Id) + " " +
                std::to_string(A.BudgetCycles) + " " +
                std::to_string(A.IssuedInsts));
  for (const FailedCandidate &F : SR.Failed)
    L.push_back("failed c" + std::to_string(F.Id));
  L.push_back("incumbent " + std::to_string(SR.Stats.IncumbentCycles));
  return L;
}

/// The search's own accounting identity must close on every run,
/// partial or not.
void expectLedgerCloses(const SearchResult &SR) {
  EXPECT_EQ(SR.Stats.Candidates,
            SR.All.size() + SR.Pruned.size() + SR.Abandoned.size() +
                SR.Failed.size() + SR.Unvisited.size());
  EXPECT_EQ(SR.Stats.Pruned, SR.Pruned.size());
  EXPECT_EQ(SR.Stats.Abandoned, SR.Abandoned.size());
  EXPECT_EQ(SR.Stats.Failed, SR.Failed.size());
  EXPECT_EQ(SR.Stats.Unvisited, SR.Unvisited.size());
}

struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::instance().reset(); }
};

void arm(const std::string &Spec) {
  std::string Err;
  ASSERT_TRUE(FaultInjector::instance().configure(Spec, &Err)) << Err;
}

struct TempDir {
  fs::path Path;
  explicit TempDir(const std::string &Tag) {
    Path = fs::temp_directory_path() /
           ("hfuse-nway-" + Tag + "-" + std::to_string(::getpid()));
    fs::remove_all(Path);
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
};

} // namespace

//===----------------------------------------------------------------------===//
// Determinism across worker counts
//===----------------------------------------------------------------------===//

TEST(SearchNWay, ParallelSweepMatchesSerialSweep) {
  SearchResult Serial, Par;
  {
    NWayRunner::Options Opts = quickOptions();
    Opts.SearchJobs = 1;
    Serial = runSweep(cryptoTriple(), Opts);
  }
  {
    NWayRunner::Options Opts = quickOptions();
    Opts.SearchJobs = 4;
    Par = runSweep(cryptoTriple(), Opts);
  }
  ASSERT_TRUE(Serial.Ok) << Serial.Err;
  ASSERT_TRUE(Par.Ok) << Par.Err;

  // Bit-identical Best and full measured set.
  EXPECT_EQ(Serial.Best.Dims, Par.Best.Dims);
  EXPECT_EQ(Serial.Best.RegBound, Par.Best.RegBound);
  EXPECT_EQ(Serial.Best.Cycles, Par.Best.Cycles);
  EXPECT_EQ(candidateMap(Serial), candidateMap(Par));

  // The whole ledger is canonical, not just the winners.
  ASSERT_EQ(Serial.All.size(), Par.All.size());
  for (size_t I = 0; I < Serial.All.size(); ++I) {
    EXPECT_EQ(Serial.All[I].Id, Par.All[I].Id);
    EXPECT_EQ(Serial.All[I].Cycles, Par.All[I].Cycles);
  }
  ASSERT_EQ(Serial.Pruned.size(), Par.Pruned.size());
  for (size_t I = 0; I < Serial.Pruned.size(); ++I) {
    EXPECT_EQ(Serial.Pruned[I].Id, Par.Pruned[I].Id);
    EXPECT_EQ(Serial.Pruned[I].Reason, Par.Pruned[I].Reason);
  }
  expectLedgerCloses(Serial);
  expectLedgerCloses(Par);
}

TEST(SearchNWay, AbandonmentSetIdenticalAcrossJobs) {
  // A DL triple under the incumbent budget: followers overlap the seed
  // behind the incumbent fence at 4 jobs, and every measured, abandoned
  // (budget and issued instructions) and failed verdict must equal the
  // serial sweep's.
  auto Ledger = [](int Jobs) {
    NWayRunner::Options Opts = quickOptions();
    Opts.Budget = SearchBudgetMode::Incumbent;
    Opts.SearchJobs = Jobs;
    SearchResult SR = runSweep(dlTriple(), Opts);
    EXPECT_TRUE(SR.Ok) << SR.Err;
    return ledger(SR);
  };
  std::vector<std::string> Serial = Ledger(1);
  EXPECT_GT(Serial.size(), 2u);
  EXPECT_EQ(Serial, Ledger(4));
}

//===----------------------------------------------------------------------===//
// The acceptance criterion: the fused triple beats both baselines
//===----------------------------------------------------------------------===//

TEST(SearchNWay, CryptoTripleBeatsNativeAndSerialBaselines) {
  NWayRunner R(cryptoTriple(), quickOptions());
  ASSERT_TRUE(R.ok()) << R.error();
  SearchResult SR = R.searchBestConfig();
  ASSERT_TRUE(SR.Ok) << SR.Err;

  SimResult Native = R.runNative();
  ASSERT_TRUE(Native.Ok) << Native.Error;
  SimResult Serial = R.runSerial();
  ASSERT_TRUE(Serial.Ok) << Serial.Error;

  EXPECT_LT(SR.Best.Cycles, Native.TotalCycles);
  EXPECT_LT(SR.Best.Cycles, Serial.TotalCycles);

  // The fixed-shape triple has exactly one partition (256/256/256) and
  // two candidates: the unbounded trial and the register-bounded slot.
  EXPECT_EQ(SR.Best.Dims, (std::vector<int>{256, 256, 256}));
  EXPECT_EQ(SR.Stats.Candidates, 2u);
}

//===----------------------------------------------------------------------===//
// Pruning preserves the winner
//===----------------------------------------------------------------------===//

TEST(SearchNWay, PruningPreservesWinner) {
  NWayRunner::Options NoPrune = quickOptions();
  NoPrune.Prune = false;
  SearchResult Full = runSweep(cryptoTriple(), NoPrune);
  ASSERT_TRUE(Full.Ok) << Full.Err;

  SearchResult Pruned = runSweep(cryptoTriple(), quickOptions());
  ASSERT_TRUE(Pruned.Ok) << Pruned.Err;

  EXPECT_EQ(Full.Best.Dims, Pruned.Best.Dims);
  EXPECT_EQ(Full.Best.RegBound, Pruned.Best.RegBound);
  EXPECT_EQ(Full.Best.Cycles, Pruned.Best.Cycles);
  // Level 1 only skips candidates it can prove cannot win; every
  // pruned row names its dominator.
  for (const PrunedCandidate &P : Pruned.Pruned)
    EXPECT_FALSE(P.Reason.empty());
  expectLedgerCloses(Full);
  expectLedgerCloses(Pruned);
}

//===----------------------------------------------------------------------===//
// The incumbent budget preserves Best
//===----------------------------------------------------------------------===//

TEST(SearchNWay, BudgetModesAndMeasuredBoundPreserveBest) {
  // Both budget modes, off and incumbent, agree on Best at 4 jobs.
  NWayRunner::Options Opts = quickOptions();
  Opts.Budget = SearchBudgetMode::Off;
  SearchResult Off = runSweep(cryptoTriple(), Opts);
  ASSERT_TRUE(Off.Ok) << Off.Err;

  Opts.Budget = SearchBudgetMode::Incumbent;
  Opts.SearchJobs = 4;
  SearchResult SR = runSweep(cryptoTriple(), Opts);
  ASSERT_TRUE(SR.Ok) << SR.Err;
  EXPECT_EQ(SR.Best.Dims, Off.Best.Dims);
  EXPECT_EQ(SR.Best.RegBound, Off.Best.RegBound);
  EXPECT_EQ(SR.Best.Cycles, Off.Best.Cycles);
  expectLedgerCloses(SR);
}

//===----------------------------------------------------------------------===//
// Warm-store bit-identity
//===----------------------------------------------------------------------===//

TEST(SearchNWay, WarmStoreRerunIsBitIdenticalToCold) {
  // The crypto triple exhaustively, and a DL triple at hfusec's default
  // budget: its abandoned candidates replay from their abort records.
  const std::pair<std::vector<BenchKernelId>, SearchBudgetMode> Cases[] = {
      {cryptoTriple(), SearchBudgetMode::Off},
      {dlTriple(), SearchBudgetMode::Incumbent}};
  for (const auto &Case : Cases) {
    SCOPED_TRACE(searchBudgetModeName(Case.second));
    TempDir D("warmcold");
    auto Sweep = [&](CompileCache::Stats &S) {
      auto Cache = std::make_shared<CompileCache>();
      auto Store = ResultStore::open(D.str(), kStoreSchemaVersion);
      EXPECT_TRUE(Store);
      EXPECT_EQ(Store->stats().Quarantined, 0u);
      Cache->attachStore(Store);
      NWayRunner::Options Opts = quickOptions();
      Opts.Cache = Cache;
      Opts.Budget = Case.second;
      SearchResult SR = runSweep(Case.first, Opts);
      EXPECT_TRUE(SR.Ok) << SR.Err;
      S = Cache->stats();
      return SR;
    };

    CompileCache::Stats ColdStats, WarmStats;
    SearchResult Cold = Sweep(ColdStats);
    EXPECT_EQ(ColdStats.DiskHits, 0u);
    EXPECT_GT(ColdStats.DiskWrites, 0u);
    if (Case.second != SearchBudgetMode::Off)
      EXPECT_FALSE(Cold.Abandoned.empty());

    // Warm: fresh cache (no in-memory memo survives), reopened store.
    SearchResult Warm = Sweep(WarmStats);
    EXPECT_EQ(Warm.Best.Dims, Cold.Best.Dims);
    EXPECT_EQ(Warm.Best.RegBound, Cold.Best.RegBound);
    EXPECT_EQ(Warm.Best.Cycles, Cold.Best.Cycles);
    EXPECT_EQ(candidateMap(Warm), candidateMap(Cold));
    EXPECT_EQ(ledger(Warm), ledger(Cold));
    EXPECT_GT(WarmStats.DiskHits, 0u);
    EXPECT_EQ(WarmStats.SimRuns, 0u);
  }
}

TEST(SearchNWay, StoreAnsweredSearchSetsUpNoWorkload) {
  // Workload inputs are built per simulator context, at its first
  // simulation. A cold sweep at 2 jobs sets up at most one context per
  // job. A warm one the store answers sets up none, and the baselines,
  // which bypass the store, set up the primary context once.
  TempDir D("setups");
  auto CacheOn = [&] {
    auto Cache = std::make_shared<CompileCache>();
    auto Store = ResultStore::open(D.str(), kStoreSchemaVersion);
    EXPECT_TRUE(Store);
    Cache->attachStore(Store);
    return Cache;
  };
  NWayRunner::Options Opts = quickOptions();
  Opts.SearchJobs = 2;
  Opts.Cache = CacheOn();
  SearchResult Cold = runSweep(dlTriple(), Opts);
  ASSERT_TRUE(Cold.Ok) << Cold.Err;
  EXPECT_GE(Opts.Cache->stats().ContextSetups, 1u);
  EXPECT_LE(Opts.Cache->stats().ContextSetups, 2u);

  Opts.Cache = CacheOn();
  NWayRunner R(dlTriple(), Opts);
  ASSERT_TRUE(R.ok()) << R.error();
  SearchResult Warm = R.searchBestConfig();
  ASSERT_TRUE(Warm.Ok) << Warm.Err;
  EXPECT_EQ(ledger(Warm), ledger(Cold));
  EXPECT_EQ(Opts.Cache->stats().SimRuns, 0u);
  EXPECT_EQ(Opts.Cache->stats().ContextSetups, 0u);
  // The store's phase-1 summary stands in for fusion and lowering too.
  EXPECT_EQ(Opts.Cache->stats().FusionRuns, 0u);
  EXPECT_EQ(Opts.Cache->stats().Lowerings, 0u);
  EXPECT_TRUE(R.runNative().Ok);
  EXPECT_TRUE(R.runSerial().Ok);
  EXPECT_EQ(Opts.Cache->stats().ContextSetups, 1u);
}

//===----------------------------------------------------------------------===//
// Cancellation mid-sweep: anytime results with a closing ledger
//===----------------------------------------------------------------------===//

TEST(SearchNWay, CancelMidSweepYieldsPartialWithClosingLedger) {
  InjectorGuard G;
  arm("cancel-simulate:nth=1");
  NWayRunner::Options Opts = quickOptions();
  Opts.Cancel = CancellationToken::make();
  NWayRunner R(cryptoTriple(), Opts);
  ASSERT_TRUE(R.ok()) << R.error();
  SearchResult SR = R.searchBestConfig();

  // The cancel fired before the first measurement, so the sweep ends
  // partial; every enumerated candidate is still accounted for.
  EXPECT_TRUE(SR.Partial);
  EXPECT_FALSE(SR.PartialReason.ok());
  EXPECT_GT(SR.Unvisited.size(), 0u);
  expectLedgerCloses(SR);
}

//===----------------------------------------------------------------------===//
// Fault containment: a failing candidate retires to Failed
//===----------------------------------------------------------------------===//

TEST(SearchNWay, InjectedLoweringFaultRetiresCandidateWithoutChangingBest) {
  // Clean run first, to learn the winner and pick a victim: the
  // register-bounded sibling of the winning partition (its lowering is
  // a separate fault site from the unbounded one's).
  SearchResult Clean = runSweep(cryptoTriple(), quickOptions());
  ASSERT_TRUE(Clean.Ok) << Clean.Err;
  ASSERT_EQ(Clean.Best.RegBound, 0u) << "victim assumes an unbounded winner";

  // Find the bounded sibling's bound from whichever ledger bucket it
  // landed in.
  unsigned VictimBound = 0;
  for (const FusionCandidate &C : Clean.All)
    if (C.Dims == Clean.Best.Dims && C.RegBound != 0)
      VictimBound = C.RegBound;
  for (const PrunedCandidate &P : Clean.Pruned)
    if (P.Dims == Clean.Best.Dims && P.RegBound != 0)
      VictimBound = P.RegBound;
  for (const AbandonedCandidate &A : Clean.Abandoned)
    if (A.Dims == Clean.Best.Dims && A.RegBound != 0)
      VictimBound = A.RegBound;
  ASSERT_NE(VictimBound, 0u) << "no bounded sibling to inject into";

  InjectorGuard G;
  arm("lower:label=" + dimsLabel(Clean.Best.Dims) + ":r" +
      std::to_string(VictimBound));
  // Fresh runner: the fusion/lowering cache is per-runner, so the
  // armed lowering actually re-runs.
  SearchResult SR = runSweep(cryptoTriple(), quickOptions());
  ASSERT_TRUE(SR.Ok) << SR.Err;

  // The victim retired to Failed with a structured, transient error;
  // Best is bit-identical to the clean run.
  ASSERT_EQ(SR.Failed.size(), 1u);
  EXPECT_EQ(SR.Failed[0].Dims, Clean.Best.Dims);
  EXPECT_EQ(SR.Failed[0].RegBound, VictimBound);
  EXPECT_TRUE(SR.Failed[0].Err.transient());
  EXPECT_EQ(SR.Best.Dims, Clean.Best.Dims);
  EXPECT_EQ(SR.Best.RegBound, Clean.Best.RegBound);
  EXPECT_EQ(SR.Best.Cycles, Clean.Best.Cycles);
  expectLedgerCloses(SR);
}

//===----------------------------------------------------------------------===//
// Validation failures arrive structured (MultiFusionResult::Err)
//===----------------------------------------------------------------------===//

TEST(SearchNWay, InvalidPartitionFailsWithStructuredError) {
  NWayRunner R(cryptoTriple(), quickOptions());
  ASSERT_TRUE(R.ok()) << R.error();
  // Crypto kernels cannot re-shape to 100 threads — and 100 is not a
  // warp multiple in the first place; the validation rejection carries
  // ErrorCode::FusionUnsupported end to end.
  SimResult SR = R.runHFused({100, 256, 256}, 0);
  EXPECT_FALSE(SR.Ok);
  EXPECT_FALSE(R.error().empty());
}

//===----------------------------------------------------------------------===//
// The generalized register bound
//===----------------------------------------------------------------------===//

TEST(SearchNWay, RegBoundMatchesFigure6Generalization) {
  NWayRunner R(cryptoTriple(), quickOptions());
  ASSERT_TRUE(R.ok()) << R.error();
  std::optional<unsigned> R0 = R.regBound({256, 256, 256});
  ASSERT_TRUE(R0.has_value());
  // r0 = RegsPerSM / (b0 * D0) can never exceed the per-thread share
  // of an even split, and must leave every kernel at least one block.
  GpuArch Arch = makeGTX1080Ti();
  EXPECT_LE(*R0, static_cast<unsigned>(Arch.RegsPerSM / 768));
  EXPECT_GE(*R0, 1u);
}
