//===-- tests/StoreSearchTest.cpp - Warm-vs-cold store invariants ---------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The golden invariant of the persistent ResultStore under the search
/// pipeline: a warm-cache run (results served from disk) and a cold run
/// (results computed) produce bit-identical SearchResults for all 16
/// paper pairs — same Best config, same cycle counts, same candidate
/// sets — with the warm run performing zero simulations and setting up
/// no workload. Also covered: every injected store fault degrades the
/// sweep to a correct storeless run (never a wrong answer, never a
/// crash); warm budgeted sweeps replay the cold budgeted ledger, budget
/// aborts included, without simulating; a stored abort answers only
/// callers at least as tight and is replaced by a looser run; no unclean
/// run (wedged, cancelled, void) is persisted; and a schema bump
/// quarantines old records and recomputes rather than serving stale
/// payloads.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "profile/PairRunner.h"
#include "support/FaultInjector.h"
#include "support/ResultStore.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <unistd.h>
#include <vector>

using namespace hfuse;
using namespace hfuse::bench;
using namespace hfuse::gpusim;
using namespace hfuse::kernels;
using namespace hfuse::profile;
namespace fs = std::filesystem;

namespace {

struct TempDir {
  fs::path Path;
  explicit TempDir(const std::string &Tag) {
    Path = fs::temp_directory_path() /
           ("hfuse-store-search-" + Tag + "-" + std::to_string(::getpid()));
    fs::remove_all(Path);
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
};

struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::instance().reset(); }
};

/// Store options that never sleep: under every-match injected faults
/// each disk access walks the full retry schedule, and the default
/// backoff would turn a quick sweep into seconds of waiting.
ResultStore::Options quietStoreOptions() {
  ResultStore::Options O;
  O.Retry.Sleep = [](uint64_t) {};
  return O;
}

PairRunner::Options quickOptions(const std::shared_ptr<CompileCache> &Cache) {
  PairRunner::Options Opts;
  Opts.Arch = makeGTX1080Ti();
  Opts.SimSMs = 2;
  Opts.Scales = {0.2};
  Opts.Verify = false;
  Opts.Budget = SearchBudgetMode::Off;
  Opts.Cache = Cache;
  return Opts;
}

SearchResult runSweep(const BenchPair &P, const PairRunner::Options &Opts) {
  PairRunner R(P.A, P.B, Opts);
  EXPECT_TRUE(R.ok()) << R.error();
  SearchResult SR = R.searchBestConfig();
  EXPECT_TRUE(SR.Ok) << SR.Err;
  return SR;
}

std::map<std::pair<std::vector<int>, unsigned>, uint64_t>
candidateMap(const SearchResult &SR) {
  std::map<std::pair<std::vector<int>, unsigned>, uint64_t> M;
  for (const FusionCandidate &C : SR.All)
    M[{C.Dims, C.RegBound}] = C.Cycles;
  return M;
}

/// Everything the search prints per candidate, by canonical id: every
/// measured, abandoned (with budget and issued instructions), failed
/// and pruned candidate.
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
    L.push_back("failed c" + std::to_string(F.Id) + " " +
                errorCodeName(F.Err.code()));
  for (const PrunedCandidate &P : SR.Pruned)
    L.push_back("pruned c" + std::to_string(P.Id));
  return L;
}

/// A fresh CompileCache (no in-memory memo) on a reopened store: a new
/// process as far as the pipeline can tell.
std::shared_ptr<CompileCache> cacheOn(const TempDir &D) {
  auto Cache = std::make_shared<CompileCache>();
  auto Store = ResultStore::open(D.str(), kStoreSchemaVersion);
  EXPECT_TRUE(Store);
  Cache->attachStore(Store);
  return Cache;
}

PairRunner::Options budgetedOptions(const std::shared_ptr<CompileCache> &Cache,
                                    int Jobs = 1) {
  PairRunner::Options Opts = quickOptions(Cache);
  Opts.Budget = SearchBudgetMode::Incumbent;
  Opts.SearchJobs = Jobs;
  return Opts;
}

void expectBitIdentical(const SearchResult &A, const SearchResult &B) {
  EXPECT_EQ(A.Best.Dims, B.Best.Dims);
  EXPECT_EQ(A.Best.RegBound, B.Best.RegBound);
  EXPECT_EQ(A.Best.Cycles, B.Best.Cycles);
  EXPECT_EQ(candidateMap(A), candidateMap(B));
  EXPECT_EQ(A.Pruned.size(), B.Pruned.size());
}

std::string caseName(const testing::TestParamInfo<BenchPair> &Info) {
  return std::string(kernelDisplayName(Info.param.A)) + "_" +
         kernelDisplayName(Info.param.B);
}

class StoreSearch : public testing::TestWithParam<BenchPair> {};

} // namespace

TEST_P(StoreSearch, WarmRunIsBitIdenticalToColdAndSimulatesNothing) {
  const BenchPair &P = GetParam();
  TempDir D("warmcold");

  // Cold: fresh cache, fresh store — everything computed and persisted.
  auto ColdCache = std::make_shared<CompileCache>();
  {
    auto Store = ResultStore::open(D.str(), kStoreSchemaVersion);
    ASSERT_TRUE(Store);
    ColdCache->attachStore(Store);
  }
  SearchResult Cold = runSweep(P, quickOptions(ColdCache));
  if (!Cold.Ok)
    return;
  CompileCache::Stats ColdStats = ColdCache->stats();
  EXPECT_GT(ColdStats.SimRuns, 0u);
  EXPECT_GT(ColdStats.DiskWrites, 0u);
  EXPECT_EQ(ColdStats.DiskHits, 0u);
  // One simulator context per job, each set up for its first run.
  EXPECT_EQ(ColdStats.ContextSetups, 1u);

  // Warm: a brand-new process image as far as the pipeline can tell —
  // fresh CompileCache (no in-memory memo), reopened store.
  auto WarmCache = std::make_shared<CompileCache>();
  {
    auto Store = ResultStore::open(D.str(), kStoreSchemaVersion);
    ASSERT_TRUE(Store);
    EXPECT_EQ(Store->stats().Quarantined, 0u);
    WarmCache->attachStore(Store);
  }
  SearchResult Warm = runSweep(P, quickOptions(WarmCache));
  ASSERT_TRUE(Warm.Ok) << Warm.Err;

  expectBitIdentical(Warm, Cold);

  // The headline: with Budget=Off every candidate was persisted, so
  // the warm sweep re-simulates nothing and builds no workload inputs.
  CompileCache::Stats WarmStats = WarmCache->stats();
  EXPECT_EQ(WarmStats.SimRuns, 0u);
  EXPECT_EQ(WarmStats.ContextSetups, 0u);
  EXPECT_GT(WarmStats.DiskHits, 0u);
  EXPECT_EQ(WarmStats.DiskHits, ColdStats.DiskWrites);
}

TEST_P(StoreSearch, WarmBudgetedSweepMatchesColdBudgetedSweep) {
  const BenchPair &P = GetParam();
  TempDir D("warmbudget");

  // Cold budgeted run populates the store with every completed
  // candidate and every clean budget abort.
  SearchResult Cold = runSweep(P, budgetedOptions(cacheOn(D)));
  if (!Cold.Ok)
    return;

  // The warm budgeted run replays the cold ledger row for row: an
  // abort record answers the same budget with its own cycle and issued
  // count, and a stored full result above the budget is resynthesized
  // as BudgetExceeded, not smuggled in as a survivor.
  auto WarmCache = cacheOn(D);
  SearchResult Warm = runSweep(P, budgetedOptions(WarmCache));
  ASSERT_TRUE(Warm.Ok) << Warm.Err;

  expectBitIdentical(Warm, Cold);
  EXPECT_EQ(ledger(Warm), ledger(Cold));
  EXPECT_EQ(Warm.Stats.IncumbentCycles, Cold.Stats.IncumbentCycles);
  EXPECT_EQ(WarmCache->stats().SimRuns, 0u);
  EXPECT_EQ(WarmCache->stats().DiskMisses, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPaperPairs, StoreSearch,
                         testing::ValuesIn(paperPairs()), caseName);

namespace {

/// A search that may come back partial or failed (faults armed).
SearchResult runFaulted(const BenchPair &P, const PairRunner::Options &Opts) {
  PairRunner R(P.A, P.B, Opts);
  EXPECT_TRUE(R.ok()) << R.error();
  return R.searchBestConfig();
}

} // namespace

TEST(StoreAbort, AbortRecordAnswersOnlyCallersAtLeastAsTight) {
  // The disk twin of
  // BudgetedSearchCache.AbortedRunDoesNotPoisonTheSimulationMemo.
  const BenchPair P{BenchKernelId::Batchnorm, BenchKernelId::Hist};
  TempDir D("abortrecord");
  auto Budgeted = [](const std::shared_ptr<CompileCache> &Cache) {
    PairRunner::Options Opts = budgetedOptions(Cache);
    Opts.Prune = false; // pin the full candidate set
    return Opts;
  };
  SearchResult Cold = runSweep(P, Budgeted(cacheOn(D)));
  ASSERT_TRUE(Cold.Ok) << Cold.Err;
  ASSERT_GE(Cold.Abandoned.size(), 2u);
  const AbandonedCandidate A = Cold.Abandoned.front();
  ASSERT_GT(A.IssuedInsts, 0u);

  // An unbudgeted caller needs more than the stored abort: one disk
  // miss, a simulation to the true cycles, and the record replaced.
  auto Looser = cacheOn(D);
  PairRunner R2(P.A, P.B, Budgeted(Looser));
  ASSERT_TRUE(R2.ok()) << R2.error();
  SimResult Full = R2.runHFused(A.Dims, A.RegBound);
  ASSERT_TRUE(Full.Ok) << Full.Error;
  EXPECT_GT(Full.TotalCycles, A.BudgetCycles);
  CompileCache::Stats S = Looser->stats();
  EXPECT_EQ(S.DiskHits, 0u);
  EXPECT_EQ(S.DiskMisses, 1u);
  EXPECT_EQ(S.SimRuns, 1u);
  EXPECT_EQ(S.DiskWrites, 1u);

  // It matches a storeless runner that never had a budget.
  PairRunner RRef(P.A, P.B, quickOptions(std::make_shared<CompileCache>()));
  ASSERT_TRUE(RRef.ok()) << RRef.error();
  SimResult Ref = RRef.runHFused(A.Dims, A.RegBound);
  ASSERT_TRUE(Ref.Ok) << Ref.Error;
  EXPECT_EQ(Full.TotalCycles, Ref.TotalCycles);
  EXPECT_EQ(Full.TotalIssued, Ref.TotalIssued);

  // A third fresh cache gets the completed record from disk.
  auto Third = cacheOn(D);
  PairRunner R3(P.A, P.B, Budgeted(Third));
  ASSERT_TRUE(R3.ok()) << R3.error();
  SimResult Hit = R3.runHFused(A.Dims, A.RegBound);
  ASSERT_TRUE(Hit.Ok) << Hit.Error;
  EXPECT_EQ(Hit.TotalCycles, Full.TotalCycles);
  EXPECT_EQ(Hit.TotalIssued, Full.TotalIssued);
  S = Third->stats();
  EXPECT_EQ(S.DiskHits, 1u);
  EXPECT_EQ(S.DiskMisses, 0u);
  EXPECT_EQ(S.SimRuns, 0u);

  // Fresh callers at the stored budget simulate nothing. The other
  // abandoned candidates get their stored aborts with the issued
  // counts; the replaced one is abandoned at the same cycle by its
  // completed record, at no instruction cost.
  auto Tight = cacheOn(D);
  SearchResult Again = runSweep(P, Budgeted(Tight));
  ASSERT_TRUE(Again.Ok) << Again.Err;
  EXPECT_EQ(Tight->stats().SimRuns, 0u);
  EXPECT_EQ(Tight->stats().DiskMisses, 0u);
  EXPECT_EQ(candidateMap(Again), candidateMap(Cold));
  ASSERT_EQ(Again.Abandoned.size(), Cold.Abandoned.size());
  for (size_t I = 0; I < Cold.Abandoned.size(); ++I) {
    const AbandonedCandidate &Want = Cold.Abandoned[I];
    const AbandonedCandidate &Got = Again.Abandoned[I];
    EXPECT_EQ(Got.Id, Want.Id);
    EXPECT_EQ(Got.BudgetCycles, Want.BudgetCycles);
    EXPECT_EQ(Got.IssuedInsts, Got.Id == A.Id ? 0u : Want.IssuedInsts)
        << "c" << Got.Id;
  }
}

TEST(StoreAbort, WedgedRunThatHitsTheBudgetIsNotPersisted) {
  InjectorGuard G;
  const BenchPair P{BenchKernelId::Ethash, BenchKernelId::SHA256};
  SearchResult Ref =
      runSweep(P, budgetedOptions(std::make_shared<CompileCache>()));
  ASSERT_TRUE(Ref.Ok) << Ref.Err;
  ASSERT_EQ(Ref.Abandoned.size(), 1u);
  const AbandonedCandidate &A = Ref.Abandoned.front();

  // The crypto kernels have no barrier for the wedge to hold, so the
  // wedged run still reaches the budget: an abort flagged
  // FaultInjected, which the ledger reports like the clean one.
  TempDir D("wedgedabort");
  auto Cache = cacheOn(D);
  ASSERT_TRUE(FaultInjector::instance().configure(
      formatString("sim-wedge:label=,%s,r%u)", dimsLabel(A.Dims).c_str(),
                   A.RegBound)));
  SearchResult Wedged = runSweep(P, budgetedOptions(Cache));
  FaultInjector::instance().reset();
  EXPECT_EQ(ledger(Wedged), ledger(Ref));
  EXPECT_EQ(Cache->stats().DiskWrites, 1u); // the seed only

  // So a warm rerun simulates the abort again, and only that.
  auto Warm = cacheOn(D);
  SearchResult Rerun = runSweep(P, budgetedOptions(Warm));
  EXPECT_EQ(ledger(Rerun), ledger(Ref));
  EXPECT_EQ(Warm->stats().DiskHits, 1u);
  EXPECT_EQ(Warm->stats().DiskMisses, 1u);
  EXPECT_EQ(Warm->stats().SimRuns, 1u);
}

TEST(StoreAbort, CancelledRunsAreNotPersisted) {
  InjectorGuard G;
  const BenchPair P{BenchKernelId::Batchnorm, BenchKernelId::Hist};
  SearchResult Ref =
      runSweep(P, budgetedOptions(std::make_shared<CompileCache>()));
  ASSERT_TRUE(Ref.Ok) << Ref.Err;

  // Cancel mid-sweep at 4 jobs: whatever was in flight ends Cancelled
  // (or void, if it was gated by a cancelled seed). Which runs finished
  // first depends on timing; none of the others may leave a record.
  TempDir D("cancelled");
  auto Cache = cacheOn(D);
  ASSERT_TRUE(FaultInjector::instance().configure("cancel-simulate:nth=6"));
  SearchResult Cut = runFaulted(P, budgetedOptions(Cache, 4));
  FaultInjector::instance().reset();
  EXPECT_TRUE(Cut.Partial);
  const uint64_t Written = Cache->stats().DiskWrites;

  // A warm rerun replays every record the cut run left, simulates the
  // rest, and prints the clean ledger.
  auto Warm = cacheOn(D);
  SearchResult Rerun = runSweep(P, budgetedOptions(Warm, 4));
  EXPECT_EQ(ledger(Rerun), ledger(Ref));
  CompileCache::Stats S = Warm->stats();
  EXPECT_EQ(S.DiskHits, Written);
  EXPECT_GT(S.SimRuns, 0u);
  EXPECT_EQ(S.DiskMisses, S.SimRuns);
}

TEST(StoreAbort, VoidFollowersOfAWedgedSeedAreNotPersisted) {
  InjectorGuard G;
  // The seed of this pair, as SearchBudgetDeterminism wedges it.
  const BenchPair P{BenchKernelId::Batchnorm, BenchKernelId::Upsample};
  SearchResult Clean =
      runSweep(P, budgetedOptions(std::make_shared<CompileCache>()));
  ASSERT_TRUE(Clean.Ok) << Clean.Err;
  const FusionCandidate *Seed = nullptr;
  for (const FusionCandidate &C : Clean.All)
    if (C.Cycles == Clean.Stats.IncumbentCycles)
      Seed = &C;
  ASSERT_NE(Seed, nullptr);
  const std::string Label =
      dimsLabel(Seed->Dims) +
      (Seed->RegBound ? formatString(",r%u)", Seed->RegBound)
                      : std::string(")"));

  auto Wedged = [&](const TempDir &D, int Jobs, CompileCache::Stats &S) {
    auto Cache = cacheOn(D);
    EXPECT_TRUE(FaultInjector::instance().configure("sim-wedge:label=" +
                                                    Label));
    SearchResult SR = runSweep(P, budgetedOptions(Cache, Jobs));
    FaultInjector::instance().reset();
    S = Cache->stats();
    return SR;
  };
  TempDir D1("voidseed-j1"), D4("voidseed-j4");
  CompileCache::Stats S1, S4, SW;
  SearchResult Serial = Wedged(D1, 1, S1);
  SearchResult Parallel = Wedged(D4, 4, S4);
  ASSERT_EQ(Serial.Failed.size(), 1u);
  EXPECT_EQ(ledger(Parallel), ledger(Serial));
  // At 4 jobs, followers gated by the wedged seed may have run and been
  // voided. They wrote nothing: both stores hold the serial records.
  EXPECT_EQ(S4.DiskWrites, S1.DiskWrites);

  // A warm rerun with the wedge still armed simulates only the wedged
  // seed, which failed and was never persisted, and replays the rest.
  SearchResult Warm = Wedged(D4, 4, SW);
  EXPECT_EQ(ledger(Warm), ledger(Serial));
  EXPECT_EQ(SW.SimRuns, 1u);
  EXPECT_EQ(SW.DiskMisses, 1u);
  EXPECT_EQ(SW.DiskWrites, 0u);
}

namespace {

/// One representative pair for the fault-containment sweeps (the
/// invariant is store-level, not pair-level; the parameterized suite
/// above covers the cross-pair surface).
BenchPair faultPair() { return paperPairs().front(); }

} // namespace

TEST(StoreFaultTest, EveryInjectedStoreFaultDegradesToACorrectRun) {
  InjectorGuard G;

  // Storeless reference.
  auto RefCache = std::make_shared<CompileCache>();
  SearchResult Ref = runSweep(faultPair(), quickOptions(RefCache));
  ASSERT_TRUE(Ref.Ok) << Ref.Err;

  const char *Faults[] = {"store-write-torn", "store-corrupt",
                          "store-lock-timeout", "store-read-fail"};
  for (const char *Fault : Faults) {
    SCOPED_TRACE(Fault);
    TempDir D(std::string("fault-") + Fault);

    // Seed the store with one clean cold run so read-side faults have
    // records to chew on. store-write-torn starts from an empty store
    // instead — against a seeded one its reads would simply hit, which
    // is correct but exercises nothing.
    if (std::string(Fault) != "store-write-torn") {
      auto SeedCache = std::make_shared<CompileCache>();
      auto Store =
          ResultStore::open(D.str(), kStoreSchemaVersion, nullptr,
                            quietStoreOptions());
      ASSERT_TRUE(Store);
      SeedCache->attachStore(Store);
      SearchResult Seed = runSweep(faultPair(), quickOptions(SeedCache));
      ASSERT_TRUE(Seed.Ok) << Seed.Err;
    }

    // Now run with the fault firing on every matching site. The sweep
    // must complete with the storeless reference's exact answer: a
    // faulted store degrades to recomputation, never to a wrong or
    // missing result.
    ASSERT_TRUE(FaultInjector::instance().configure(Fault));
    auto Cache = std::make_shared<CompileCache>();
    auto Store = ResultStore::open(D.str(), kStoreSchemaVersion, nullptr,
                                   quietStoreOptions());
    ASSERT_TRUE(Store);
    Cache->attachStore(Store);
    SearchResult Got = runSweep(faultPair(), quickOptions(Cache));
    FaultInjector::instance().reset();
    ASSERT_TRUE(Got.Ok) << Fault << ": " << Got.Err;
    expectBitIdentical(Got, Ref);
    // Nothing could be served from disk, so everything was simulated.
    EXPECT_EQ(Cache->stats().DiskHits, 0u);
    EXPECT_EQ(Cache->stats().SimRuns, RefCache->stats().SimRuns);
  }
}

TEST(StoreFaultTest, SchemaBumpQuarantinesOldRecordsAndRecomputes) {
  TempDir D("schemabump");

  auto ColdCache = std::make_shared<CompileCache>();
  {
    auto Store = ResultStore::open(D.str(), kStoreSchemaVersion);
    ASSERT_TRUE(Store);
    ColdCache->attachStore(Store);
  }
  SearchResult Cold = runSweep(faultPair(), quickOptions(ColdCache));
  ASSERT_TRUE(Cold.Ok) << Cold.Err;
  const uint64_t Persisted = ColdCache->stats().DiskWrites;
  ASSERT_GT(Persisted, 0u);

  // Reopen under a bumped schema: every old record is quarantined (not
  // deleted), nothing is served stale, and the sweep recomputes to the
  // identical answer.
  auto Cache = std::make_shared<CompileCache>();
  auto Store = ResultStore::open(D.str(), kStoreSchemaVersion + 1);
  ASSERT_TRUE(Store);
  EXPECT_GE(Store->stats().Quarantined, Persisted);
  Cache->attachStore(Store);
  SearchResult Got = runSweep(faultPair(), quickOptions(Cache));
  ASSERT_TRUE(Got.Ok) << Got.Err;
  expectBitIdentical(Got, Cold);
  EXPECT_EQ(Cache->stats().DiskHits, 0u);
  EXPECT_GT(Cache->stats().SimRuns, 0u);

  size_t QuarantineFiles = 0;
  for (const auto &E : fs::directory_iterator(Store->quarantineDir())) {
    (void)E;
    ++QuarantineFiles;
  }
  EXPECT_GE(QuarantineFiles, Persisted);
}
