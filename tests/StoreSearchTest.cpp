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
/// sets — with the warm run performing zero input compiles,
/// simulations, fusions and lowerings, and setting up no workload.
/// Also covered: every injected store fault degrades the sweep to a
/// correct storeless run (never a wrong answer, never a crash); warm
/// budgeted sweeps replay the cold budgeted ledger, budget
/// aborts included, without simulating; a stored abort answers only
/// callers at least as tight and is replaced by a looser run; no unclean
/// run (wedged, cancelled, void) is persisted; a schema bump
/// quarantines old records and recomputes rather than serving stale
/// payloads; and the phase-1 summary — written only after a clean
/// phase 1, checked against every lazy lowering, replaced when it does
/// not decode or fit — leaves a warm search exactly the input compiles,
/// fusion and simulation its missing records need, while a compile
/// digest left by an earlier build is never read.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "profile/PairRunner.h"
#include "support/BinaryCodec.h"
#include "support/FaultInjector.h"
#include "support/ResultStore.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
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

/// Every field of every pruned row, by canonical id.
std::vector<std::string> prunedRows(const SearchResult &SR) {
  std::vector<std::string> Rows;
  for (const PrunedCandidate &P : SR.Pruned)
    Rows.push_back(formatString("c%d %s r%u %d/SM dominator %d/SM: %s", P.Id,
                                dimsLabel(P.Dims).c_str(), P.RegBound,
                                P.BlocksPerSM, P.DominatorBlocksPerSM,
                                P.Reason.c_str()));
  return Rows;
}

void expectBitIdentical(const SearchResult &A, const SearchResult &B) {
  EXPECT_EQ(A.Best.Dims, B.Best.Dims);
  EXPECT_EQ(A.Best.RegBound, B.Best.RegBound);
  EXPECT_EQ(A.Best.Cycles, B.Best.Cycles);
  EXPECT_EQ(candidateMap(A), candidateMap(B));
  EXPECT_EQ(prunedRows(A), prunedRows(B));
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
  // The clean phase 1 left one summary.
  EXPECT_EQ(ColdStats.SummaryWrites, 1u);
  EXPECT_EQ(ColdStats.SummaryHits, 0u);

  // Warm: a brand-new process image as far as the pipeline can tell —
  // fresh CompileCache (no in-memory memo), reopened store.
  auto WarmCache = std::make_shared<CompileCache>();
  {
    auto Store = ResultStore::open(D.str(), kStoreSchemaVersion);
    ASSERT_TRUE(Store);
    WarmCache->attachStore(Store);
  }
  SearchResult Warm = runSweep(P, quickOptions(WarmCache));
  ASSERT_TRUE(Warm.Ok) << Warm.Err;
  // Every record the warm search read passed validation.
  EXPECT_EQ(WarmCache->store()->stats().Quarantined, 0u);

  expectBitIdentical(Warm, Cold);

  // The headline: with Budget=Off every candidate was persisted, so
  // the warm sweep re-simulates nothing and builds no workload inputs;
  // the summary answers phase 1, so it fuses and lowers nothing either.
  CompileCache::Stats WarmStats = WarmCache->stats();
  EXPECT_EQ(WarmStats.SimRuns, 0u);
  EXPECT_EQ(WarmStats.ContextSetups, 0u);
  EXPECT_GT(WarmStats.DiskHits, 0u);
  EXPECT_EQ(WarmStats.DiskHits, ColdStats.DiskWrites);
  EXPECT_EQ(WarmStats.FusionRuns, 0u);
  EXPECT_EQ(WarmStats.Lowerings, 0u);
  EXPECT_EQ(WarmStats.SummaryHits, 1u);
  EXPECT_EQ(WarmStats.SummaryWrites, 0u);
}

TEST_P(StoreSearch, WarmBudgetedSweepMatchesColdBudgetedSweep) {
  const BenchPair &P = GetParam();
  TempDir D("warmbudget");

  // Cold budgeted run populates the store with every completed
  // candidate, every clean budget abort and the phase-1 summary.
  auto ColdCache = cacheOn(D);
  SearchResult Cold = runSweep(P, budgetedOptions(ColdCache));
  if (!Cold.Ok)
    return;
  EXPECT_EQ(ColdCache->stats().SummaryWrites, 1u);

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
  CompileCache::Stats WarmStats = WarmCache->stats();
  EXPECT_EQ(WarmStats.SimRuns, 0u);
  EXPECT_EQ(WarmStats.DiskMisses, 0u);
  EXPECT_EQ(WarmStats.FusionRuns, 0u);
  EXPECT_EQ(WarmStats.Lowerings, 0u);
  EXPECT_EQ(WarmStats.SummaryHits, 1u);
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

  // Reopen under a bumped schema: open() reads no record, and the sweep
  // quarantines (never deletes) each old record it reads — every
  // simulation record and the phase-1 summary — serves nothing stale,
  // and recomputes to the identical answer.
  auto Cache = std::make_shared<CompileCache>();
  auto Store = ResultStore::open(D.str(), kStoreSchemaVersion + 1);
  ASSERT_TRUE(Store);
  EXPECT_EQ(Store->stats().Quarantined, 0u);
  Cache->attachStore(Store);
  SearchResult Got = runSweep(faultPair(), quickOptions(Cache));
  ASSERT_TRUE(Got.Ok) << Got.Err;
  expectBitIdentical(Got, Cold);
  EXPECT_EQ(Cache->stats().DiskHits, 0u);
  EXPECT_GT(Cache->stats().SimRuns, 0u);
  EXPECT_EQ(Store->stats().Quarantined, Persisted + 1);

  size_t QuarantineFiles = 0;
  for (const auto &E : fs::directory_iterator(Store->quarantineDir())) {
    (void)E;
    ++QuarantineFiles;
  }
  EXPECT_EQ(QuarantineFiles, Persisted + 1);
}

//===----------------------------------------------------------------------===//
// The phase-1 summary: one record per search stands in for fusion and
// lowering on a warm store
//===----------------------------------------------------------------------===//

namespace {

/// A DL pair: seven partitions, with bounded, aliased and pruned
/// candidates among them.
BenchPair dlPair() { return {BenchKernelId::Batchnorm, BenchKernelId::Hist}; }

std::string fileBytes(const fs::path &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In), {});
}

/// The records of \p D whose key opens with the length-prefixed \p Tag
/// ("sim-result", "phase1-summary"), by key. The key sits at offset 24
/// of the record, its length at offset 8 (support/ResultStore.h).
std::map<std::string, fs::path> recordsTagged(const TempDir &D,
                                              std::string_view Tag) {
  std::map<std::string, fs::path> Out;
  for (const auto &E : fs::directory_iterator(D.Path / "records")) {
    std::string Bytes = fileBytes(E.path());
    ByteReader Header(std::string_view(Bytes).substr(8, 4));
    std::string Key = Bytes.substr(24, Header.u32());
    if (ByteReader(Key).str() == Tag)
      Out.emplace(std::move(Key), E.path());
  }
  return Out;
}

/// The store's only phase-1 summary: its key and decoded record.
std::pair<std::string, Phase1Summary> onlySummary(const TempDir &D) {
  std::map<std::string, fs::path> Summaries =
      recordsTagged(D, "phase1-summary");
  EXPECT_EQ(Summaries.size(), 1u);
  if (Summaries.empty())
    return {};
  const std::string &Key = Summaries.begin()->first;
  auto Store = ResultStore::open(D.str(), kStoreSchemaVersion);
  std::optional<std::string> Payload = Store->get(Key);
  EXPECT_TRUE(Payload);
  std::optional<Phase1Summary> Summary =
      decodePhase1Summary(Payload ? *Payload : std::string());
  EXPECT_TRUE(Summary);
  return {Key, Summary ? *Summary : Phase1Summary()};
}

/// Options at \p Budget and \p Jobs on \p Cache.
PairRunner::Options budgetOptions(const std::shared_ptr<CompileCache> &Cache,
                                  SearchBudgetMode Budget, int Jobs) {
  PairRunner::Options Opts = quickOptions(Cache);
  Opts.Budget = Budget;
  Opts.SearchJobs = Jobs;
  return Opts;
}

} // namespace

TEST(StoreSummary, WarmSearchCompilesNoInputKernel) {
  // The summary holds the input kernels' shapes, so a warm search reads
  // their instruction counts (the bound ordering's S_k) from it and
  // compiles neither kernel. The budgeted order, and so which
  // candidates are abandoned and at what cost, stays the cold one.
  for (const BenchPair &P :
       {dlPair(), BenchPair{BenchKernelId::SHA256, BenchKernelId::Blake256}}) {
    for (SearchBudgetMode Budget :
         {SearchBudgetMode::Incumbent, SearchBudgetMode::Off}) {
      SCOPED_TRACE(std::string(kernelDisplayName(P.A)) + "+" +
                   kernelDisplayName(P.B) + " budget " +
                   searchBudgetModeName(Budget));
      TempDir D(std::string("nocompile-") + kernelDisplayName(P.A) + "-" +
                searchBudgetModeName(Budget));
      auto ColdCache = cacheOn(D);
      SearchResult Cold = runSweep(P, budgetOptions(ColdCache, Budget, 1));
      ASSERT_TRUE(Cold.Ok) << Cold.Err;
      EXPECT_EQ(ColdCache->stats().KernelCompiles, 2u);
      ASSERT_EQ(onlySummary(D).second.Inputs.size(), 2u);
      for (int Jobs : {1, 4}) {
        SCOPED_TRACE("jobs=" + std::to_string(Jobs));
        auto Warm = cacheOn(D);
        SearchResult SR = runSweep(P, budgetOptions(Warm, Budget, Jobs));
        expectBitIdentical(SR, Cold);
        EXPECT_EQ(ledger(SR), ledger(Cold));
        EXPECT_EQ(SR.Stats.IncumbentCycles, Cold.Stats.IncumbentCycles);
        CompileCache::Stats S = Warm->stats();
        EXPECT_EQ(S.SummaryHits, 1u);
        EXPECT_EQ(S.KernelCompiles, 0u);
        EXPECT_EQ(S.KernelHits, 0u);
        EXPECT_EQ(S.FusionRuns, 0u);
        EXPECT_EQ(S.SimRuns, 0u);
      }
    }
  }
}

TEST(StoreSummary, DeletedSimRecordIsTheOnlyFusionAndSimulation) {
  TempDir D("deleted");
  SearchResult Cold = runSweep(dlPair(), quickOptions(cacheOn(D)));
  ASSERT_TRUE(Cold.Ok) << Cold.Err;
  std::map<std::string, fs::path> Sims = recordsTagged(D, "sim-result");
  ASSERT_GE(Sims.size(), 2u);

  // Each simulation record in turn: the warm search takes phase 1 from
  // the summary, misses that one record, compiles both input kernels
  // once, and fuses, lowers and simulates its launch alone. At 2 jobs
  // that lazy lowering, input compiles included, runs on a pool worker.
  for (const auto &[Key, Path] : Sims) {
    for (int Jobs : {1, 2}) {
      SCOPED_TRACE(Path.filename().string() +
                   " jobs=" + std::to_string(Jobs));
      const std::string Bytes = fileBytes(Path);
      fs::remove(Path);
      auto Warm = cacheOn(D);
      PairRunner::Options Opts = quickOptions(Warm);
      Opts.SearchJobs = Jobs;
      telemetry::Tracer::instance().clear();
      telemetry::setTraceEnabled(true);
      SearchResult SR = runSweep(dlPair(), Opts);
      telemetry::setTraceEnabled(false);
      expectBitIdentical(SR, Cold);
      EXPECT_EQ(ledger(SR), ledger(Cold));
      CompileCache::Stats S = Warm->stats();
      EXPECT_EQ(S.SummaryHits, 1u);
      EXPECT_EQ(S.KernelCompiles, 2u);
      EXPECT_EQ(S.KernelHits, 0u);
      EXPECT_EQ(S.FusionRuns, 1u);
      EXPECT_EQ(S.Lowerings, 1u);
      EXPECT_EQ(S.SimRuns, 1u);
      EXPECT_EQ(S.DiskMisses, 1u);
      EXPECT_EQ(S.DiskWrites, 1u);
      std::vector<uint32_t> CompileThreads;
      for (const telemetry::TraceEvent &E :
           telemetry::Tracer::instance().events())
        if (E.Phase == 'B' && E.Cat == "compile")
          CompileThreads.push_back(E.Tid);
      ASSERT_EQ(CompileThreads.size(), 2u);
      EXPECT_EQ(CompileThreads[0], CompileThreads[1]);
      EXPECT_EQ(CompileThreads[0] != telemetry::Tracer::currentThreadId(),
                Jobs > 1);
      // The write landed under the deleted key, byte for byte: the one
      // fused, lowered and simulated launch was exactly the missing one.
      EXPECT_EQ(fileBytes(Path), Bytes);
    }
  }
  telemetry::Tracer::instance().clear();
}

TEST(StoreSummary, FailedLazyLoweringIsNeitherMemoizedNorStored) {
  InjectorGuard G;
  TempDir D("lazyfail");
  SearchResult Cold = runSweep(dlPair(), quickOptions(cacheOn(D)));
  ASSERT_TRUE(Cold.Ok) << Cold.Err;

  // A record only one candidate launches (no aliased bound shares its
  // hash), so its loss leaves exactly one lazy lowering.
  const std::vector<Phase1Entry> Entries = onlySummary(D).second.Entries;
  fs::path Victim;
  for (const auto &[Key, Path] : recordsTagged(D, "sim-result")) {
    ByteReader KR(Key);
    KR.str();
    const uint64_t Hash = KR.u64();
    if (std::count_if(Entries.begin(), Entries.end(), [&](const auto &E) {
          return E.Shape && E.Shape->Hash == Hash;
        }) == 1)
      Victim = Path;
  }
  ASSERT_FALSE(Victim.empty());
  fs::remove(Victim);

  auto Warm = cacheOn(D);
  PairRunner R(dlPair().A, dlPair().B, quickOptions(Warm));
  ASSERT_TRUE(R.ok()) << R.error();
  ASSERT_TRUE(FaultInjector::instance().configure("lower"));
  SearchResult Faulted = R.searchBestConfig();
  FaultInjector::instance().reset();
  ASSERT_EQ(Faulted.Failed.size(), 1u);
  EXPECT_EQ(Faulted.Failed[0].Err.code(), ErrorCode::RegAllocError);
  EXPECT_TRUE(Faulted.Failed[0].Err.transient());
  EXPECT_EQ(Warm->stats().SimRuns, 0u);
  EXPECT_EQ(Warm->stats().DiskWrites, 0u);
  EXPECT_FALSE(fs::exists(Victim));

  // Nothing was memoized: the same runner lowers and simulates the
  // launch on its next search, and stores it.
  SearchResult Clean = R.searchBestConfig();
  expectBitIdentical(Clean, Cold);
  EXPECT_EQ(ledger(Clean), ledger(Cold));
  EXPECT_EQ(Warm->stats().SimRuns, 1u);
  EXPECT_EQ(Warm->stats().DiskWrites, 1u);
  EXPECT_TRUE(fs::exists(Victim));
}

TEST(StoreSummary, CancelledPhaseOneWritesNoSummary) {
  InjectorGuard G;
  TempDir D("cancelcompile");
  auto Cache = cacheOn(D);
  ASSERT_TRUE(FaultInjector::instance().configure("cancel-compile:nth=1"));
  SearchResult Cut = runFaulted(dlPair(), quickOptions(Cache));
  FaultInjector::instance().reset();
  EXPECT_TRUE(Cut.Partial);
  EXPECT_EQ(Cache->stats().SummaryWrites, 0u);

  // The reopened store holds no summary, so the next search runs its
  // own phase 1 and leaves the first one.
  EXPECT_TRUE(recordsTagged(D, "phase1-summary").empty());
  auto Next = cacheOn(D);
  SearchResult Clean = runSweep(dlPair(), quickOptions(Next));
  EXPECT_EQ(Next->stats().SummaryHits, 0u);
  EXPECT_EQ(Next->stats().FusionRuns, 7u);
  EXPECT_EQ(Next->stats().SummaryWrites, 1u);
}

TEST(StoreSummary, FaultedPhaseOneWritesNoSummary) {
  InjectorGuard G;
  for (const char *Fault : {"fuse:nth=1", "lower:nth=1"}) {
    SCOPED_TRACE(Fault);
    TempDir D(std::string("faulted-") +
              std::string(Fault).substr(0, std::string(Fault).find(':')));
    auto Cache = cacheOn(D);
    ASSERT_TRUE(FaultInjector::instance().configure(Fault));
    SearchResult SR = runFaulted(dlPair(), quickOptions(Cache));
    FaultInjector::instance().reset();
    ASSERT_TRUE(SR.Ok) << SR.Err;
    EXPECT_EQ(SR.Failed.size(), 1u);
    EXPECT_EQ(Cache->stats().SummaryWrites, 0u);
    EXPECT_TRUE(recordsTagged(D, "phase1-summary").empty());
  }
}

TEST(StoreSummary, WarmPhaseOneChecksCancelOncePerPartition) {
  InjectorGuard G;
  TempDir D("warmcancel");
  SearchResult Cold = runSweep(dlPair(), quickOptions(cacheOn(D)));
  ASSERT_TRUE(Cold.Ok) << Cold.Err;

  // Seven partitions, seven checks: the seventh match fires, an eighth
  // never comes. Either way the summary answers phase 1.
  for (int Nth : {7, 8}) {
    SCOPED_TRACE(Nth);
    auto Warm = cacheOn(D);
    ASSERT_TRUE(FaultInjector::instance().configure(
        formatString("cancel-compile:nth=%d", Nth)));
    SearchResult SR = runFaulted(dlPair(), quickOptions(Warm));
    const uint64_t Fired = FaultInjector::instance().firedCount();
    FaultInjector::instance().reset();
    EXPECT_EQ(Warm->stats().SummaryHits, 1u);
    EXPECT_EQ(Warm->stats().FusionRuns, 0u);
    EXPECT_EQ(Fired, Nth == 7 ? 1u : 0u);
    EXPECT_EQ(SR.Partial, Nth == 7);
    if (Nth == 8)
      expectBitIdentical(SR, Cold);
  }
}

TEST(StoreSummary, UndecodableSummaryReadsAsMissAndIsReplaced) {
  TempDir D("garbled");
  SearchResult Cold = runSweep(dlPair(), quickOptions(cacheOn(D)));
  ASSERT_TRUE(Cold.Ok) << Cold.Err;
  const auto [Key, Stored] = onlySummary(D);
  ASSERT_FALSE(Key.empty());
  ASSERT_EQ(Stored.Inputs.size(), 2u);
  Phase1Summary OneInput = Stored;
  OneInput.Inputs.pop_back();
  Phase1Summary ThreeInputs = Stored;
  ThreeInputs.Inputs.push_back(Stored.Inputs.back());

  // Bytes that do not decode, a well-formed summary that does not fit
  // the search's candidates, and the stored one with one input shape
  // too few or too many.
  for (const std::string &Payload :
       {std::string("not a summary"), encodePhase1Summary({}),
        encodePhase1Summary(OneInput), encodePhase1Summary(ThreeInputs)}) {
    {
      auto Store = ResultStore::open(D.str(), kStoreSchemaVersion);
      ASSERT_TRUE(Store->put(Key, Payload).ok());
    }
    auto Warm = cacheOn(D);
    SearchResult SR = runSweep(dlPair(), quickOptions(Warm));
    expectBitIdentical(SR, Cold);
    EXPECT_EQ(ledger(SR), ledger(Cold));
    CompileCache::Stats S = Warm->stats();
    EXPECT_EQ(S.SummaryHits, 0u);
    EXPECT_EQ(S.KernelCompiles, 2u);
    EXPECT_EQ(S.FusionRuns, 7u);
    EXPECT_EQ(S.SimRuns, 0u);
    EXPECT_EQ(S.SummaryWrites, 1u);

    // The rewritten summary answers the next search.
    auto Again = cacheOn(D);
    SearchResult Next = runSweep(dlPair(), quickOptions(Again));
    expectBitIdentical(Next, Cold);
    EXPECT_EQ(Again->stats().SummaryHits, 1u);
    EXPECT_EQ(Again->stats().KernelCompiles, 0u);
    EXPECT_EQ(Again->stats().FusionRuns, 0u);
  }
}

TEST(StoreSummary, ForgedHashRetiresItsCandidateAsInternal) {
  TempDir D("forged");
  auto Unpruned = [](const std::shared_ptr<CompileCache> &Cache) {
    PairRunner::Options Opts = quickOptions(Cache);
    Opts.Prune = false; // every candidate is measured
    Opts.SearchJobs = 2; // the lazy lowering races the disk hits
    return Opts;
  };
  SearchResult Cold = runSweep(dlPair(), Unpruned(cacheOn(D)));
  ASSERT_TRUE(Cold.Ok) << Cold.Err;
  const FusionCandidate *Victim = nullptr;
  for (const FusionCandidate &C : Cold.All)
    if (C.Id != Cold.Best.Id)
      Victim = &C;
  ASSERT_NE(Victim, nullptr);

  // Forge the victim's hash, as a summary from a binary whose lowering
  // drifted would.
  auto [Key, Summary] = onlySummary(D);
  ASSERT_LT(static_cast<size_t>(Victim->Id), Summary.Entries.size());
  ASSERT_TRUE(Summary.Entries[Victim->Id].Shape);
  Summary.Entries[Victim->Id].Shape->Hash ^= 1;
  {
    auto Store = ResultStore::open(D.str(), kStoreSchemaVersion);
    ASSERT_TRUE(Store->put(Key, encodePhase1Summary(Summary)).ok());
  }

  telemetry::setMetricsEnabled(true);
  telemetry::Counter &Mismatches =
      telemetry::MetricsRegistry::instance().counter(
          "compile.digest_mismatches");
  const uint64_t Before = Mismatches.value();
  auto Warm = cacheOn(D);
  testing::internal::CaptureStderr();
  SearchResult SR = runSweep(dlPair(), Unpruned(Warm));
  const std::string Log = testing::internal::GetCapturedStderr();
  telemetry::setMetricsEnabled(false);

  // The forged hash misses the disk, the lazy lowering disagrees with
  // it, and the candidate retires; nothing is simulated or stored.
  ASSERT_EQ(SR.Failed.size(), 1u);
  EXPECT_EQ(SR.Failed[0].Id, Victim->Id);
  EXPECT_EQ(SR.Failed[0].Err.code(), ErrorCode::Internal);
  EXPECT_EQ(Mismatches.value(), Before + 1);
  EXPECT_NE(Log.find("does not match its phase-1 digest"), std::string::npos)
      << Log;
  auto Want = candidateMap(Cold);
  Want.erase({Victim->Dims, Victim->RegBound});
  EXPECT_EQ(candidateMap(SR), Want);
  EXPECT_EQ(SR.Best.Id, Cold.Best.Id);
  EXPECT_EQ(SR.Best.Cycles, Cold.Best.Cycles);
  CompileCache::Stats S = Warm->stats();
  EXPECT_EQ(S.SummaryHits, 1u);
  EXPECT_EQ(S.FusionRuns, 1u);
  EXPECT_EQ(S.Lowerings, 1u);
  EXPECT_EQ(S.DiskMisses, 1u);
  EXPECT_EQ(S.SimRuns, 0u);
  EXPECT_EQ(S.DiskWrites, 0u);
}

TEST(StoreSummary, LegacyCompileDigestIsNeverRead) {
  TempDir D("legacydigest");
  SearchResult Cold = runSweep(dlPair(), quickOptions(cacheOn(D)));
  ASSERT_TRUE(Cold.Ok) << Cold.Err;

  // Earlier builds kept a compile digest per input kernel under the key
  // ("compile-digest", kernel name, register bound, source hash) and
  // warned when a fresh compile disagreed with it. Forge one per kernel
  // that disagrees with this build.
  {
    auto Store = ResultStore::open(D.str(), kStoreSchemaVersion);
    for (BenchKernelId Id : {dlPair().A, dlPair().B}) {
      ByteWriter Key;
      Key.str("compile-digest");
      Key.str(kernelFunctionName(Id));
      Key.u32(0);
      Key.u64(std::hash<std::string_view>{}(kernelSource(Id)));
      ByteWriter Digest;
      Digest.u64(0x0123456789abcdefull);
      ASSERT_TRUE(Store->put(Key.take(), Digest.take()).ok());
    }
  }

  telemetry::setMetricsEnabled(true);
  telemetry::Counter &Mismatches =
      telemetry::MetricsRegistry::instance().counter(
          "compile.digest_mismatches");
  const uint64_t Before = Mismatches.value();
  auto Warm = cacheOn(D);
  testing::internal::CaptureStderr();
  SearchResult SR = runSweep(dlPair(), quickOptions(Warm));
  const std::string Log = testing::internal::GetCapturedStderr();
  telemetry::setMetricsEnabled(false);

  expectBitIdentical(SR, Cold);
  EXPECT_EQ(ledger(SR), ledger(Cold));
  EXPECT_EQ(Log, "");
  EXPECT_EQ(Mismatches.value(), Before);
  EXPECT_EQ(Warm->stats().SimRuns, 0u);
  EXPECT_EQ(Warm->store()->stats().Quarantined, 0u);
  EXPECT_EQ(recordsTagged(D, "compile-digest").size(), 2u);
}
