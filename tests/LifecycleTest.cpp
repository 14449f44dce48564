//===-- tests/LifecycleTest.cpp - Search lifecycle tests ------------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lifecycle of one search, driven through NWayRunner the way hfusec
/// drives it: a cancel fired at every phase (compile, prune, simulate —
/// via the cancel-* fault sites) yields a Partial anytime result whose
/// ledger identity Candidates == All + Pruned + Abandoned + Failed +
/// Unvisited holds, and poisons neither the in-process CompileCache nor
/// the on-disk ResultStore (warm reruns match a clean cold run
/// bit-for-bit); a deadline yields a DeadlineExceeded partial result; a
/// search whose input kernels fail to compile reports it from
/// searchBestConfig() — Partial when cancelled, the failing compile's
/// own Status otherwise — instead of crashing; and the process-wide
/// interrupt (what hfusec's SIGTERM/SIGINT handler sets) cancels a
/// running sweep into its partial result.
///
//===----------------------------------------------------------------------===//

#include "profile/PaperPairs.h"
#include "profile/PairRunner.h"
#include "support/FaultInjector.h"
#include "support/ResultStore.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace hfuse;
using namespace hfuse::gpusim;
using namespace hfuse::kernels;
using namespace hfuse::profile;
namespace fs = std::filesystem;

namespace {

struct TempDir {
  fs::path Path;
  explicit TempDir(const std::string &Tag) {
    Path = fs::temp_directory_path() /
           ("hfuse-lifecycle-test-" + Tag + "-" + std::to_string(::getpid()));
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

/// The representative pair for lifecycle tests (the invariants are
/// search-level, not pair-level).
PaperPair testPair() { return paperPairs().front(); }

std::vector<BenchKernelId> testKernels() {
  return {testPair().A, testPair().B};
}

std::vector<BenchKernelId> cryptoTriple() {
  return {BenchKernelId::Blake256, BenchKernelId::SHA256,
          BenchKernelId::Ethash};
}

NWayRunner::Options quickOptions() {
  NWayRunner::Options Opts;
  Opts.Arch = makeGTX1080Ti();
  Opts.SimSMs = 2;
  Opts.Scales = {0.2};
  Opts.Verify = false;
  Opts.Budget = SearchBudgetMode::Off;
  return Opts;
}

/// One search as hfusec runs it: build the runner, then search, whether
/// or not the constructor succeeded.
SearchResult search(const std::vector<BenchKernelId> &Ids,
                    NWayRunner::Options Opts) {
  NWayRunner Runner(Ids, std::move(Opts));
  return Runner.searchBestConfig();
}

std::map<std::pair<std::vector<int>, unsigned>, uint64_t>
candidateMap(const SearchResult &SR) {
  std::map<std::pair<std::vector<int>, unsigned>, uint64_t> M;
  for (const FusionCandidate &C : SR.All)
    M[{C.Dims, C.RegBound}] = C.Cycles;
  return M;
}

void expectBitIdentical(const SearchResult &A, const SearchResult &B) {
  EXPECT_EQ(A.Best.Dims, B.Best.Dims);
  EXPECT_EQ(A.Best.RegBound, B.Best.RegBound);
  EXPECT_EQ(A.Best.Cycles, B.Best.Cycles);
  EXPECT_EQ(candidateMap(A), candidateMap(B));
  EXPECT_EQ(A.Pruned.size(), B.Pruned.size());
  EXPECT_EQ(A.Stats.Candidates, B.Stats.Candidates);
}

/// The accounting identity every run — complete or partial — must
/// satisfy: each enumerated candidate lands in exactly one bucket.
void expectLedgerIntact(const SearchResult &SR) {
  EXPECT_EQ(SR.Stats.Candidates,
            static_cast<unsigned>(SR.All.size()) + SR.Stats.Pruned +
                SR.Stats.Abandoned + SR.Stats.Failed + SR.Stats.Unvisited);
  EXPECT_EQ(SR.Unvisited.size(), SR.Stats.Unvisited);
  EXPECT_EQ(SR.Pruned.size(), SR.Stats.Pruned);
  EXPECT_EQ(SR.Abandoned.size(), SR.Stats.Abandoned);
}

/// Polls until \p Pred holds or ~60s pass (handshakes only — never
/// used to paper over a correctness race).
template <typename PredT> bool waitFor(PredT Pred) {
  for (int I = 0; I < 60000; ++I) {
    if (Pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Pred();
}

} // namespace

TEST(Lifecycle, CancelAtEveryPhaseIsPartialWithIntactLedgerAndNoPoison) {
  InjectorGuard G;

  // Clean reference, computed once storeless.
  SearchResult Ref = search(testKernels(), quickOptions());
  ASSERT_TRUE(Ref.Ok) << Ref.Err;

  // nth picks a mid-phase firing point where one exists: compile and
  // prune cancel on their first candidate; simulate after a few
  // measurements so a best-so-far incumbent survives.
  const char *Faults[] = {"cancel-compile:nth=1", "cancel-prune:nth=1",
                          "cancel-simulate:nth=3"};
  for (const char *Fault : Faults) {
    SCOPED_TRACE(Fault);
    TempDir D(std::string("cancel-") +
              std::string(Fault).substr(0, std::string(Fault).find(':')));

    auto Cache = std::make_shared<CompileCache>();
    {
      auto Store = ResultStore::open(D.str(), kStoreSchemaVersion);
      ASSERT_TRUE(Store);
      Cache->attachStore(Store);
    }
    NWayRunner::Options Opts = quickOptions();
    Opts.Cache = Cache;

    ASSERT_TRUE(FaultInjector::instance().configure(Fault));
    SearchResult SR = search(testKernels(), Opts);
    FaultInjector::instance().reset();

    EXPECT_TRUE(SR.Partial);
    EXPECT_EQ(SR.PartialReason.code(), ErrorCode::Cancelled);
    EXPECT_GT(SR.Stats.Unvisited, 0u);
    expectLedgerIntact(SR);

    // No poisoned CompileCache entries: the same in-process cache must
    // now produce the complete clean answer.
    SearchResult Rerun = search(testKernels(), Opts);
    ASSERT_TRUE(Rerun.Ok) << Rerun.Err;
    EXPECT_FALSE(Rerun.Partial);
    expectBitIdentical(Rerun, Ref);
    expectLedgerIntact(Rerun);

    // No poisoned ResultStore records: a brand-new process image (fresh
    // cache, reopened store) also matches the clean run, and no record
    // it read was quarantined.
    auto WarmCache = std::make_shared<CompileCache>();
    {
      auto Store = ResultStore::open(D.str(), kStoreSchemaVersion);
      ASSERT_TRUE(Store);
      WarmCache->attachStore(Store);
    }
    NWayRunner::Options WarmOpts = quickOptions();
    WarmOpts.Cache = WarmCache;
    SearchResult Warm = search(testKernels(), WarmOpts);
    ASSERT_TRUE(Warm.Ok) << Warm.Err;
    EXPECT_FALSE(Warm.Partial);
    expectBitIdentical(Warm, Ref);
    EXPECT_EQ(WarmCache->store()->stats().Quarantined, 0u);
  }
}

TEST(Lifecycle, DeadlineYieldsPartialWithDeadlineReason) {
  NWayRunner::Options Opts = quickOptions();
  // Expires before the first candidate resolves, possibly while the
  // search still compiles the input kernels.
  Opts.Cancel = CancellationToken::withDeadlineMs(1);
  SearchResult SR = search(testKernels(), Opts);
  EXPECT_TRUE(SR.Partial);
  EXPECT_EQ(SR.PartialReason.code(), ErrorCode::DeadlineExceeded);
  expectLedgerIntact(SR);
}

TEST(Lifecycle, CancelDuringInputCompilationIsPartial) {
  // A token fired before the search starts stops it while it compiles
  // its input kernels — the window a 1 ms deadline hits on a slow host.
  // That is an anytime result with an empty ledger, for a pair and for
  // an N-way search alike, not a search failure.
  NWayRunner::Options Opts = quickOptions();
  Opts.Cache = std::make_shared<CompileCache>();

  Opts.Cancel = CancellationToken::make();
  Opts.Cancel.cancel();
  SearchResult P = search(testKernels(), Opts);
  EXPECT_FALSE(P.Ok);
  EXPECT_TRUE(P.Partial);
  EXPECT_EQ(P.PartialReason.code(), ErrorCode::Cancelled);
  EXPECT_EQ(P.Stats.Candidates, 0u);
  expectLedgerIntact(P);

  Opts.Cancel = CancellationToken::make();
  Opts.Cancel.cancel();
  SearchResult T = search(cryptoTriple(), Opts);
  EXPECT_TRUE(T.Partial);
  EXPECT_EQ(T.PartialReason.code(), ErrorCode::Cancelled);
  EXPECT_EQ(T.Stats.Candidates, 0u);
}

TEST(Lifecycle, CompileFailureBeforeSearchKeepsItsStatusNotPartial) {
  // Every input compile fails (a private cache, so nothing is served
  // from an earlier test). The runner compiles nothing when it is
  // built, so it starts ok(); its search compiles the inputs first and
  // reports the compile's own failure, the injected transient
  // CodegenError, with 0 candidates, and the runner is then !ok(). It
  // is not an anytime result, and no run id is spent on it.
  InjectorGuard G;
  ASSERT_TRUE(FaultInjector::instance().configure("compile"));
  auto Check = [](const SearchResult &SR) {
    EXPECT_FALSE(SR.Ok);
    EXPECT_FALSE(SR.Partial);
    EXPECT_EQ(SR.Err.code(), ErrorCode::CodegenError);
    EXPECT_TRUE(SR.Err.transient());
    EXPECT_EQ(SR.Stats.Candidates, 0u);
    EXPECT_TRUE(SR.RunId.empty());
    expectLedgerIntact(SR);
  };
  for (const std::vector<BenchKernelId> &Ids :
       {testKernels(), cryptoTriple()}) {
    NWayRunner::Options Opts = quickOptions();
    Opts.Cache = std::make_shared<CompileCache>();
    NWayRunner Runner(Ids, Opts);
    EXPECT_TRUE(Runner.ok());
    Check(Runner.searchBestConfig());
    EXPECT_FALSE(Runner.ok());
    EXPECT_NE(Runner.error().find("injected fault"), std::string::npos)
        << Runner.error();
  }
  // The pair view's own search, full and naive.
  NWayRunner::Options Opts = quickOptions();
  Opts.Cache = std::make_shared<CompileCache>();
  PairRunner Pair(testPair().A, testPair().B, Opts);
  EXPECT_TRUE(Pair.ok());
  Check(Pair.searchBestConfig());
  EXPECT_FALSE(Pair.ok());
  Check(Pair.searchBestConfig(/*NaiveEvenSplit=*/true));
  EXPECT_FALSE(Pair.ok());
}

// Keep this test LAST: interruptAll() latches a process-wide flag with
// no un-set, so every live token made after it reports cancelled. ctest
// runs each case in its own process; a direct run of this binary runs
// the cases in file order.
TEST(Lifecycle, ZZInterruptCancelsARunningSearchIntoPartial) {
  ASSERT_FALSE(CancellationToken::interrupted());
  NWayRunner::Options Opts = quickOptions();
  Opts.Scales = {1.0}; // full scale: the sweep outlasts the handshake
  Opts.Cache = std::make_shared<CompileCache>();
  NWayRunner Runner(testKernels(), Opts);
  ASSERT_TRUE(Runner.ok()) << Runner.error();

  // What hfusec's SIGTERM/SIGINT handler does, once the sweep is
  // simulating candidates.
  std::thread Interrupter([&] {
    waitFor([&] { return Opts.Cache->stats().SimRuns > 0; });
    CancellationToken::interruptAll();
  });
  SearchResult SR = Runner.searchBestConfig();
  Interrupter.join();

  EXPECT_TRUE(CancellationToken::interrupted());
  EXPECT_TRUE(SR.Partial);
  EXPECT_EQ(SR.PartialReason.code(), ErrorCode::Cancelled);
  EXPECT_GT(SR.Stats.Unvisited, 0u);
  expectLedgerIntact(SR);

  // Every live token reports cancelled from now on; an empty one stays
  // inert.
  CancellationToken Later = CancellationToken::make();
  EXPECT_TRUE(Later.cancelled());
  EXPECT_EQ(Later.status().code(), ErrorCode::Cancelled);
  EXPECT_FALSE(CancellationToken().cancelled());
}
