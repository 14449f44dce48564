//===-- tests/ServiceTest.cpp - Request lifecycle tests -------------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lifecycle tests for service::SearchService: a no-deadline request is
/// bit-identical to calling PairRunner::searchBestConfig directly; a
/// cancel fired at every phase (compile, prune, simulate — via the
/// cancel-* fault sites) yields a Partial anytime result whose ledger
/// identity Candidates == All + Pruned + Abandoned + Failed + Unvisited
/// holds, and poisons neither the in-process CompileCache nor the
/// on-disk ResultStore (warm reruns match a clean cold run
/// bit-for-bit); identical concurrent requests join one in-flight
/// execution; admission beyond the bounded queue is rejected with
/// QueueFull; and shutdown() evicts the queue, cancels in-flight work
/// down to its anytime result, and leaves the service rejecting.
///
//===----------------------------------------------------------------------===//

#include "profile/PaperPairs.h"
#include "profile/PairRunner.h"
#include "service/SearchService.h"
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
using namespace hfuse::service;
namespace fs = std::filesystem;

namespace {

struct TempDir {
  fs::path Path;
  explicit TempDir(const std::string &Tag) {
    Path = fs::temp_directory_path() /
           ("hfuse-service-test-" + Tag + "-" + std::to_string(::getpid()));
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
/// service-level, not pair-level).
PaperPair testPair() { return paperPairs().front(); }

PairRunner::Options quickOptions() {
  PairRunner::Options Opts;
  Opts.Arch = makeGTX1080Ti();
  Opts.SimSMs = 2;
  Opts.Scales = {0.2};
  Opts.Verify = false;
  Opts.Budget = SearchBudgetMode::Off;
  return Opts;
}

SearchRequest quickRequest() {
  SearchRequest R;
  R.Kernels = {testPair().A, testPair().B};
  R.Runner = quickOptions();
  return R;
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

/// Polls until \p Pred holds or ~5s pass (lifecycle handshakes only —
/// never used to paper over a correctness race).
template <typename PredT> bool waitFor(PredT Pred) {
  for (int I = 0; I < 5000; ++I) {
    if (Pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Pred();
}

} // namespace

TEST(ServiceTest, NoLifecycleRequestIsBitIdenticalToDirectRunner) {
  // Direct call — the pre-service reference path.
  PairRunner Runner(testPair().A, testPair().B, quickOptions());
  ASSERT_TRUE(Runner.ok()) << Runner.error();
  SearchResult Direct = Runner.searchBestConfig();
  ASSERT_TRUE(Direct.Ok) << Direct.Error;

  // Through the service: no deadline, no token, no fault site armed.
  SearchService::Config SC;
  SC.Workers = 1;
  SearchService Svc(SC);
  Expected<SearchOutcome> Out = Svc.search(quickRequest());
  ASSERT_TRUE(Out) << Out.status().message();
  const SearchResult &SR = Out->Search;
  ASSERT_TRUE(SR.Ok) << SR.Error;
  EXPECT_FALSE(SR.Partial);
  EXPECT_EQ(SR.Stats.Unvisited, 0u);
  expectBitIdentical(SR, Direct);
  expectLedgerIntact(SR);

  SearchService::Stats St = Svc.stats();
  EXPECT_EQ(St.Admitted, 1u);
  EXPECT_EQ(St.Completed, 1u);
  EXPECT_EQ(St.Partial, 0u);
  EXPECT_EQ(St.Deduped, 0u);
}

TEST(ServiceTest, CancelAtEveryPhaseIsPartialWithIntactLedgerAndNoPoison) {
  InjectorGuard G;

  // Clean reference, computed once storeless.
  PairRunner RefRunner(testPair().A, testPair().B, quickOptions());
  ASSERT_TRUE(RefRunner.ok()) << RefRunner.error();
  SearchResult Ref = RefRunner.searchBestConfig();
  ASSERT_TRUE(Ref.Ok) << Ref.Error;

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
    SearchService::Config SC;
    SC.Workers = 1;
    SC.Cache = Cache;
    SearchService Svc(SC);

    ASSERT_TRUE(FaultInjector::instance().configure(Fault));
    Expected<SearchOutcome> Out = Svc.search(quickRequest());
    FaultInjector::instance().reset();

    // A cancelled search *ran*: the verdict lives in the outcome, not
    // in the Expected.
    ASSERT_TRUE(Out) << Out.status().message();
    const SearchResult &SR = Out->Search;
    EXPECT_TRUE(SR.Partial);
    EXPECT_EQ(SR.PartialReason.code(), ErrorCode::Cancelled);
    EXPECT_GT(SR.Stats.Unvisited, 0u);
    expectLedgerIntact(SR);
    EXPECT_EQ(Svc.stats().Partial, 1u);

    // No poisoned CompileCache entries: the same in-process cache must
    // now produce the complete clean answer.
    Expected<SearchOutcome> Rerun = Svc.search(quickRequest());
    ASSERT_TRUE(Rerun) << Rerun.status().message();
    ASSERT_TRUE(Rerun->Search.Ok) << Rerun->Search.Error;
    EXPECT_FALSE(Rerun->Search.Partial);
    expectBitIdentical(Rerun->Search, Ref);
    expectLedgerIntact(Rerun->Search);

    // No poisoned ResultStore records: a brand-new process image (fresh
    // cache, reopened store) also matches the clean run, and nothing
    // was quarantined.
    auto WarmCache = std::make_shared<CompileCache>();
    {
      auto Store = ResultStore::open(D.str(), kStoreSchemaVersion);
      ASSERT_TRUE(Store);
      EXPECT_EQ(Store->stats().Quarantined, 0u);
      WarmCache->attachStore(Store);
    }
    SearchService::Config WC;
    WC.Workers = 1;
    WC.Cache = WarmCache;
    SearchService WarmSvc(WC);
    Expected<SearchOutcome> Warm = WarmSvc.search(quickRequest());
    ASSERT_TRUE(Warm) << Warm.status().message();
    ASSERT_TRUE(Warm->Search.Ok) << Warm->Search.Error;
    EXPECT_FALSE(Warm->Search.Partial);
    expectBitIdentical(Warm->Search, Ref);
  }
}

TEST(ServiceTest, DeadlineYieldsPartialWithDeadlineReason) {
  SearchService::Config SC;
  SC.Workers = 1;
  SearchService Svc(SC);
  SearchRequest R = quickRequest();
  R.DeadlineMs = 1; // expires before the first candidate resolves
  Expected<SearchOutcome> Out = Svc.search(R);
  ASSERT_TRUE(Out) << Out.status().message();
  EXPECT_TRUE(Out->Search.Partial);
  EXPECT_EQ(Out->Search.PartialReason.code(), ErrorCode::DeadlineExceeded);
  expectLedgerIntact(Out->Search);
}

TEST(ServiceTest, CancelDuringInputCompilationIsPartial) {
  // A token fired before search() stops the request while the runner
  // compiles its input kernels — the window a 1 ms deadline hits on a
  // slow host. That is an anytime result with an empty ledger, for a
  // pair and for an N-way request alike, not a search failure.
  SearchService::Config SC;
  SC.Workers = 1;
  SC.Cache = std::make_shared<CompileCache>();
  SearchService Svc(SC);

  SearchRequest Pair = quickRequest();
  Pair.Cancel = CancellationToken::make();
  Pair.Cancel.cancel();
  Expected<SearchOutcome> P = Svc.search(Pair);
  ASSERT_TRUE(P) << P.status().message();
  EXPECT_FALSE(P->Search.Ok);
  EXPECT_TRUE(P->Search.Partial);
  EXPECT_EQ(P->Search.PartialReason.code(), ErrorCode::Cancelled);
  EXPECT_EQ(P->Search.Stats.Candidates, 0u);
  expectLedgerIntact(P->Search);

  SearchRequest Triple = quickRequest();
  Triple.Kernels = {BenchKernelId::Blake256, BenchKernelId::SHA256,
                    BenchKernelId::Ethash};
  Triple.Cancel = CancellationToken::make();
  Triple.Cancel.cancel();
  Expected<SearchOutcome> T = Svc.search(Triple);
  ASSERT_TRUE(T) << T.status().message();
  EXPECT_TRUE(T->Search.Partial);
  EXPECT_EQ(T->Search.PartialReason.code(), ErrorCode::Cancelled);
  EXPECT_EQ(T->Search.Stats.Candidates, 0u);
}

TEST(ServiceTest, IdenticalConcurrentRequestsJoinOneExecution) {
  SearchService::Config SC;
  SC.Workers = 1;
  SC.Cache = std::make_shared<CompileCache>();
  SearchService Svc(SC);

  // First request on its own thread; once stats() shows it admitted,
  // its in-flight dedup entry is published (same critical section).
  Expected<SearchOutcome> OutA = Status::success();
  std::thread A([&] { OutA = Svc.search(quickRequest()); });
  ASSERT_TRUE(waitFor([&] { return Svc.stats().Admitted >= 1; }));

  // Identical request (no token, no deadline) joins A's execution
  // instead of queueing a second run.
  Expected<SearchOutcome> OutB = Svc.search(quickRequest());
  A.join();

  ASSERT_TRUE(OutA) << OutA.status().message();
  ASSERT_TRUE(OutB) << OutB.status().message();
  ASSERT_TRUE(OutA->Search.Ok) << OutA->Search.Error;
  expectBitIdentical(OutA->Search, OutB->Search);

  SearchService::Stats St = Svc.stats();
  // The joiner either deduped (the expected path) or — if A finished
  // first — ran its own execution; both are correct, but the dedup
  // counter must account for exactly the joins that happened.
  EXPECT_EQ(St.Admitted + St.Deduped, 2u);
  EXPECT_GE(St.Deduped, St.Admitted == 1 ? 1u : 0u);
}

TEST(ServiceTest, AdmissionBeyondBoundedQueueIsRejectedQueueFull) {
  SearchService::Config SC;
  SC.Workers = 1;
  SC.MaxQueue = 0; // nothing may wait
  SearchService Svc(SC);

  // Long-running occupant: full-scale request, cancellable so the test
  // does not pay for its completion.
  SearchRequest Long = quickRequest();
  Long.Runner.Scales = {1.0};
  Long.Cancel = CancellationToken::make();
  Expected<SearchOutcome> OutA = Status::success();
  std::thread A([&] { OutA = Svc.search(Long); });
  ASSERT_TRUE(waitFor([&] { return Svc.stats().Admitted >= 1; }));

  // Non-dedupable identical request (it has a deadline, hence a
  // private lifecycle) would have to wait -> deterministic QueueFull.
  SearchRequest R = quickRequest();
  R.DeadlineMs = 3600000;
  Expected<SearchOutcome> OutB = Svc.search(R);
  ASSERT_FALSE(OutB);
  EXPECT_EQ(OutB.status().code(), ErrorCode::QueueFull);
  EXPECT_TRUE(OutB.status().transient());
  EXPECT_EQ(Svc.stats().RejectedFull, 1u);

  // Cut the occupant short; its anytime result comes back intact.
  Long.Cancel.cancel();
  A.join();
  ASSERT_TRUE(OutA) << OutA.status().message();
  expectLedgerIntact(OutA->Search);
}

TEST(ServiceTest, ShutdownEvictsQueueCancelsInFlightAndRejectsAfter) {
  SearchService::Config SC;
  SC.Workers = 1;
  SC.MaxQueue = 4;
  SC.DrainGraceMs = 0;
  SearchService Svc(SC);

  // Occupant A executing, B admitted and queued behind it.
  SearchRequest Long = quickRequest();
  Long.Runner.Scales = {1.0};
  Expected<SearchOutcome> OutA = Status::success();
  Expected<SearchOutcome> OutB = Status::success();
  std::thread A([&] { OutA = Svc.search(Long); });
  ASSERT_TRUE(waitFor([&] { return Svc.stats().Admitted >= 1; }));
  SearchRequest Queued = quickRequest();
  Queued.DeadlineMs = 3600000; // non-dedupable: must queue, not join
  std::thread B([&] { OutB = Svc.search(Queued); });
  ASSERT_TRUE(waitFor([&] { return Svc.stats().Admitted >= 2; }));

  Svc.shutdown();
  A.join();
  B.join();

  // B never ran: evicted from the queue with a Cancelled verdict.
  ASSERT_FALSE(OutB);
  EXPECT_EQ(OutB.status().code(), ErrorCode::Cancelled);

  // A wound down to its anytime result (Partial unless it beat the
  // drain to the finish line); either way the ledger is intact.
  ASSERT_TRUE(OutA) << OutA.status().message();
  expectLedgerIntact(OutA->Search);
  if (OutA->Search.Partial)
    EXPECT_EQ(OutA->Search.PartialReason.code(), ErrorCode::Cancelled);

  // The drained service admits nothing further.
  EXPECT_TRUE(Svc.shuttingDown());
  Expected<SearchOutcome> After = Svc.search(quickRequest());
  ASSERT_FALSE(After);
  EXPECT_EQ(After.status().code(), ErrorCode::Cancelled);
  EXPECT_GE(Svc.stats().RejectedDrain, 2u);
}

TEST(ServiceTest, WatchingServiceDestructsWithoutWaitingForAPollTick) {
  // The signal watcher polls the shutdown flag every 20 ms, but the
  // destructor wakes it at once: every hfusec --search builds and tears
  // down one such service, so a whole poll tick per exit would show up
  // in every request's wall time.
  ASSERT_FALSE(SearchService::shutdownRequested());
  double DestroyMs = 0;
  for (int I = 0; I < 20; ++I) {
    SearchService::Config SC;
    SC.Workers = 1;
    SC.WatchSignals = true;
    auto Svc = std::make_unique<SearchService>(SC);
    // Let the watcher reach its poll wait, as it has in any real run.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_FALSE(Svc->shuttingDown());
    auto Start = std::chrono::steady_clock::now();
    Svc.reset();
    DestroyMs += std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
  }
  EXPECT_LT(DestroyMs, 100.0);
}

// Keep this test LAST: requestShutdown() latches a process-wide flag
// with no un-set, so every WatchSignals service constructed after it
// drains immediately.
TEST(ServiceTest, ZZShutdownRequestFlagDrainsWatchingServices) {
  ASSERT_FALSE(SearchService::shutdownRequested());
  SearchService::Config SC;
  SC.Workers = 1;
  SC.WatchSignals = true;
  SearchService Svc(SC);
  EXPECT_FALSE(Svc.shuttingDown());

  SearchService::requestShutdown(); // what the SIGTERM handler does
  EXPECT_TRUE(SearchService::shutdownRequested());
  ASSERT_TRUE(waitFor([&] { return Svc.shuttingDown(); }));

  Expected<SearchOutcome> Out = Svc.search(quickRequest());
  ASSERT_FALSE(Out);
  EXPECT_EQ(Out.status().code(), ErrorCode::Cancelled);
}
