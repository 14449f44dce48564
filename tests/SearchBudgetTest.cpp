//===-- tests/SearchBudgetTest.cpp - Incumbent-budgeted search ------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The result-preservation contract of the incumbent-driven
/// branch-and-bound search (Options::Budget == Incumbent): for all 16
/// paper pairs, on quick workloads, across SearchJobs 1 and 4, the
/// budgeted search must return the bit-identical Best config and Best
/// cycle count as the exhaustive sweep. The invariant behind it — a
/// candidate abandoned at the incumbent budget has strictly more
/// cycles than the incumbent and can never be Best, while every
/// candidate at or below the incumbent (ties included) completes with
/// exact cycles — is checked structurally too: survivors carry the
/// exhaustive sweep's cycles, abandoned candidates are exactly the
/// exhaustive candidates above the incumbent, and the accounting
/// (measured + pruned + abandoned = enumerated) closes.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "profile/PairRunner.h"
#include "support/FaultInjector.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <map>

using namespace hfuse;
using namespace hfuse::bench;
using namespace hfuse::gpusim;
using namespace hfuse::kernels;
using namespace hfuse::profile;

namespace {

/// One compilation cache across all cases (the nine input kernels
/// repeat across the 16 pairs).
std::shared_ptr<CompileCache> testCache() {
  static std::shared_ptr<CompileCache> Cache =
      std::make_shared<CompileCache>();
  return Cache;
}

PairRunner::Options quickOptions() {
  PairRunner::Options Opts;
  Opts.Arch = makeGTX1080Ti();
  Opts.SimSMs = 2;
  Opts.Scales = {0.2};
  Opts.Verify = false;
  Opts.Cache = testCache();
  return Opts;
}

std::map<std::pair<std::vector<int>, unsigned>, uint64_t>
candidateMap(const SearchResult &SR) {
  std::map<std::pair<std::vector<int>, unsigned>, uint64_t> M;
  for (const FusionCandidate &C : SR.All)
    M[{C.Dims, C.RegBound}] = C.Cycles;
  return M;
}

SearchResult runSearch(const BenchPair &P, SearchBudgetMode Budget,
                       int Jobs) {
  PairRunner::Options Opts = quickOptions();
  Opts.Budget = Budget;
  Opts.SearchJobs = Jobs;
  PairRunner R(P.A, P.B, Opts);
  EXPECT_TRUE(R.ok()) << R.error();
  SearchResult SR = R.searchBestConfig();
  EXPECT_TRUE(SR.Ok) << SR.Err;
  return SR;
}

/// The full ledger: every measured, abandoned (with budget and issued
/// instructions) and failed candidate, by canonical id.
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

std::string caseName(const testing::TestParamInfo<BenchPair> &Info) {
  return std::string(kernelDisplayName(Info.param.A)) + "_" +
         kernelDisplayName(Info.param.B);
}

class SearchBudget : public testing::TestWithParam<BenchPair> {};

TEST_P(SearchBudget, BitIdenticalBestAcrossBudgetModesAndJobs) {
  const BenchPair &P = GetParam();
  SearchResult Off = runSearch(P, SearchBudgetMode::Off, 1);
  if (!Off.Ok)
    return;
  auto Exhaustive = candidateMap(Off);

  std::vector<std::string> SerialLedger;
  for (int Jobs : {1, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    SearchResult Bud = runSearch(P, SearchBudgetMode::Incumbent, Jobs);
    if (!Bud.Ok)
      continue;

    // At 4 jobs followers overlap the seed behind the incumbent fence;
    // each must end exactly as under the seed's fixed cycle count, so
    // the whole ledger — abandoned budgets and issued counts included —
    // equals the serial sweep's.
    if (Jobs == 1)
      SerialLedger = ledger(Bud);
    else
      EXPECT_EQ(ledger(Bud), SerialLedger);

    // The headline contract: bit-identical Best config and cycles.
    EXPECT_EQ(Bud.Best.Dims, Off.Best.Dims);
    EXPECT_EQ(Bud.Best.RegBound, Off.Best.RegBound);
    EXPECT_EQ(Bud.Best.Cycles, Off.Best.Cycles);

    // The incumbent came from a completed candidate of the sweep.
    ASSERT_NE(Bud.Stats.IncumbentCycles, 0u);
    EXPECT_GE(Bud.Stats.IncumbentCycles, Bud.Best.Cycles);

    // Every budgeted survivor measured the exhaustive sweep's exact
    // cycles, and everything at or below the incumbent survived.
    auto Measured = candidateMap(Bud);
    for (const auto &[Key, Cycles] : Measured) {
      auto It = Exhaustive.find(Key);
      ASSERT_NE(It, Exhaustive.end());
      EXPECT_EQ(It->second, Cycles);
    }
    for (const auto &[Key, Cycles] : Exhaustive)
      if (Cycles <= Bud.Stats.IncumbentCycles)
        EXPECT_TRUE(Measured.count(Key))
            << "candidate within the incumbent was not measured";

    // Abandoned candidates are exactly the ones the exhaustive sweep
    // measured above the incumbent — never the winner.
    EXPECT_EQ(Measured.size() + Bud.Abandoned.size(), Exhaustive.size());
    for (const AbandonedCandidate &A : Bud.Abandoned) {
      auto It = Exhaustive.find({A.Dims, A.RegBound});
      ASSERT_NE(It, Exhaustive.end());
      EXPECT_GT(It->second, Bud.Stats.IncumbentCycles);
      EXPECT_EQ(A.BudgetCycles, Bud.Stats.IncumbentCycles);
    }

    // Accounting closes and the instruction counters are consistent.
    EXPECT_EQ(Bud.Stats.Candidates,
              Bud.All.size() + Bud.Pruned.size() + Bud.Abandoned.size());
    EXPECT_EQ(Bud.Stats.Abandoned, Bud.Abandoned.size());
    EXPECT_LE(Bud.Stats.AbandonedInsts, Bud.Stats.SimulatedInsts);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPaperPairs, SearchBudget,
                         testing::ValuesIn(paperPairs()), caseName);

//===----------------------------------------------------------------------===//
// Determinism of the budgeted sweep across worker counts
//===----------------------------------------------------------------------===//

TEST(SearchBudgetDeterminism, AbandonmentSetIdenticalAcrossJobs) {
  // Every follower ends exactly as it would under the seed's fixed
  // cycle count, whether it started before the seed finished (gated by
  // the incumbent fence) or after. So not just Best but the whole
  // measured/abandoned split, the abandoned instruction counts and the
  // work done must be identical across SearchJobs. (Every paper pair's
  // ledger is compared the same way in
  // BitIdenticalBestAcrossBudgetModesAndJobs.)
  BenchPair P{BenchKernelId::Batchnorm, BenchKernelId::Hist};
  SearchResult A = runSearch(P, SearchBudgetMode::Incumbent, 1);
  SearchResult B = runSearch(P, SearchBudgetMode::Incumbent, 4);
  if (!A.Ok || !B.Ok)
    return;
  EXPECT_EQ(A.Stats.IncumbentCycles, B.Stats.IncumbentCycles);
  EXPECT_EQ(ledger(A), ledger(B));
  EXPECT_EQ(A.Stats.SimulatedInsts, B.Stats.SimulatedInsts);
  EXPECT_EQ(A.Stats.AbandonedInsts, B.Stats.AbandonedInsts);
}

TEST(SearchBudgetDeterminism, FailedSeedLedgerIdenticalAcrossJobs) {
  // Wedge the seed: its simulation deadlocks, the fence fails, every
  // follower that ran gated by it is discarded, and the sweep goes on
  // with the next-best seed. The result must be the serial ledger.
  BenchPair P{BenchKernelId::Batchnorm, BenchKernelId::Upsample};
  SearchResult Clean = runSearch(P, SearchBudgetMode::Incumbent, 1);
  ASSERT_TRUE(Clean.Ok) << Clean.Err;
  const FusionCandidate *Seed = nullptr;
  for (const FusionCandidate &C : Clean.All)
    if (C.Cycles == Clean.Stats.IncumbentCycles)
      Seed = &C;
  ASSERT_NE(Seed, nullptr);
  std::string Label = dimsLabel(Seed->Dims) +
                      (Seed->RegBound
                           ? formatString(",r%u)", Seed->RegBound)
                           : std::string(")"));

  auto Wedged = [&](int Jobs) {
    std::string Err;
    EXPECT_TRUE(FaultInjector::instance().configure("sim-wedge:label=" + Label,
                                                    &Err))
        << Err;
    PairRunner::Options Opts = quickOptions();
    Opts.Budget = SearchBudgetMode::Incumbent;
    Opts.SearchJobs = Jobs;
    // A private cache: a memoized clean run of the seed would dodge
    // the wedge.
    Opts.Cache = std::make_shared<CompileCache>();
    PairRunner R(P.A, P.B, Opts);
    EXPECT_TRUE(R.ok()) << R.error();
    SearchResult SR = R.searchBestConfig();
    FaultInjector::instance().reset();
    return SR;
  };
  SearchResult Serial = Wedged(1);
  SearchResult Parallel = Wedged(4);
  ASSERT_TRUE(Serial.Ok) << Serial.Err;
  ASSERT_EQ(Serial.Failed.size(), 1u);
  EXPECT_EQ(Serial.Failed[0].Id, Seed->Id);
  EXPECT_NE(Serial.Stats.IncumbentCycles, Clean.Stats.IncumbentCycles);
  EXPECT_EQ(ledger(Serial), ledger(Parallel));
  EXPECT_EQ(Serial.Stats.IncumbentCycles, Parallel.Stats.IncumbentCycles);
  EXPECT_EQ(Serial.Best.Id, Parallel.Best.Id);
  EXPECT_EQ(Serial.Stats.Candidates,
            Parallel.All.size() + Parallel.Pruned.size() +
                Parallel.Abandoned.size() + Parallel.Failed.size());
}

} // namespace
