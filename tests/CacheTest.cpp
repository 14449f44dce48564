//===-- tests/CacheTest.cpp - L2 sector cache model tests -----------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the SectorCache (set-associative LRU over 32B
/// sectors), its integration with MemorySystem pricing, and end-to-end
/// behaviour of SimConfig::ModelL2: reuse-heavy access streams hit,
/// streaming/cache-hostile streams do not, and a hit-heavy kernel runs
/// faster with the cache than without. This is the fidelity study
/// behind `bench_ablation_cache` (DESIGN.md known-divergence #1).
///
//===----------------------------------------------------------------------===//

#include "gpusim/MemorySystem.h"
#include "gpusim/SectorCache.h"
#include "gpusim/Simulator.h"
#include "profile/Compile.h"
#include "profile/PairRunner.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

using namespace hfuse;
using namespace hfuse::gpusim;
using namespace hfuse::kernels;
using namespace hfuse::profile;

//===----------------------------------------------------------------------===//
// SectorCache unit
//===----------------------------------------------------------------------===//

TEST(SectorCache, MissThenHit) {
  SectorCache C(/*CapacityBytes=*/4096, /*Assoc=*/4, /*SectorBytes=*/32);
  ASSERT_TRUE(C.enabled());
  EXPECT_FALSE(C.access(100));
  EXPECT_TRUE(C.access(100));
  EXPECT_TRUE(C.contains(100));
  EXPECT_FALSE(C.contains(101));
  EXPECT_EQ(C.hits(), 1u);
  EXPECT_EQ(C.misses(), 1u);
}

TEST(SectorCache, GeometryRoundsToPowerOfTwoSets) {
  // 4096 / (4 * 32) = 32 sets exactly.
  SectorCache A(4096, 4, 32);
  EXPECT_EQ(A.numSets(), 32u);
  // 3000 / 128 = 23.4 -> 16 sets.
  SectorCache B(3000, 4, 32);
  EXPECT_EQ(B.numSets(), 16u);
}

TEST(SectorCache, ZeroCapacityDisables) {
  SectorCache C(0, 16, 32);
  EXPECT_FALSE(C.enabled());
  EXPECT_FALSE(C.access(7));
  EXPECT_FALSE(C.contains(7));
  EXPECT_EQ(C.misses(), 1u);
}

TEST(SectorCache, LruEvictsOldestWay) {
  // One-set cache: 4 ways of 32B = 128 bytes.
  SectorCache C(128, 4, 32);
  ASSERT_EQ(C.numSets(), 1u);
  for (uint64_t S = 0; S < 4; ++S)
    EXPECT_FALSE(C.access(S));
  // Touch 0 to make it MRU; 1 becomes LRU.
  EXPECT_TRUE(C.access(0));
  // A fifth sector evicts 1, not 0.
  EXPECT_FALSE(C.access(99));
  EXPECT_TRUE(C.contains(0));
  EXPECT_FALSE(C.contains(1));
  EXPECT_TRUE(C.contains(2));
  EXPECT_TRUE(C.contains(3));
  EXPECT_TRUE(C.contains(99));
}

TEST(SectorCache, WorkingSetWithinCapacityAlwaysHitsOnSecondPass) {
  // Fully covered working set: second pass must be 100% hits.
  SectorCache C(64 * 1024, 16, 32);
  const unsigned N = 1024; // 32 KB < 64 KB capacity
  for (uint64_t S = 0; S < N; ++S)
    C.access(S);
  uint64_t HitsBefore = C.hits();
  for (uint64_t S = 0; S < N; ++S)
    EXPECT_TRUE(C.access(S)) << "sector " << S;
  EXPECT_EQ(C.hits() - HitsBefore, uint64_t(N));
}

TEST(SectorCache, StreamLargerThanCapacityThrashes) {
  SectorCache C(4096, 4, 32); // 128 sectors
  const unsigned N = 4096;    // 32x the capacity
  for (int Pass = 0; Pass < 2; ++Pass)
    for (uint64_t S = 0; S < N; ++S)
      C.access(S);
  // LRU + working set >> capacity: second pass hits nothing.
  EXPECT_EQ(C.hits(), 0u);
  EXPECT_EQ(C.misses(), uint64_t(2 * N));
}

TEST(SectorCache, ResetDropsContentsAndStats) {
  SectorCache C(4096, 4, 32);
  C.access(1);
  C.access(1);
  C.reset();
  EXPECT_EQ(C.hits(), 0u);
  EXPECT_EQ(C.misses(), 0u);
  EXPECT_FALSE(C.contains(1));
}

//===----------------------------------------------------------------------===//
// MemorySystem + L2 pricing
//===----------------------------------------------------------------------===//

TEST(MemorySystemL2, HitsBypassDramQueueAndLatency) {
  MemorySystem M(/*BytesPerCycle=*/1.0, /*BaseLatency=*/400,
                 /*SectorBytes=*/32);
  SectorCache L2(64 * 1024, 16, 32);
  M.setL2(&L2, /*HitLatency=*/200);

  uint64_t Sectors[4] = {10, 11, 12, 13};
  unsigned Misses = 0;
  // Cold: all four sectors go to DRAM (32 cycles each at 1 B/cycle).
  uint64_t T0 = M.schedule(0, Sectors, 4, Misses);
  EXPECT_EQ(Misses, 4u);
  EXPECT_EQ(T0, uint64_t(4 * 32 + 400));
  uint64_t HeadAfterCold = M.headCycle();

  // Warm: pure hits complete at the hit latency and leave DRAM alone.
  uint64_t T1 = M.schedule(1000, Sectors, 4, Misses);
  EXPECT_EQ(Misses, 0u);
  EXPECT_EQ(T1, uint64_t(1000 + 200));
  EXPECT_EQ(M.headCycle(), HeadAfterCold);
}

TEST(MemorySystemL2, MixedAccessPaysSlowestSector) {
  MemorySystem M(1.0, 400, 32);
  SectorCache L2(64 * 1024, 16, 32);
  M.setL2(&L2, 200);

  uint64_t Warm[2] = {5, 6};
  unsigned Misses = 0;
  M.schedule(0, Warm, 2, Misses);

  uint64_t Mixed[3] = {5, 6, 777};
  uint64_t T = M.schedule(100, Mixed, 3, Misses);
  EXPECT_EQ(Misses, 1u);
  // One miss: DRAM head was 64 from the cold pass; the miss sector
  // begins at max(100, 64) = 100, takes 32 cycles + 400 latency.
  EXPECT_EQ(T, uint64_t(100 + 32 + 400));
}

TEST(MemorySystemL2, DetachedBehavesLikeDramOnly) {
  MemorySystem M(1.0, 400, 32);
  uint64_t Sectors[2] = {1, 2};
  unsigned Misses = 0;
  uint64_t T = M.schedule(0, Sectors, 2, Misses);
  EXPECT_EQ(Misses, 2u);
  EXPECT_EQ(T, uint64_t(2 * 32 + 400));
}

//===----------------------------------------------------------------------===//
// End-to-end: ModelL2 on the simulator
//===----------------------------------------------------------------------===//

namespace {

/// Every block re-reads the same small table many times: with an L2 the
/// re-reads hit; without it every pass pays DRAM.
const char *ReuseSource = R"(
__global__ void reuse_sum(float *out, const float *table, int tsize,
                          int passes) {
  float acc = 0.0f;
  for (int p = 0; p < passes; p++) {
    for (int i = threadIdx.x; i < tsize; i += blockDim.x) {
      acc += table[i];
    }
  }
  out[blockIdx.x * blockDim.x + threadIdx.x] = acc;
}
)";

SimConfig cacheConfig(bool ModelL2) {
  SimConfig C;
  C.Arch = makeGTX1080Ti();
  C.SimSMs = 2;
  C.ModelL2 = ModelL2;
  return C;
}

SimResult runReuse(bool ModelL2, double &HitRate) {
  DiagnosticEngine Diags;
  auto K = compileSource(ReuseSource, "", 0, Diags);
  EXPECT_NE(K, nullptr) << Diags.str();

  Simulator Sim(cacheConfig(ModelL2));
  const int TSize = 2048, Grid = 8, Block = 256, Passes = 6;
  std::vector<float> Table(TSize, 0.5f);
  uint64_t TableBase = Sim.allocGlobal(TSize * 4);
  uint64_t OutBase = Sim.allocGlobal(size_t(Grid) * Block * 4);
  std::memcpy(Sim.globalMem().data() + TableBase, Table.data(), TSize * 4);

  KernelLaunch L;
  L.Kernel = K->IR.get();
  L.GridDim = Grid;
  L.BlockDim = Block;
  L.Params = {OutBase, TableBase, uint64_t(TSize), uint64_t(Passes)};
  SimResult R = Sim.run({L});
  EXPECT_TRUE(R.Ok) << R.Error;
  HitRate = R.Kernels.empty() ? 0.0 : R.Kernels[0].L2HitRatePct;

  // Functional check: acc = passes * tsize/block elements * 0.5 each.
  float Want = 0.5f * Passes * (TSize / Block);
  float Got;
  std::memcpy(&Got, Sim.globalMem().data() + OutBase, 4);
  EXPECT_FLOAT_EQ(Got, Want);
  return R;
}

} // namespace

TEST(SimL2, ReuseKernelHitsAndSpeedsUp) {
  double HitOn = 0.0, HitOff = 0.0;
  SimResult On = runReuse(true, HitOn);
  SimResult Off = runReuse(false, HitOff);
  ASSERT_TRUE(On.Ok && Off.Ok);

  // The 8 KB table fits the (scaled) L2 with room to spare; everything
  // after the first pass hits.
  EXPECT_GT(HitOn, 60.0);
  EXPECT_EQ(HitOff, 0.0);
  EXPECT_LT(On.TotalCycles, Off.TotalCycles);
}

TEST(SimL2, MetricsCountSectors) {
  double Hit = 0.0;
  SimResult R = runReuse(true, Hit);
  ASSERT_TRUE(R.Ok);
  // 6 passes x 2048 floats / 8 per sector = 1536 load sectors per
  // block x 8 blocks, plus one output sector per warp.
  EXPECT_GT(R.Kernels[0].GlobalSectors, 8u * 1500u);
}

TEST(SimL2, OffByDefault) {
  SimConfig C;
  EXPECT_FALSE(C.ModelL2);
  double Hit = 1.0;
  SimResult R = runReuse(false, Hit);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(Hit, 0.0);
}

//===----------------------------------------------------------------------===//
// Compile/simulation caching under the budgeted search
//===----------------------------------------------------------------------===//

namespace {

PairRunner::Options budgetCacheOptions() {
  PairRunner::Options Opts;
  Opts.Arch = makeGTX1080Ti();
  Opts.SimSMs = 2;
  Opts.Scales = {0.2};
  Opts.Verify = false;
  Opts.Prune = false; // pin the full candidate set
  Opts.Budget = SearchBudgetMode::Incumbent;
  Opts.Cache = std::make_shared<CompileCache>();
  return Opts;
}

} // namespace

TEST(BudgetedSearchCache, CompileCountsMatchTheUnbudgetedSweep) {
  // The budget cuts simulation, never compilation: phase 1 lowers
  // every candidate before any cycle budget exists, so the compile-side
  // counters pin to the same values as the exhaustive sweep.
  PairRunner::Options Opts = budgetCacheOptions();
  PairRunner R(BenchKernelId::Batchnorm, BenchKernelId::Hist, Opts);
  ASSERT_TRUE(R.ok()) << R.error();
  SearchResult SR = R.searchBestConfig();
  ASSERT_TRUE(SR.Ok) << SR.Err;
  ASSERT_GT(SR.Stats.Abandoned, 0u); // the budget actually fired

  CompileCache::Stats S = Opts.Cache->stats();
  EXPECT_EQ(S.KernelCompiles, 2u);
  EXPECT_EQ(S.FusionRuns, 7u); // one per partition (1024/128 - 1)
  // One register allocation per candidate, abandoned ones included.
  EXPECT_EQ(S.Lowerings,
            static_cast<uint64_t>(SR.All.size()) + SR.Stats.Abandoned);
  // Every candidate simulated exactly once (abandoned runs count: they
  // executed until the cutoff); nothing replayed from the memo.
  EXPECT_EQ(S.SimRuns, static_cast<uint64_t>(SR.Stats.Simulations));
  EXPECT_EQ(S.SimRuns,
            static_cast<uint64_t>(SR.All.size()) + SR.Stats.Abandoned);
  EXPECT_EQ(S.SimMemoHits, 0u);
}

TEST(BudgetedSearchCache, AbortedRunDoesNotPoisonTheSimulationMemo) {
  // Regression: an abandoned candidate's BudgetExceeded result may be
  // replayed only for callers at least as budget-tight — a later
  // unbudgeted run of the same candidate must retire the stored abort,
  // simulate for real, and return the true full result.
  PairRunner::Options Opts = budgetCacheOptions();
  PairRunner R(BenchKernelId::Batchnorm, BenchKernelId::Hist, Opts);
  ASSERT_TRUE(R.ok()) << R.error();
  SearchResult SR = R.searchBestConfig();
  ASSERT_TRUE(SR.Ok) << SR.Err;
  ASSERT_FALSE(SR.Abandoned.empty());
  const AbandonedCandidate &A = SR.Abandoned.front();
  CompileCache::Stats Before = Opts.Cache->stats();

  // Unbudgeted run of the abandoned candidate on the same runner: the
  // memo must miss (the abort was never stored) and the simulation must
  // run to completion, past the cycle the budget cut it at.
  SimResult Full = R.runHFused(A.Dims, A.RegBound);
  ASSERT_TRUE(Full.Ok) << Full.Error;
  EXPECT_FALSE(Full.BudgetExceeded);
  EXPECT_GT(Full.TotalCycles, A.BudgetCycles);
  CompileCache::Stats After = Opts.Cache->stats();
  EXPECT_EQ(After.SimRuns, Before.SimRuns + 1);
  EXPECT_EQ(After.SimMemoHits, Before.SimMemoHits);

  // And it matches a fresh runner that never had a budget.
  PairRunner::Options Clean = budgetCacheOptions();
  Clean.Budget = SearchBudgetMode::Off;
  PairRunner R2(BenchKernelId::Batchnorm, BenchKernelId::Hist, Clean);
  ASSERT_TRUE(R2.ok()) << R2.error();
  SimResult Ref = R2.runHFused(A.Dims, A.RegBound);
  ASSERT_TRUE(Ref.Ok) << Ref.Error;
  EXPECT_EQ(Full.TotalCycles, Ref.TotalCycles);
  EXPECT_EQ(Full.TotalIssued, Ref.TotalIssued);

  // Completed candidates, by contrast, stay memoized: re-running the
  // winner replays the stored result without a new simulation.
  Before = Opts.Cache->stats();
  SimResult Win = R.runHFused(SR.Best.Dims, SR.Best.RegBound);
  ASSERT_TRUE(Win.Ok) << Win.Error;
  EXPECT_EQ(Win.TotalCycles, SR.Best.Cycles);
  After = Opts.Cache->stats();
  EXPECT_EQ(After.SimRuns, Before.SimRuns);
  EXPECT_EQ(After.SimMemoHits, Before.SimMemoHits + 1);
}

TEST(BudgetedSearchCache, MemoizedFullResultDecidesAbandonmentForFree) {
  // The converse of the poisoning rule: a *completed* result in the
  // memo is valid under any budget — if its cycles exceed the budget,
  // the candidate is abandoned without a simulator run (the exact
  // decision a budgeted simulation would have reached). Pre-run both
  // crypto candidates unbudgeted, then search with the budget on: the
  // whole sweep must come out of the memo, zero new simulations, with
  // the slow bounded variant abandoned at zero instruction cost.
  PairRunner::Options Opts = budgetCacheOptions();
  PairRunner R(BenchKernelId::Ethash, BenchKernelId::SHA256, Opts);
  ASSERT_TRUE(R.ok()) << R.error();
  SimResult U = R.runHFused({256, 256}, 0);
  ASSERT_TRUE(U.Ok) << U.Error;
  auto R0 = R.regBound({256, 256});
  ASSERT_TRUE(R0.has_value());
  SimResult B = R.runHFused({256, 256}, *R0);
  ASSERT_TRUE(B.Ok) << B.Error;
  ASSERT_GT(B.TotalCycles, U.TotalCycles); // the bound is the slow one
  CompileCache::Stats Before = Opts.Cache->stats();

  SearchResult SR = R.searchBestConfig();
  ASSERT_TRUE(SR.Ok) << SR.Err;
  CompileCache::Stats After = Opts.Cache->stats();
  EXPECT_EQ(After.SimRuns, Before.SimRuns); // nothing simulated anew
  EXPECT_EQ(SR.Stats.Simulations, 0u);
  EXPECT_EQ(SR.Stats.SimulatedInsts, 0u);
  EXPECT_EQ(SR.Best.Cycles, U.TotalCycles);
  ASSERT_EQ(SR.Abandoned.size(), 1u);
  EXPECT_EQ(SR.Abandoned[0].RegBound, *R0);
  EXPECT_EQ(SR.Abandoned[0].IssuedInsts, 0u); // decided from the memo
  EXPECT_EQ(SR.Stats.AbandonedInsts, 0u);
}
