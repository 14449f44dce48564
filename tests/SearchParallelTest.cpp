//===-- tests/SearchParallelTest.cpp - Parallel search determinism --------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the parallel, cached, pruned Figure 6 search pipeline:
///
///  - the parallel search returns bit-identical results to the serial
///    search (same Best, same All set modulo order);
///  - occupancy pruning never drops the serial winner on the
///    seed benchmark pairs, and only ever removes candidates that the
///    unpruned search also measured;
///  - the compile cache collapses the per-candidate recompilation: one
///    front-end compile per input kernel, one fusion per partition
///    (not per register variant), and memoized simulations for
///    identical launches;
///  - the ThreadPool underneath runs every submitted index exactly
///    once.
///
//===----------------------------------------------------------------------===//

#include "profile/PairRunner.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>

using namespace hfuse;
using namespace hfuse::gpusim;
using namespace hfuse::kernels;
using namespace hfuse::profile;

namespace {

PairRunner::Options tinyOptions() {
  PairRunner::Options Opts;
  Opts.Arch = makeGTX1080Ti();
  Opts.SimSMs = 2;
  Opts.Scales = {0.2};
  Opts.Verify = false;
  return Opts;
}

/// (D1, D2, RegBound) -> Cycles for set comparisons modulo order.
std::map<std::pair<std::vector<int>, unsigned>, uint64_t>
candidateMap(const SearchResult &SR) {
  std::map<std::pair<std::vector<int>, unsigned>, uint64_t> M;
  for (const FusionCandidate &C : SR.All)
    M[{C.Dims, C.RegBound}] = C.Cycles;
  return M;
}

void expectSameBest(const SearchResult &A, const SearchResult &B) {
  EXPECT_EQ(A.Best.Dims, B.Best.Dims);
  EXPECT_EQ(A.Best.RegBound, B.Best.RegBound);
  EXPECT_EQ(A.Best.Cycles, B.Best.Cycles);
}

TEST(ParallelSearch, IdenticalToSerial) {
  PairRunner::Options Serial = tinyOptions();
  Serial.SearchJobs = 1;
  PairRunner RS(BenchKernelId::Batchnorm, BenchKernelId::Hist, Serial);
  ASSERT_TRUE(RS.ok()) << RS.error();
  SearchResult SerialSR = RS.searchBestConfig();
  ASSERT_TRUE(SerialSR.Ok) << SerialSR.Err;

  PairRunner::Options Par = tinyOptions();
  Par.SearchJobs = 4;
  PairRunner RP(BenchKernelId::Batchnorm, BenchKernelId::Hist, Par);
  ASSERT_TRUE(RP.ok()) << RP.error();
  SearchResult ParSR = RP.searchBestConfig();
  ASSERT_TRUE(ParSR.Ok) << ParSR.Err;

  expectSameBest(SerialSR, ParSR);
  EXPECT_EQ(candidateMap(SerialSR), candidateMap(ParSR));
  EXPECT_EQ(SerialSR.Pruned.size(), ParSR.Pruned.size());
}

TEST(ParallelSearch, DefaultPruningNeverDropsSerialWinner) {
  for (auto [A, B] : {std::pair{BenchKernelId::Batchnorm, BenchKernelId::Hist},
                      std::pair{BenchKernelId::Ethash, BenchKernelId::SHA256}}) {
    PairRunner::Options NoPrune = tinyOptions();
    NoPrune.Prune = false;
    PairRunner RU(A, B, NoPrune);
    ASSERT_TRUE(RU.ok()) << RU.error();
    SearchResult Unpruned = RU.searchBestConfig();
    ASSERT_TRUE(Unpruned.Ok) << Unpruned.Err;
    EXPECT_TRUE(Unpruned.Pruned.empty());

    PairRunner::Options WithPrune = tinyOptions(); // pruning on
    WithPrune.SearchJobs = 4; // prune decisions must not depend on timing
    PairRunner RP(A, B, WithPrune);
    ASSERT_TRUE(RP.ok()) << RP.error();
    SearchResult Pruned = RP.searchBestConfig();
    ASSERT_TRUE(Pruned.Ok) << Pruned.Err;

    expectSameBest(Unpruned, Pruned);

    // Every survivor measured the same cycles as in the unpruned sweep.
    auto Full = candidateMap(Unpruned);
    for (const auto &[Key, Cycles] : candidateMap(Pruned)) {
      auto It = Full.find(Key);
      ASSERT_NE(It, Full.end());
      EXPECT_EQ(It->second, Cycles);
    }
    EXPECT_EQ(Pruned.All.size() + Pruned.Stats.Pruned, Unpruned.All.size());
  }
}

TEST(CompileCacheCounts, OneFusionPerPartitionOneCompilePerKernel) {
  PairRunner::Options Opts = tinyOptions();
  Opts.Prune = false; // measure the full sweep
  Opts.Cache = std::make_shared<CompileCache>();
  PairRunner R(BenchKernelId::Batchnorm, BenchKernelId::Hist, Opts);
  ASSERT_TRUE(R.ok()) << R.error();
  SearchResult SR = R.searchBestConfig();
  ASSERT_TRUE(SR.Ok) << SR.Err;

  CompileCache::Stats S = Opts.Cache->stats();
  // Both input kernels compiled exactly once, front to back.
  EXPECT_EQ(S.KernelCompiles, 2u);
  // One fusion + codegen per partition — NOT one per (partition, bound):
  // the bounded and unbounded profiling arms share the AST-level work.
  unsigned Partitions = 7; // 1024/128 - 1
  EXPECT_EQ(S.FusionRuns, Partitions);
  // One register allocation per distinct (partition, bound).
  EXPECT_EQ(S.Lowerings, static_cast<uint64_t>(SR.All.size()));
  // Every simulated candidate ran exactly once; the sweep already runs
  // at full stats, so the winner is never simulated again.
  EXPECT_EQ(S.SimRuns, static_cast<uint64_t>(SR.All.size()));
  EXPECT_EQ(S.SimMemoHits, 0u);
}

TEST(CompileCacheCounts, RepeatedRunIsMemoized) {
  PairRunner::Options Opts = tinyOptions();
  Opts.Cache = std::make_shared<CompileCache>();
  PairRunner R(BenchKernelId::Im2Col, BenchKernelId::Upsample, Opts);
  ASSERT_TRUE(R.ok()) << R.error();

  SimResult First = R.runHFused({512, 512}, 0);
  ASSERT_TRUE(First.Ok) << First.Error;
  SimResult Second = R.runHFused({512, 512}, 0);
  ASSERT_TRUE(Second.Ok) << Second.Error;
  EXPECT_EQ(First.TotalCycles, Second.TotalCycles);

  CompileCache::Stats S = Opts.Cache->stats();
  EXPECT_EQ(S.SimRuns, 1u);
  EXPECT_EQ(S.SimMemoHits, 1u);

  // A bound at/above the natural allocation lowers to the identical
  // kernel; the cache aliases it and the simulation memo replays the
  // stored result — no new simulator run.
  unsigned Natural = First.Kernels[0].RegsPerThread;
  SimResult Bounded = R.runHFused({512, 512}, Natural + 32);
  ASSERT_TRUE(Bounded.Ok) << Bounded.Error;
  EXPECT_EQ(Bounded.TotalCycles, First.TotalCycles);
  S = Opts.Cache->stats();
  EXPECT_EQ(S.SimRuns, 1u);
  EXPECT_EQ(S.SimMemoHits, 2u);
}

TEST(CompileCacheCounts, SharedAcrossRunners) {
  auto Cache = std::make_shared<CompileCache>();
  PairRunner::Options Opts = tinyOptions();
  Opts.Cache = Cache;
  PairRunner R1(BenchKernelId::Batchnorm, BenchKernelId::Hist, Opts);
  PairRunner R2(BenchKernelId::Batchnorm, BenchKernelId::Upsample, Opts);
  // Construction compiles nothing; the first call that needs the
  // inputs does.
  EXPECT_EQ(Cache->stats().KernelCompiles, 0u);
  EXPECT_GT(R1.soloRegs(0), 0u);
  EXPECT_GT(R2.soloRegs(0), 0u);
  ASSERT_TRUE(R1.ok());
  ASSERT_TRUE(R2.ok());
  CompileCache::Stats S = Cache->stats();
  // Batchnorm compiled once, shared by both runners.
  EXPECT_EQ(S.KernelCompiles, 3u);
  EXPECT_EQ(S.KernelHits, 1u);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool Pool(4);
  constexpr size_t N = 1000;
  std::vector<std::atomic<int>> Counts(N);
  parallelFor(&Pool, N, [&](size_t I) { Counts[I].fetch_add(1); });
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Counts[I].load(), 1) << "index " << I;
}

TEST(ThreadPoolTest, InlineFallbackWithoutPool) {
  std::vector<int> Hits(16, 0);
  parallelFor(nullptr, Hits.size(), [&](size_t I) { Hits[I]++; });
  EXPECT_EQ(std::count(Hits.begin(), Hits.end(), 1),
            static_cast<long>(Hits.size()));
}

TEST(ThreadPoolTest, ReusableAcrossWaves) {
  ThreadPool Pool(3);
  std::atomic<int> Sum{0};
  for (int Wave = 0; Wave < 5; ++Wave) {
    for (int I = 0; I < 20; ++I)
      Pool.submit([&Sum] { Sum.fetch_add(1); });
    Pool.wait();
  }
  EXPECT_EQ(Sum.load(), 100);
}

TEST(KernelNames, LookupByName) {
  EXPECT_EQ(kernelIdByName("batchnorm"), BenchKernelId::Batchnorm);
  EXPECT_EQ(kernelIdByName("Batchnorm"), BenchKernelId::Batchnorm);
  EXPECT_EQ(kernelIdByName("kernel_histogram1d"), BenchKernelId::Hist);
  EXPECT_EQ(kernelIdByName("sha256"), BenchKernelId::SHA256);
  EXPECT_EQ(kernelIdByName("batchnorm2d"), BenchKernelId::Batchnorm2D);
  EXPECT_FALSE(kernelIdByName("no_such_kernel").has_value());
}

} // namespace
