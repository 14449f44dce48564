//===-- tests/FusionEquivalenceTest.cpp - Fused == native property --------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's core correctness claim, as a parameterized property test:
/// for every benchmark pair, the horizontally fused kernel (any thread
/// partition, with or without a register bound) and the vertically fused
/// kernel compute the same results as native execution — all verified
/// against CPU references. Exercises partial barriers, thread-space
/// remapping, extern-shared forwarding, and spilled fused kernels.
///
//===----------------------------------------------------------------------===//

#include "kernels/Workload.h"
#include "profile/PairRunner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace hfuse;
using namespace hfuse::gpusim;
using namespace hfuse::kernels;
using namespace hfuse::profile;

namespace {

struct PairCase {
  BenchKernelId A;
  BenchKernelId B;
};

std::vector<PairCase> pairsOf(const std::vector<BenchKernelId> &Ids) {
  std::vector<PairCase> Pairs;
  for (size_t I = 0; I < Ids.size(); ++I)
    for (size_t J = I + 1; J < Ids.size(); ++J)
      Pairs.push_back({Ids[I], Ids[J]});
  return Pairs;
}

std::vector<PairCase> allPairs() {
  std::vector<PairCase> Pairs = pairsOf(deepLearningKernels());
  std::vector<PairCase> Crypto = pairsOf(cryptoKernels());
  Pairs.insert(Pairs.end(), Crypto.begin(), Crypto.end());
  return Pairs;
}

std::string pairName(const testing::TestParamInfo<PairCase> &Info) {
  return std::string(kernelDisplayName(Info.param.A)) + "_" +
         kernelDisplayName(Info.param.B);
}

PairRunner::Options fastOptions() {
  PairRunner::Options Opts;
  Opts.Arch = makeGTX1080Ti();
  Opts.SimSMs = 2;
  Opts.Scales = {0.25};
  Opts.Verify = true;
  return Opts;
}

class FusionEquivalence : public testing::TestWithParam<PairCase> {};

TEST_P(FusionEquivalence, NativeBaselineVerifies) {
  const PairCase &P = GetParam();
  PairRunner R(P.A, P.B, fastOptions());
  ASSERT_TRUE(R.ok()) << R.error();
  SimResult Native = R.runNative();
  EXPECT_TRUE(Native.Ok) << Native.Error;
}

TEST_P(FusionEquivalence, VerticalFusionVerifies) {
  const PairCase &P = GetParam();
  PairRunner R(P.A, P.B, fastOptions());
  ASSERT_TRUE(R.ok()) << R.error();
  SimResult V = R.runVFused();
  EXPECT_TRUE(V.Ok) << V.Error;
}

TEST_P(FusionEquivalence, HorizontalFusionVerifies) {
  const PairCase &P = GetParam();
  PairRunner R(P.A, P.B, fastOptions());
  ASSERT_TRUE(R.ok()) << R.error();

  bool Tunable =
      kernelHasTunableBlockDim(P.A) && kernelHasTunableBlockDim(P.B);
  std::vector<std::pair<int, int>> Partitions;
  if (Tunable) {
    Partitions = {{512, 512}, {768, 256}, {128, 896}};
  } else {
    Partitions = {{256, 256}};
  }
  for (auto [D1, D2] : Partitions) {
    SimResult H = R.runHFused({D1, D2}, /*RegBound=*/0);
    EXPECT_TRUE(H.Ok) << "partition " << D1 << "/" << D2 << ": " << H.Error;
  }
}

TEST_P(FusionEquivalence, HorizontalFusionWithRegBoundVerifies) {
  const PairCase &P = GetParam();
  PairRunner R(P.A, P.B, fastOptions());
  ASSERT_TRUE(R.ok()) << R.error();

  bool Tunable =
      kernelHasTunableBlockDim(P.A) && kernelHasTunableBlockDim(P.B);
  int D1 = Tunable ? 512 : 256;
  int D2 = D1;
  std::optional<unsigned> R0 = R.regBound({D1, D2});
  if (!R0)
    GTEST_SKIP() << "no useful register bound for this pair";
  SimResult H = R.runHFused({D1, D2}, *R0);
  EXPECT_TRUE(H.Ok) << "bound " << *R0 << ": " << H.Error;
}

INSTANTIATE_TEST_SUITE_P(AllPairs, FusionEquivalence,
                         testing::ValuesIn(allPairs()), pairName);

//===----------------------------------------------------------------------===//
// Seeded randomized-partition property sweep
//===----------------------------------------------------------------------===//

std::vector<PairCase> dlPairs() { return pairsOf(deepLearningKernels()); }

class RandomPartitionEquivalence : public testing::TestWithParam<PairCase> {
};

TEST_P(RandomPartitionEquivalence, FusedMatchesReferenceBitForBit) {
  // The Figure 6 sweep only ever visits partitions at a granularity of
  // 128; fusion soundness must not depend on that. Sample ~20 random
  // valid thread-space partitions (any warp multiple the kernels'
  // block shapes admit) per DL pair and check the fused kernel still
  // verifies bit-for-bit against the CPU references — runHFused runs
  // with Options::Verify, which compares every output buffer exactly.
  const PairCase &P = GetParam();
  PairRunner::Options Opts = fastOptions();
  Opts.Scales = {0.2};
  PairRunner R(P.A, P.B, Opts);
  ASSERT_TRUE(R.ok()) << R.error();

  kernels::WorkloadConfig WC;
  auto W1 = kernels::makeWorkload(P.A, WC);
  auto W2 = kernels::makeWorkload(P.B, WC);
  ASSERT_TRUE(W1 && W2);
  const int D0 = 1024; // DL kernels all have tunable block dimensions
  std::vector<int> Valid;
  for (int D1 = 32; D1 < D0; D1 += 32)
    if (D1 % W1->preferredBlockY() == 0 &&
        (D0 - D1) % W2->preferredBlockY() == 0)
      Valid.push_back(D1);
  ASSERT_FALSE(Valid.empty());

  // Deterministic sample: seeded shuffle, first ~20 partitions.
  std::mt19937 Engine(12345u + static_cast<unsigned>(P.A) * 131u +
                      static_cast<unsigned>(P.B));
  std::shuffle(Valid.begin(), Valid.end(), Engine);
  size_t N = std::min<size_t>(20, Valid.size());
  for (size_t I = 0; I < N; ++I) {
    int D1 = Valid[I];
    SimResult H = R.runHFused({D1, D0 - D1}, /*RegBound=*/0);
    EXPECT_TRUE(H.Ok) << "partition " << D1 << "/" << (D0 - D1) << ": "
                      << H.Error;
  }
}

INSTANTIATE_TEST_SUITE_P(DLPairs, RandomPartitionEquivalence,
                         testing::ValuesIn(dlPairs()), pairName);

//===----------------------------------------------------------------------===//
// Figure 6 search smoke test
//===----------------------------------------------------------------------===//

TEST(ConfigSearch, FindsFeasibleBestForDLPair) {
  PairRunner R(BenchKernelId::Batchnorm, BenchKernelId::Hist,
               fastOptions());
  ASSERT_TRUE(R.ok()) << R.error();
  SearchResult SR = R.searchBestConfig();
  ASSERT_TRUE(SR.Ok) << SR.Err;
  // 7 partitions, each possibly with a register-bound variant.
  EXPECT_GE(SR.All.size(), 7u);
  EXPECT_GT(SR.Best.Cycles, 0u);
  for (const FusionCandidate &C : SR.All) {
    EXPECT_EQ(C.Dims[0] + C.Dims[1], 1024);
    EXPECT_EQ(C.Dims[0] % 128, 0);
    EXPECT_GE(C.Cycles, SR.Best.Cycles);
  }
}

TEST(ConfigSearch, CryptoPairsUseEvenSplit) {
  PairRunner R(BenchKernelId::Blake256, BenchKernelId::Blake2B,
               fastOptions());
  ASSERT_TRUE(R.ok()) << R.error();
  SearchResult SR = R.searchBestConfig();
  ASSERT_TRUE(SR.Ok) << SR.Err;
  for (const FusionCandidate &C : SR.All) {
    EXPECT_EQ(C.Dims, (std::vector<int>{256, 256}));
  }
}

TEST(ConfigSearch, NaiveModeSkipsProfiling) {
  PairRunner R(BenchKernelId::Hist, BenchKernelId::Upsample,
               fastOptions());
  ASSERT_TRUE(R.ok()) << R.error();
  SearchResult SR = R.searchBestConfig(/*NaiveEvenSplit=*/true);
  ASSERT_TRUE(SR.Ok) << SR.Err;
  ASSERT_EQ(SR.All.size(), 1u);
  EXPECT_EQ(SR.All[0].Dims[0], 512);
  EXPECT_EQ(SR.All[0].RegBound, 0u);
}

} // namespace
