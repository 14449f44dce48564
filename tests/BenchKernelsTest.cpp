//===-- tests/BenchKernelsTest.cpp - Benchmark kernel validation ----------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates the nine paper benchmark kernels end to end: each kernel
/// compiles, launches, and produces outputs matching its CPU reference
/// (parameterized over all kernels and both simulated GPUs). Also checks
/// the compiled kernels' resource characteristics (register pressure,
/// shared memory) are in realistic ranges.
///
//===----------------------------------------------------------------------===//

#include "gpusim/Simulator.h"
#include "ir/RegAlloc.h"
#include "kernels/Workload.h"
#include "profile/Compile.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace hfuse;
using namespace hfuse::gpusim;
using namespace hfuse::kernels;
using namespace hfuse::profile;

namespace {

struct KernelCase {
  BenchKernelId Id;
  bool Volta;
};

std::string caseName(const testing::TestParamInfo<KernelCase> &Info) {
  return std::string(kernelDisplayName(Info.param.Id)) +
         (Info.param.Volta ? "_V100" : "_1080Ti");
}

class BenchKernelTest : public testing::TestWithParam<KernelCase> {};

TEST_P(BenchKernelTest, MatchesReference) {
  const KernelCase &Case = GetParam();
  DiagnosticEngine Diags;
  auto K = compileBenchKernel(Case.Id, /*RegBound=*/0, Diags);
  ASSERT_NE(K, nullptr) << Diags.str();

  SimConfig SC;
  SC.Arch = Case.Volta ? makeV100() : makeGTX1080Ti();
  SC.SimSMs = 2;
  Simulator Sim(SC);

  WorkloadConfig WC;
  WC.SimSMs = SC.SimSMs;
  WC.SizeScale = 0.5; // keep unit tests fast
  auto W = makeWorkload(Case.Id, WC);
  W->setup(Sim);
  W->clearOutputs(Sim);

  KernelLaunch L;
  L.Kernel = K->IR.get();
  L.GridDim = W->preferredGrid();
  L.BlockDim = W->preferredBlock();
  L.DynSharedBytes = W->dynSharedBytes();
  L.Params = W->params();
  SimResult R = Sim.run({L});
  ASSERT_TRUE(R.Ok) << R.Error;

  std::string Err;
  EXPECT_TRUE(W->verify(Sim, L.GridDim * L.BlockDim, Err)) << Err;
  EXPECT_GT(R.TotalCycles, 0u);
  EXPECT_GT(R.TotalIssued, 0u);
}

std::vector<KernelCase> allCases() {
  std::vector<KernelCase> Cases;
  for (BenchKernelId Id : allKernels()) {
    Cases.push_back({Id, false});
    Cases.push_back({Id, true});
  }
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, BenchKernelTest,
                         testing::ValuesIn(allCases()), caseName);

//===----------------------------------------------------------------------===//
// Resource characteristics
//===----------------------------------------------------------------------===//

TEST(BenchKernels, RegisterPressureIsRealistic) {
  DiagnosticEngine Diags;
  for (BenchKernelId Id : allKernels()) {
    auto K = compileBenchKernel(Id, 0, Diags);
    ASSERT_NE(K, nullptr) << kernelDisplayName(Id) << "\n" << Diags.str();
    EXPECT_GE(K->IR->ArchRegsPerThread, 10u) << kernelDisplayName(Id);
    EXPECT_LE(K->IR->ArchRegsPerThread, 200u) << kernelDisplayName(Id);
    EXPECT_EQ(K->IR->LocalBytes, 0u)
        << kernelDisplayName(Id) << ": unbounded compile must not spill";
  }
}

TEST(BenchKernels, CryptoKernelsNeedMoreRegistersThanDL) {
  DiagnosticEngine Diags;
  auto Blake = compileBenchKernel(BenchKernelId::Blake2B, 0, Diags);
  auto Pool = compileBenchKernel(BenchKernelId::Maxpool, 0, Diags);
  ASSERT_NE(Blake, nullptr);
  ASSERT_NE(Pool, nullptr);
  EXPECT_GT(Blake->IR->ArchRegsPerThread, Pool->IR->ArchRegsPerThread);
}

TEST(BenchKernels, SharedMemoryUsage) {
  DiagnosticEngine Diags;
  auto BN = compileBenchKernel(BenchKernelId::Batchnorm, 0, Diags);
  ASSERT_NE(BN, nullptr) << Diags.str();
  // 32 floats mean + 32 floats var + 32 ints count.
  EXPECT_EQ(BN->IR->StaticSharedBytes, 3u * 32 * 4);
  EXPECT_FALSE(BN->IR->UsesDynamicShared);

  auto H = compileBenchKernel(BenchKernelId::Hist, 0, Diags);
  ASSERT_NE(H, nullptr) << Diags.str();
  EXPECT_EQ(H->IR->StaticSharedBytes, 0u);
  EXPECT_TRUE(H->IR->UsesDynamicShared);
}

TEST(BenchKernels, SpillFrameHoldsOnlySimultaneouslyLiveSpills) {
  // SHA256 at r32 spills thousands of short-lived values; packing their
  // slots by liveness keeps the frame far below one slot per spill.
  DiagnosticEngine Diags;
  auto K = compileBenchKernel(BenchKernelId::SHA256, 0, Diags);
  ASSERT_NE(K, nullptr) << Diags.str();
  auto IR = lowerFunctionNoRegAlloc(*K->Pre->Ctx, K->Pre->Kernel, Diags);
  ASSERT_NE(IR, nullptr) << Diags.str();
  ir::RegAllocResult RA = ir::allocateRegisters(*IR, 32);
  ASSERT_TRUE(RA.Ok) << RA.Error;
  EXPECT_GT(RA.NumSpilled, 0u);
  EXPECT_LT(RA.SpillBytes, RA.NumSpilled * 8);
  EXPECT_EQ(IR->LocalBytes, RA.SpillBytes);
}

TEST(BenchKernels, CryptoKernelsVerifyWithPackedSpillFramesAtR32) {
  // The bounded Figure 6 arm of every crypto pair: spilled values that
  // share a local slot must never clobber each other.
  for (BenchKernelId Id : {BenchKernelId::Ethash, BenchKernelId::SHA256,
                           BenchKernelId::Blake256, BenchKernelId::Blake2B}) {
    DiagnosticEngine Diags;
    auto K = compileBenchKernel(Id, 32, Diags);
    ASSERT_NE(K, nullptr) << kernelDisplayName(Id) << "\n" << Diags.str();
    EXPECT_LE(K->IR->ArchRegsPerThread, 32u) << kernelDisplayName(Id);
    EXPECT_LE(K->IR->LocalBytes, 512u) << kernelDisplayName(Id);

    SimConfig SC;
    SC.Arch = makeGTX1080Ti();
    SC.SimSMs = 2;
    Simulator Sim(SC);
    WorkloadConfig WC;
    WC.SimSMs = SC.SimSMs;
    WC.SizeScale = 0.2;
    auto W = makeWorkload(Id, WC);
    W->setup(Sim);
    W->clearOutputs(Sim);
    KernelLaunch L;
    L.Kernel = K->IR.get();
    L.GridDim = W->preferredGrid();
    L.BlockDim = W->preferredBlock();
    L.BlockDimY = W->preferredBlockY();
    L.DynSharedBytes = W->dynSharedBytes();
    L.Params = W->params();
    SimResult R = Sim.run({L}, StatsLevel::Minimal);
    ASSERT_TRUE(R.Ok) << kernelDisplayName(Id) << ": " << R.Error;
    std::string Err;
    EXPECT_TRUE(W->verify(Sim, L.GridDim * W->preferredBlockThreads(), Err))
        << kernelDisplayName(Id) << ": " << Err;
  }
}

TEST(BenchKernels, EthashVerifiesWithItsDagOnlyInSimulatorMemory) {
  // The 4 MB DAG is generated straight into the simulator's arena; the
  // workload keeps no host copy, and verify() regenerates the reference
  // DAG from the seed instead of reading the arena back.
  DiagnosticEngine Diags;
  auto K = compileBenchKernel(BenchKernelId::Ethash, 0, Diags);
  ASSERT_NE(K, nullptr) << Diags.str();
  SimConfig SC;
  SC.Arch = makeGTX1080Ti();
  SC.SimSMs = 1;
  Simulator Sim(SC);
  WorkloadConfig WC;
  WC.SimSMs = 1;
  WC.SizeScale = 0.25;
  auto W = makeWorkload(BenchKernelId::Ethash, WC);
  W->setup(Sim);
  KernelLaunch L;
  L.Kernel = K->IR.get();
  L.GridDim = W->preferredGrid();
  L.BlockDim = W->preferredBlock();
  L.Params = W->params();
  auto RunAndVerify = [&] {
    W->clearOutputs(Sim);
    SimResult R = Sim.run({L});
    EXPECT_TRUE(R.Ok) << R.Error;
    std::string Err;
    return W->verify(Sim, L.GridDim * L.BlockDim, Err);
  };
  EXPECT_TRUE(RunAndVerify());
  // A kernel reading a different DAG must fail verification.
  const uint64_t DagBase = L.Params[1], DagWords = L.Params[2];
  std::memset(Sim.globalMem().data() + DagBase, 0x5A, DagWords * 4);
  EXPECT_FALSE(RunAndVerify());
}

TEST(BenchKernels, EthashIsMemoryBoundCryptoAreComputeBound) {
  SimConfig SC;
  SC.Arch = makeGTX1080Ti();
  SC.SimSMs = 2;

  auto RunOne = [&](BenchKernelId Id) {
    DiagnosticEngine Diags;
    auto K = compileBenchKernel(Id, 0, Diags);
    EXPECT_NE(K, nullptr) << Diags.str();
    Simulator Sim(SC);
    WorkloadConfig WC;
    WC.SimSMs = SC.SimSMs;
    WC.SizeScale = 0.5;
    auto W = makeWorkload(Id, WC);
    W->setup(Sim);
    W->clearOutputs(Sim);
    KernelLaunch L;
    L.Kernel = K->IR.get();
    L.GridDim = W->preferredGrid();
    L.BlockDim = W->preferredBlock();
    L.DynSharedBytes = W->dynSharedBytes();
    L.Params = W->params();
    SimResult R = Sim.run({L});
    EXPECT_TRUE(R.Ok) << R.Error;
    return R;
  };

  SimResult Ethash = RunOne(BenchKernelId::Ethash);
  SimResult Blake = RunOne(BenchKernelId::Blake256);
  // Paper Figure 8: Ethash ~96% memory stalls, Blake256 ~1%.
  EXPECT_GT(Ethash.DeviceMemStallPct, 60.0);
  EXPECT_LT(Blake.DeviceMemStallPct, 15.0);
  EXPECT_GT(Blake.DeviceIssueSlotUtilPct, Ethash.DeviceIssueSlotUtilPct);
}

} // namespace
