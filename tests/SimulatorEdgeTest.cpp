//===-- tests/SimulatorEdgeTest.cpp - Simulator failure-path tests --------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Failure-injection and edge-case tests of the GPU simulator: deadlock
/// detection (the #1 hazard of partial barriers), launch validation,
/// out-of-bounds detection, barrier phase reuse, warp-exit interaction
/// with full-block barriers, and determinism.
///
//===----------------------------------------------------------------------===//

#include "codegen/CodeGen.h"
#include "gpusim/Simulator.h"
#include "ir/RegAlloc.h"
#include "transform/Pipeline.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace hfuse;
using namespace hfuse::gpusim;

namespace {

std::unique_ptr<ir::IRKernel> compile(const char *Source) {
  DiagnosticEngine Diags;
  auto Pre = transform::parseAndPreprocess(Source, "", Diags);
  EXPECT_NE(Pre, nullptr) << Diags.str();
  if (!Pre)
    return nullptr;
  auto K = codegen::compileKernel(Pre->Kernel, Diags);
  EXPECT_NE(K, nullptr) << Diags.str();
  if (!K)
    return nullptr;
  ir::RegAllocResult RA = ir::allocateRegisters(*K, 0);
  EXPECT_TRUE(RA.Ok) << RA.Error;
  return K;
}

SimConfig smallConfig() {
  SimConfig C;
  C.Arch = makeGTX1080Ti();
  C.SimSMs = 1;
  C.MaxCycles = 4 * 1000 * 1000;
  return C;
}

TEST(SimEdge, PartialBarrierDeadlockDetected) {
  // Only 64 threads ever reach a barrier expecting 128 arrivals, and
  // the other 64 threads spin at a different barrier: a deadlock the
  // simulator must detect rather than hang.
  auto K = compile("__global__ void dead(int *a) {\n"
                   "  if (threadIdx.x < 64u) {\n"
                   "    asm(\"bar.sync 1, 128;\");\n"
                   "    a[threadIdx.x] = 1;\n"
                   "  } else {\n"
                   "    asm(\"bar.sync 2, 128;\");\n"
                   "    a[threadIdx.x] = 2;\n"
                   "  }\n"
                   "}\n");
  ASSERT_NE(K, nullptr);
  Simulator Sim(smallConfig());
  uint64_t A = Sim.allocGlobal(128 * 4);
  KernelLaunch L;
  L.Kernel = K.get();
  L.GridDim = 1;
  L.BlockDim = 128;
  L.Params = {A};
  SimResult R = Sim.run({L});
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Deadlock);
  EXPECT_NE(R.Error.find("deadlock"), std::string::npos) << R.Error;
}

TEST(SimEdge, WatchdogRescuesLivelockDeterministically) {
  // A livelock the instant deadlock detector cannot see: one warp spins
  // forever polling a flag, because the warp that would set it is stuck
  // at a barrier expecting arrivals that never come. Warps keep issuing
  // (so there are always eligible warps), but the scheduler makes no
  // macro progress — only the watchdog can classify this, and it must
  // do so at a deterministic cycle.
  auto K = compile("__global__ void livelock(int *a) {\n"
                   "  if (threadIdx.x < 32u) {\n"
                   "    int i = 0;\n"
                   "    while (a[0] == 0) i++;\n"
                   "    a[1] = i;\n"
                   "  } else {\n"
                   "    asm(\"bar.sync 1, 128;\");\n"
                   "    a[0] = 1;\n"
                   "  }\n"
                   "}\n");
  ASSERT_NE(K, nullptr);

  auto Run = [&](uint64_t Watchdog) {
    SimConfig C = smallConfig();
    C.MaxCycles = 200000; // keep the no-watchdog control cheap
    C.WatchdogCycles = Watchdog;
    Simulator Sim(C);
    uint64_t A = Sim.allocGlobal(64);
    KernelLaunch L;
    L.Kernel = K.get();
    L.GridDim = 1;
    L.BlockDim = 64;
    L.Params = {A};
    return Sim.run({L});
  };

  SimResult R = Run(20000);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Deadlock);
  EXPECT_FALSE(R.BudgetExceeded);
  EXPECT_NE(R.Error.find("watchdog"), std::string::npos) << R.Error;
  EXPECT_GT(R.TotalIssued, 0u); // it was spinning, not idle

  // Pinned abort point: bit-identical across runs, and exactly
  // last-progress + window — widening the window by N moves the abort
  // by exactly N cycles.
  SimResult R2 = Run(20000);
  EXPECT_EQ(R.TotalCycles, R2.TotalCycles);
  SimResult Wider = Run(20000 + 5000);
  EXPECT_TRUE(Wider.Deadlock);
  EXPECT_EQ(Wider.TotalCycles, R.TotalCycles + 5000);

  // Without the watchdog the same kernel burns the whole cycle limit.
  SimResult NoDog = Run(0);
  EXPECT_FALSE(NoDog.Ok);
  EXPECT_FALSE(NoDog.Deadlock);
  EXPECT_NE(NoDog.Error.find("cycle limit"), std::string::npos)
      << NoDog.Error;
}

TEST(SimEdge, WatchdogLeavesHealthyRunsBitIdentical) {
  // The watchdog window clamps idle fast-forward, so this must be shown
  // rather than assumed: a healthy run's schedule is untouched by any
  // window that exceeds its longest progress gap.
  auto K = compile("__global__ void work(unsigned int *a, int n) {\n"
                   "  __shared__ unsigned int s[32];\n"
                   "  if (threadIdx.x < 32u) s[threadIdx.x] = 0u;\n"
                   "  __syncthreads();\n"
                   "  for (int i = blockIdx.x * blockDim.x + threadIdx.x;\n"
                   "       i < n; i += gridDim.x * blockDim.x)\n"
                   "    atomicAdd(&s[i % 32], (unsigned int)i);\n"
                   "  __syncthreads();\n"
                   "  if (threadIdx.x < 32u)\n"
                   "    atomicAdd(&a[threadIdx.x], s[threadIdx.x]);\n"
                   "}\n");
  ASSERT_NE(K, nullptr);

  auto Run = [&](uint64_t Watchdog) {
    SimConfig C = smallConfig();
    C.WatchdogCycles = Watchdog;
    Simulator Sim(C);
    uint64_t A = Sim.allocGlobal(32 * 4);
    KernelLaunch L;
    L.Kernel = K.get();
    L.GridDim = 4;
    L.BlockDim = 128;
    L.Params = {A, 4096};
    SimResult R = Sim.run({L});
    EXPECT_TRUE(R.Ok) << R.Error;
    return R;
  };

  SimResult Off = Run(0);
  SimResult On = Run(50000);
  EXPECT_FALSE(On.Deadlock);
  EXPECT_EQ(On.TotalCycles, Off.TotalCycles);
  EXPECT_EQ(On.TotalIssued, Off.TotalIssued);
}

TEST(SimEdge, WallClockTimeoutFencesRunawayRuns) {
  // Non-deterministic by design; assert only classification, not the
  // abort cycle.
  auto K = compile("__global__ void forever2(int *a) {\n"
                   "  int i = 0;\n"
                   "  while (a[0] == 0) i++;\n"
                   "  a[1] = i;\n"
                   "}\n");
  ASSERT_NE(K, nullptr);
  SimConfig C = smallConfig();
  C.MaxCycles = 400ull * 1000 * 1000 * 1000; // too far to ever reach
  C.WallTimeoutMs = 50;
  Simulator Sim(C);
  uint64_t A = Sim.allocGlobal(64);
  KernelLaunch L;
  L.Kernel = K.get();
  L.GridDim = 1;
  L.BlockDim = 32;
  L.Params = {A};
  SimResult R = Sim.run({L});
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.TimedOut);
  EXPECT_NE(R.Error.find("timeout"), std::string::npos) << R.Error;
}

TEST(SimEdge, ExitedThreadsReleaseFullBarrier) {
  // Half the block returns before the __syncthreads; hardware releases
  // the barrier when all *live* threads arrive (warp-exit semantics).
  auto K = compile("__global__ void early(int *a) {\n"
                   "  __shared__ int s[64];\n"
                   "  if (threadIdx.x >= 64u) return;\n"
                   "  s[threadIdx.x] = (int)threadIdx.x;\n"
                   "  __syncthreads();\n"
                   "  a[threadIdx.x] = s[63 - threadIdx.x];\n"
                   "}\n");
  ASSERT_NE(K, nullptr);
  Simulator Sim(smallConfig());
  uint64_t A = Sim.allocGlobal(64 * 4);
  KernelLaunch L;
  L.Kernel = K.get();
  L.GridDim = 1;
  L.BlockDim = 128;
  L.Params = {A};
  SimResult R = Sim.run({L});
  ASSERT_TRUE(R.Ok) << R.Error;
  for (int I = 0; I < 64; ++I) {
    int32_t V;
    std::memcpy(&V, Sim.globalMem().data() + A + I * 4, 4);
    EXPECT_EQ(V, 63 - I);
  }
}

TEST(SimEdge, BarrierPhaseReuseInLoop) {
  // The same named barrier used across many loop iterations: the
  // arrival counter must reset each phase.
  auto K = compile("__global__ void phases(int *a) {\n"
                   "  __shared__ int s[1];\n"
                   "  if (threadIdx.x == 0u) s[0] = 0;\n"
                   "  asm(\"bar.sync 3, 128;\");\n"
                   "  for (int i = 0; i < 50; i++) {\n"
                   "    if (threadIdx.x == (unsigned int)(i % 128))\n"
                   "      s[0] = s[0] + 1;\n"
                   "    asm(\"bar.sync 3, 128;\");\n"
                   "  }\n"
                   "  if (threadIdx.x == 0u) a[blockIdx.x] = s[0];\n"
                   "}\n");
  ASSERT_NE(K, nullptr);
  Simulator Sim(smallConfig());
  uint64_t A = Sim.allocGlobal(4 * 4);
  KernelLaunch L;
  L.Kernel = K.get();
  L.GridDim = 2;
  L.BlockDim = 128;
  L.Params = {A};
  SimResult R = Sim.run({L});
  ASSERT_TRUE(R.Ok) << R.Error;
  for (int B = 0; B < 2; ++B) {
    int32_t V;
    std::memcpy(&V, Sim.globalMem().data() + A + B * 4, 4);
    EXPECT_EQ(V, 50) << "block " << B;
  }
}

TEST(SimEdge, OutOfBoundsLoadReported) {
  auto K = compile("__global__ void oob(int *a, int n) {\n"
                   "  a[threadIdx.x] = a[n + 1000000];\n"
                   "}\n");
  ASSERT_NE(K, nullptr);
  Simulator Sim(smallConfig());
  uint64_t A = Sim.allocGlobal(64 * 4);
  KernelLaunch L;
  L.Kernel = K.get();
  L.GridDim = 1;
  L.BlockDim = 32;
  L.Params = {A, 64};
  SimResult R = Sim.run({L});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("out of bounds"), std::string::npos) << R.Error;
}

TEST(SimEdge, LocalOverrunIsCheckedPerLane) {
  // Lane 0 reads one element past its own local array. Lanes' frames
  // are adjacent in the warp's local memory, so only a per-lane bound
  // catches this; a warp-wide bound would quietly hand lane 0 lane 1's
  // buf[0].
  auto Run = [](int Past) {
    std::string Src = "__global__ void overrun(int *a) {\n"
                      "  int buf[4];\n"
                      "  for (int i = 0; i < 4; i++) buf[i] = i + 1;\n"
                      "  int k = 0;\n"
                      "  if (threadIdx.x == 0u) k = " +
                      std::to_string(Past) +
                      ";\n"
                      "  a[threadIdx.x] = buf[k];\n"
                      "}\n";
    auto K = compile(Src.c_str());
    EXPECT_NE(K, nullptr);
    if (!K)
      return SimResult();
    EXPECT_EQ(K->LocalBytes, 16u);
    Simulator Sim(smallConfig());
    uint64_t A = Sim.allocGlobal(32 * 4);
    KernelLaunch L;
    L.Kernel = K.get();
    L.GridDim = 1;
    L.BlockDim = 32;
    L.Params = {A};
    return Sim.run({L});
  };
  SimResult InBounds = Run(3);
  EXPECT_TRUE(InBounds.Ok) << InBounds.Error;
  SimResult Overrun = Run(4);
  EXPECT_FALSE(Overrun.Ok);
  EXPECT_NE(Overrun.Error.find("local load out of bounds"), std::string::npos)
      << Overrun.Error;
}

TEST(SimEdge, AddressBelowZeroIsOutOfBounds) {
  // The buffer sits at arena offset 0, so lane 0's a[-1] is address
  // 2^64 - 4. Adding the access size to it wraps past zero; the bounds
  // check must not let that through to a read before the arena.
  auto K = compile("__global__ void under(int *a) {\n"
                   "  a[threadIdx.x] = a[(int)threadIdx.x - 1];\n"
                   "}\n");
  ASSERT_NE(K, nullptr);
  Simulator Sim(smallConfig());
  uint64_t A = Sim.allocGlobal(32 * 4);
  ASSERT_EQ(A, 0u);
  KernelLaunch L;
  L.Kernel = K.get();
  L.GridDim = 1;
  L.BlockDim = 32;
  L.Params = {A};
  SimResult R = Sim.run({L});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("global load out of bounds"), std::string::npos)
      << R.Error;
}

TEST(SimEdge, LaunchValidation) {
  auto K = compile("__global__ void k(int *a) { a[threadIdx.x] = 1; }\n");
  ASSERT_NE(K, nullptr);
  Simulator Sim(smallConfig());
  uint64_t A = Sim.allocGlobal(4096 * 4);

  {
    KernelLaunch L;
    L.Kernel = K.get();
    L.GridDim = 1;
    L.BlockDim = 100; // not a warp multiple
    L.Params = {A};
    SimResult R = Sim.run({L});
    EXPECT_FALSE(R.Ok);
  }
  {
    KernelLaunch L;
    L.Kernel = K.get();
    L.GridDim = 1;
    L.BlockDim = 2048; // above the hardware block limit
    L.Params = {A};
    SimResult R = Sim.run({L});
    EXPECT_FALSE(R.Ok);
  }
  {
    KernelLaunch L;
    L.Kernel = K.get();
    L.GridDim = 1;
    L.BlockDim = 32;
    L.Params = {}; // wrong parameter count
    SimResult R = Sim.run({L});
    EXPECT_FALSE(R.Ok);
    EXPECT_NE(R.Error.find("parameters"), std::string::npos);
  }
}

TEST(SimEdge, RunawayKernelHitsCycleLimit) {
  auto K = compile("__global__ void forever(int *a) {\n"
                   "  int i = 0;\n"
                   "  while (a[0] == 0) i++;\n"
                   "  a[1] = i;\n"
                   "}\n");
  ASSERT_NE(K, nullptr);
  SimConfig C = smallConfig();
  C.MaxCycles = 50000;
  Simulator Sim(C);
  uint64_t A = Sim.allocGlobal(64);
  KernelLaunch L;
  L.Kernel = K.get();
  L.GridDim = 1;
  L.BlockDim = 32;
  L.Params = {A};
  SimResult R = Sim.run({L});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("cycle limit"), std::string::npos) << R.Error;
}

TEST(SimEdge, DeterministicAcrossRuns) {
  auto K = compile(
      "__global__ void det(unsigned int *a, int n) {\n"
      "  __shared__ unsigned int s[32];\n"
      "  if (threadIdx.x < 32u) s[threadIdx.x] = 0u;\n"
      "  __syncthreads();\n"
      "  for (int i = blockIdx.x * blockDim.x + threadIdx.x; i < n;\n"
      "       i += gridDim.x * blockDim.x)\n"
      "    atomicAdd(&s[i % 32], (unsigned int)i);\n"
      "  __syncthreads();\n"
      "  if (threadIdx.x < 32u)\n"
      "    atomicAdd(&a[threadIdx.x], s[threadIdx.x]);\n"
      "}\n");
  ASSERT_NE(K, nullptr);

  uint64_t Cycles[2];
  std::vector<uint8_t> Mem[2];
  for (int Trial = 0; Trial < 2; ++Trial) {
    Simulator Sim(smallConfig());
    uint64_t A = Sim.allocGlobal(32 * 4);
    KernelLaunch L;
    L.Kernel = K.get();
    L.GridDim = 4;
    L.BlockDim = 128;
    L.Params = {A, 4096};
    SimResult R = Sim.run({L});
    ASSERT_TRUE(R.Ok) << R.Error;
    Cycles[Trial] = R.TotalCycles;
    Mem[Trial] = Sim.globalMem();
  }
  EXPECT_EQ(Cycles[0], Cycles[1]) << "simulation must be deterministic";
  EXPECT_EQ(Mem[0], Mem[1]);
}

TEST(SimEdge, MultipleRunsOnOneSimulator) {
  auto K = compile("__global__ void inc(int *a) {\n"
                   "  a[blockIdx.x * blockDim.x + threadIdx.x] += 1;\n"
                   "}\n");
  ASSERT_NE(K, nullptr);
  Simulator Sim(smallConfig());
  uint64_t A = Sim.allocGlobal(64 * 4);
  KernelLaunch L;
  L.Kernel = K.get();
  L.GridDim = 2;
  L.BlockDim = 32;
  L.Params = {A};
  for (int Round = 1; Round <= 3; ++Round) {
    SimResult R = Sim.run({L});
    ASSERT_TRUE(R.Ok) << R.Error;
    int32_t V;
    std::memcpy(&V, Sim.globalMem().data() + A, 4);
    EXPECT_EQ(V, Round) << "arena must persist across runs";
  }
}

} // namespace
