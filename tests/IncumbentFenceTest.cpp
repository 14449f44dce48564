//===-- tests/IncumbentFenceTest.cpp - Overlapped seed and followers ------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incumbent fence: a follower run gated by a seed that is still
/// simulating on another thread must end exactly as a run under the
/// seed's fixed cycle count — completed, abandoned, or abandoned after
/// an idle fast-forward that jumped past the seed's final cycle. And
/// the shared simulate phase (profile/IncumbentSweep.h) must void every
/// gated run of a failed seed, including one that completed before the
/// seed failed, and go on with the next seed in serial order.
///
//===----------------------------------------------------------------------===//

#include "codegen/CodeGen.h"
#include "gpusim/Simulator.h"
#include "ir/RegAlloc.h"
#include "profile/Compile.h"
#include "profile/IncumbentSweep.h"
#include "support/ThreadPool.h"
#include "transform/Pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>

using namespace hfuse;
using namespace hfuse::gpusim;
using namespace hfuse::profile;

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

/// ALU-bound: every warp issues nearly every cycle.
const char *SpinSource = "__global__ void spin(int *out, int n) {\n"
                         "  int acc = threadIdx.x;\n"
                         "  for (int i = 0; i < n; i++)\n"
                         "    acc = acc * 3 + i;\n"
                         "  out[blockIdx.x * blockDim.x + threadIdx.x] = acc;\n"
                         "}\n";

/// Latency-bound: one warp chasing pointers through global memory, so
/// the machine idles — and fast-forwards — for most of the run.
const char *ChaseSource = "__global__ void chase(int *next, int *out, int n) {\n"
                          "  int idx = threadIdx.x;\n"
                          "  for (int i = 0; i < n; i++)\n"
                          "    idx = next[idx];\n"
                          "  out[threadIdx.x] = idx;\n"
                          "}\n";

SimConfig config() {
  SimConfig C;
  C.Arch = makeGTX1080Ti();
  C.SimSMs = 1;
  return C;
}

/// A simulator with one kernel's buffers and its launch.
struct Ctx {
  Simulator Sim{config()};
  KernelLaunch L;
};

std::unique_ptr<Ctx> spinCtx(const ir::IRKernel *K, int Blocks, int N) {
  auto C = std::make_unique<Ctx>();
  uint64_t Out = C->Sim.allocGlobal(size_t(Blocks) * 128 * 4);
  C->L.Kernel = K;
  C->L.GridDim = Blocks;
  C->L.BlockDim = 128;
  C->L.Params = {Out, uint64_t(N)};
  C->L.Label = "spin";
  return C;
}

std::unique_ptr<Ctx> chaseCtx(const ir::IRKernel *K, int N) {
  auto C = std::make_unique<Ctx>();
  uint64_t Next = C->Sim.allocGlobal(4096 * 4);
  uint64_t Out = C->Sim.allocGlobal(32 * 4);
  std::vector<int32_t> Perm(4096);
  for (int I = 0; I < 4096; ++I)
    Perm[I] = (I * 613 + 97) % 4096; // scattered: one sector per lane
  std::memcpy(C->Sim.globalMem().data() + Next, Perm.data(), Perm.size() * 4);
  C->L.Kernel = K;
  C->L.GridDim = 1;
  C->L.BlockDim = 32;
  C->L.Params = {Next, Out, uint64_t(N)};
  C->L.Label = "chase";
  return C;
}

void expectSameResult(const SimResult &A, const SimResult &B) {
  EXPECT_EQ(encodeSimResult(A), encodeSimResult(B));
  EXPECT_EQ(A.Cancelled, B.Cancelled);
  EXPECT_EQ(A.Ok, B.Ok);
  EXPECT_EQ(A.BudgetExceeded, B.BudgetExceeded);
  EXPECT_EQ(A.TotalCycles, B.TotalCycles);
  EXPECT_EQ(A.TotalIssued, B.TotalIssued);
}

/// Runs \p Seed to completion on another thread, publishing into a
/// fence, while \p Follower runs gated by it on this one; checks the
/// follower against a run under the seed's fixed cycle count and
/// returns it.
SimResult checkFollower(Ctx &Seed, Ctx &Follower, Ctx &Fixed) {
  IncumbentFence Fence;
  SimResult SeedR;
  std::thread T([&] {
    SeedR = Seed.Sim.run({Seed.L}, StatsLevel::Full, RunBudget::seed(Fence));
    if (SeedR.Ok)
      Fence.resolve(SeedR.TotalCycles);
    else
      Fence.fail();
  });
  double WaitMs = 0;
  SimResult Gated = Follower.Sim.run({Follower.L}, StatsLevel::Full,
                                     RunBudget::gated(Fence), &WaitMs);
  T.join();
  EXPECT_TRUE(SeedR.Ok) << SeedR.Error;
  EXPECT_GE(WaitMs, 0.0);
  SimResult Ref =
      Fixed.Sim.run({Fixed.L}, StatsLevel::Full,
                    RunBudget::fixed(SeedR.TotalCycles));
  expectSameResult(Gated, Ref);
  return Gated;
}

class IncumbentFenceTest : public testing::Test {
protected:
  void SetUp() override {
    Spin = compile(SpinSource);
    Chase = compile(ChaseSource);
    ASSERT_TRUE(Spin && Chase);
  }
  std::unique_ptr<ir::IRKernel> Spin, Chase;
};

TEST_F(IncumbentFenceTest, FollowerAbandonsExactlyAsUnderTheFixedBudget) {
  // The follower does twice the seed's work at the same pace, so it
  // keeps catching up with the seed and must abandon at its cycles.
  auto Seed = spinCtx(Spin.get(), 8, 400);
  auto Follower = spinCtx(Spin.get(), 8, 800);
  auto Fixed = spinCtx(Spin.get(), 8, 800);
  SimResult R = checkFollower(*Seed, *Follower, *Fixed);
  EXPECT_TRUE(R.BudgetExceeded);
  EXPECT_GT(R.TotalIssued, 0u);
}

TEST_F(IncumbentFenceTest, FollowerCompletesBelowTheSeedsCycles) {
  auto Seed = spinCtx(Spin.get(), 8, 800);
  auto Follower = spinCtx(Spin.get(), 8, 300);
  auto Fixed = spinCtx(Spin.get(), 8, 300);
  SimResult R = checkFollower(*Seed, *Follower, *Fixed);
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST_F(IncumbentFenceTest, IdleFastForwardPastTheSeedClampsBackToItsCycles) {
  // The pointer chase idles on memory for hundreds of cycles at a time.
  // Pick a seed whose final cycle S lands inside one of those gaps (no
  // instruction issues within 20 cycles of it), so a gated follower
  // fast-forwards past S before the fence resolves.
  auto IssuedAt = [&](uint64_t Budget) {
    auto C = chaseCtx(Chase.get(), 400);
    return C->Sim.run({C->L}, StatsLevel::Full, RunBudget::fixed(Budget))
        .TotalIssued;
  };
  int N = 0;
  uint64_t S = 0;
  for (int Try = 300; Try < 400 && !N; Try += 3) {
    auto Probe = spinCtx(Spin.get(), 4, Try);
    SimResult R =
        Probe->Sim.run({Probe->L}, StatsLevel::Full, RunBudget::fixed(0));
    ASSERT_TRUE(R.Ok);
    if (IssuedAt(R.TotalCycles - 20) == IssuedAt(R.TotalCycles + 20)) {
      N = Try;
      S = R.TotalCycles;
    }
  }
  ASSERT_NE(N, 0) << "no seed length ends inside an idle gap";
  auto Seed = spinCtx(Spin.get(), 4, N);
  auto Follower = chaseCtx(Chase.get(), 400);
  auto Fixed = chaseCtx(Chase.get(), 400);
  SimResult R = checkFollower(*Seed, *Follower, *Fixed);
  EXPECT_TRUE(R.BudgetExceeded);
  EXPECT_EQ(R.TotalCycles, S);
}

TEST_F(IncumbentFenceTest, ResolvingAfterAnIdleOvershootClampsToTheBudget) {
  // Scripted seed: it has reached S - 1 and then resolves at S, but
  // only once the follower is blocked — after an idle fast-forward
  // carried it past S. The follower must clamp back and abort at S.
  auto IssuedAt = [&](uint64_t Budget) {
    auto C = chaseCtx(Chase.get(), 400);
    return C->Sim.run({C->L}, StatsLevel::Full, RunBudget::fixed(Budget))
        .TotalIssued;
  };
  uint64_t S = 0;
  for (uint64_t Try = 5000; Try < 20000 && !S; Try += 37)
    if (IssuedAt(Try - 20) == IssuedAt(Try + 20))
      S = Try;
  ASSERT_NE(S, 0u) << "no idle gap found";

  IncumbentFence Fence;
  Fence.publish(S - 1);
  auto Follower = chaseCtx(Chase.get(), 400);
  SimResult Gated;
  std::thread T([&] {
    Gated = Follower->Sim.run({Follower->L}, StatsLevel::Full,
                              RunBudget::gated(Fence));
  });
  for (int I = 0; I < 10000 && !Fence.waiting(); ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(Fence.waiting());
  Fence.resolve(S);
  T.join();
  auto Fixed = chaseCtx(Chase.get(), 400);
  SimResult Ref =
      Fixed->Sim.run({Fixed->L}, StatsLevel::Full, RunBudget::fixed(S));
  expectSameResult(Gated, Ref);
  EXPECT_TRUE(Gated.BudgetExceeded);
  EXPECT_EQ(Gated.TotalCycles, S);
}

TEST_F(IncumbentFenceTest, FollowerOfAFailedSeedIsCancelled) {
  auto Follower = spinCtx(Spin.get(), 4, 200);
  IncumbentFence Fence;
  Fence.publish(99);
  std::thread T([&] { Fence.fail(); });
  SimResult R = Follower->Sim.run({Follower->L}, StatsLevel::Full,
                                  RunBudget::gated(Fence));
  T.join();
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Cancelled);
  EXPECT_LE(R.TotalCycles, 100u);
}

//===----------------------------------------------------------------------===//
// The shared simulate phase
//===----------------------------------------------------------------------===//

TEST(IncumbentSweep, FollowerCompletedBeforeTheSeedFailedIsDiscarded) {
  // Candidate 0 seeds; it fails only after candidate 1, gated by it,
  // has completed. Candidate 1's completion must never become visible:
  // it is discarded with the failed round, then seeds the next round.
  SearchOptions Opts;
  Opts.Budget = SearchBudgetMode::Incumbent;
  Opts.Cancel = CancellationToken::make();
  const uint64_t Cycles[] = {0, 500, 700};

  std::mutex Mu;
  std::vector<std::string> Visible; // "K:cycles" once a verdict is final
  std::vector<size_t> Discarded;
  std::atomic<bool> FollowerDone{false};
  SweepHooks H;
  H.Measure = [&](size_t K, const RunBudget &B,
                  double) -> std::optional<uint64_t> {
    if (K == 0) {
      // The seed of round 1: fail once the follower has finished.
      while (!FollowerDone.load())
        std::this_thread::yield();
      return std::nullopt;
    }
    std::optional<uint64_t> Done = Cycles[K];
    if (B.isGated()) {
      if (K == 1)
        FollowerDone.store(true);
      // Like the runners: visible only once the fence settled.
      B.Fence->waitSettled(Opts.Cancel);
      if (B.Fence->state() != IncumbentFence::State::Resolved)
        return std::nullopt;
      if (*Done > B.Fence->budget())
        Done.reset();
    } else if (B.Cycles != 0 && *Done > B.Cycles) {
      Done.reset();
    }
    std::lock_guard<std::mutex> Lock(Mu);
    Visible.push_back(std::to_string(K) + ":" +
                      (Done ? std::to_string(*Done) : "abandoned"));
    return Done;
  };
  H.Discard = [&](size_t K) {
    std::lock_guard<std::mutex> Lock(Mu);
    Discarded.push_back(K);
  };
  H.SameLaunch = [](size_t, size_t) { return false; };

  ThreadPool Pool(3);
  uint64_t Inc = runSimulatePhase(&Pool, Opts, {0, 1, 2}, H);
  EXPECT_EQ(Inc, 500u);
  std::sort(Discarded.begin(), Discarded.end());
  EXPECT_EQ(Discarded, (std::vector<size_t>{1, 2}));
  std::sort(Visible.begin(), Visible.end());
  // Round 2: 1 seeds at 500 cycles, 2 is abandoned under it.
  EXPECT_EQ(Visible, (std::vector<std::string>{"1:500", "2:abandoned"}));
}

TEST(IncumbentSweep, SerialSweepStartsEveryFollowerAfterTheFenceResolved) {
  SearchOptions Opts;
  Opts.Budget = SearchBudgetMode::Incumbent;
  std::vector<size_t> Order{2, 0, 1};
  std::vector<size_t> Started;
  std::vector<RunBudget> Seen;
  SweepHooks H;
  H.Measure = [&](size_t K, const RunBudget &B,
                  double) -> std::optional<uint64_t> {
    Started.push_back(K);
    Seen.push_back(B);
    return 100 + K;
  };
  H.Discard = [](size_t) {};
  H.SameLaunch = [](size_t, size_t) { return false; };
  EXPECT_EQ(runSimulatePhase(nullptr, Opts, Order, H), 102u);
  // Serial order is the bound order; the seed runs first and every
  // follower starts under the seed's resolved, fixed cycle count.
  EXPECT_EQ(Started, Order);
  ASSERT_EQ(Seen.size(), 3u);
  EXPECT_TRUE(Seen[0].Seed);
  for (size_t I = 1; I < Seen.size(); ++I) {
    EXPECT_FALSE(Seen[I].Fence);
    EXPECT_EQ(Seen[I].Cycles, 102u);
  }
}

} // namespace
