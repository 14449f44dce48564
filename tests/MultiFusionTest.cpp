//===-- tests/MultiFusionTest.cpp - N-way horizontal fusion ---------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for horizontal fusion of N >= 2 kernels: structure of the
/// generated kernel (range guards, one barrier id per kernel, the
/// prologue order that keeps a pair's Figure 5 source), the full-barrier
/// ablation, validation, and end-to-end functional equivalence of a
/// 3-way fusion running three real benchmark kernels in one launch.
///
//===----------------------------------------------------------------------===//

#include "cudalang/ASTPrinter.h"
#include "cudalang/Parser.h"
#include "cudalang/Sema.h"
#include "gpusim/Simulator.h"
#include "kernels/Workload.h"
#include "profile/Compile.h"
#include "transform/Fusion.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace hfuse;
using namespace hfuse::cuda;
using namespace hfuse::gpusim;
using namespace hfuse::kernels;
using namespace hfuse::profile;
using namespace hfuse::transform;

namespace {

const char *SimpleA = "__global__ void ka(int *a) {\n"
                      "  __shared__ int s[64];\n"
                      "  s[threadIdx.x % 64u] = (int)threadIdx.x;\n"
                      "  __syncthreads();\n"
                      "  a[blockIdx.x * blockDim.x + threadIdx.x] =\n"
                      "      s[63 - threadIdx.x % 64u];\n"
                      "}\n";
const char *SimpleB = "__global__ void kb(int *b) {\n"
                      "  b[blockIdx.x * blockDim.x + threadIdx.x] =\n"
                      "      (int)threadIdx.x * 2;\n"
                      "}\n";
const char *SimpleC = "__global__ void kc(float *c) {\n"
                      "  float v = (float)threadIdx.x;\n"
                      "  for (int i = 0; i < 8; i++) v = v * 1.5f + 1.0f;\n"
                      "  c[blockIdx.x * blockDim.x + threadIdx.x] = v;\n"
                      "}\n";

struct ThreeKernels {
  std::unique_ptr<CompiledKernel> A, B, C;
  bool ok() const { return A && B && C; }
};

ThreeKernels compileThree() {
  DiagnosticEngine Diags;
  ThreeKernels K;
  K.A = compileSource(SimpleA, "", 0, Diags);
  K.B = compileSource(SimpleB, "", 0, Diags);
  K.C = compileSource(SimpleC, "", 0, Diags);
  EXPECT_TRUE(K.ok()) << Diags.str();
  return K;
}

TEST(MultiFusion, ThreeWayStructure) {
  ThreeKernels K = compileThree();
  ASSERT_TRUE(K.ok());
  ASTContext Target;
  DiagnosticEngine Diags;
  MultiFusionResult R = fuseHorizontalMany(
      Target, {K.A->fn(), K.B->fn(), K.C->fn()}, {128, 96, 64}, "", Diags);
  ASSERT_TRUE(R.Ok) << Diags.str();

  std::string Src = printFunction(R.Fused);
  // One named barrier per kernel that had __syncthreads (only A).
  EXPECT_NE(Src.find("bar.sync 1, 128;"), std::string::npos) << Src;
  EXPECT_EQ(Src.find("__syncthreads"), std::string::npos);
  // Per-kernel tid/size prologue entries.
  EXPECT_NE(Src.find("int tid_1 ="), std::string::npos);
  EXPECT_NE(Src.find("int tid_2 = (int)threadIdx.x - 128"),
            std::string::npos);
  EXPECT_NE(Src.find("int tid_3 = (int)threadIdx.x - 224"),
            std::string::npos);
  // Middle partition gets a two-sided guard.
  EXPECT_NE(Src.find("if (threadIdx.x < 128)"), std::string::npos);
  EXPECT_NE(Src.find("if (threadIdx.x >= 224)"), std::string::npos);
  EXPECT_EQ(R.NumParams.size(), 3u);

  // The emitted source must re-parse and re-analyze.
  ASTContext Ctx2;
  DiagnosticEngine D2;
  Parser P(Src, Ctx2, D2);
  ASSERT_TRUE(P.parseTranslationUnit()) << D2.str() << Src;
  ASSERT_TRUE(Sema(Ctx2, D2).run()) << D2.str() << Src;
}

/// The names of the fused prologue's leading declarations, in order.
std::vector<std::string> prologueNames(const FunctionDecl *F) {
  std::vector<std::string> Names;
  for (Stmt *S : F->body()->body()) {
    auto *DS = dyn_cast<DeclStmt>(S);
    if (!DS)
      break;
    for (VarDecl *V : DS->decls())
      if (V->name() == "tid" || V->name().rfind("tid_", 0) == 0 ||
          V->name().rfind("size_", 0) == 0)
        Names.push_back(V->name());
  }
  return Names;
}

TEST(MultiFusion, PairPrologueKeepsFigure5Order) {
  ThreeKernels K = compileThree();
  ASSERT_TRUE(K.ok());
  ASTContext Target;
  DiagnosticEngine Diags;
  MultiFusionResult R = fuseHorizontalMany(Target, {K.A->fn(), K.B->fn()},
                                           {128, 96}, "", Diags);
  ASSERT_TRUE(R.Ok) << Diags.str();
  EXPECT_EQ(prologueNames(R.Fused),
            (std::vector<std::string>{"tid", "tid_1", "tid_2", "size_1",
                                      "size_2"}));
}

TEST(MultiFusion, ThreeWayPrologueInterleaves) {
  ThreeKernels K = compileThree();
  ASSERT_TRUE(K.ok());
  ASTContext Target;
  DiagnosticEngine Diags;
  MultiFusionResult R = fuseHorizontalMany(
      Target, {K.A->fn(), K.B->fn(), K.C->fn()}, {128, 96, 64}, "", Diags);
  ASSERT_TRUE(R.Ok) << Diags.str();
  EXPECT_EQ(prologueNames(R.Fused),
            (std::vector<std::string>{"tid", "tid_1", "size_1", "tid_2",
                                      "size_2", "tid_3", "size_3"}));
}

TEST(MultiFusion, FullBarrierAblationAtEveryKernelCount) {
  ThreeKernels K = compileThree();
  ASSERT_TRUE(K.ok());
  const std::vector<const FunctionDecl *> All = {K.A->fn(), K.B->fn(),
                                                 K.C->fn()};
  const std::vector<int> Dims = {128, 96, 64};
  for (size_t N : {2u, 3u}) {
    SCOPED_TRACE("kernels=" + std::to_string(N));
    ASTContext Target;
    DiagnosticEngine Diags;
    MultiFusionResult R = fuseHorizontalMany(
        Target, {All.begin(), All.begin() + N},
        {Dims.begin(), Dims.begin() + N}, "", Diags, {},
        /*UsePartialBarriers=*/false);
    ASSERT_TRUE(R.Ok) << Diags.str();
    std::string Src = printFunction(R.Fused);
    EXPECT_NE(Src.find("__syncthreads()"), std::string::npos) << Src;
    EXPECT_EQ(Src.find("bar.sync"), std::string::npos) << Src;
    std::vector<unsigned> Barriers(N, 0);
    Barriers[0] = 1; // only kernel A synchronizes
    EXPECT_EQ(R.NumBarriers, Barriers);
  }
}

TEST(MultiFusion, Validation) {
  ThreeKernels K = compileThree();
  ASSERT_TRUE(K.ok());
  ASTContext Target;
  DiagnosticEngine Diags;
  // Every rejection carries a structured Status (not just a diagnostic
  // line), so search pipelines can retire the candidate into their
  // Failed ledger without parsing text.
  // Mismatched dims count.
  MultiFusionResult R1 = fuseHorizontalMany(Target, {K.A->fn(), K.B->fn()},
                                            {128, 128, 128}, "", Diags);
  EXPECT_FALSE(R1.Ok);
  EXPECT_EQ(R1.Err.code(), ErrorCode::FusionUnsupported);
  // Over the block limit.
  MultiFusionResult R2 =
      fuseHorizontalMany(Target, {K.A->fn(), K.B->fn(), K.C->fn()},
                         {512, 512, 128}, "", Diags);
  EXPECT_FALSE(R2.Ok);
  EXPECT_EQ(R2.Err.code(), ErrorCode::FusionUnsupported);
  // Non-warp-multiple partition.
  MultiFusionResult R3 =
      fuseHorizontalMany(Target, {K.A->fn(), K.B->fn(), K.C->fn()},
                         {100, 128, 128}, "", Diags);
  EXPECT_FALSE(R3.Ok);
  EXPECT_EQ(R3.Err.code(), ErrorCode::FusionUnsupported);
  EXPECT_NE(R3.Err.message().find("warp"), std::string::npos)
      << R3.Err.message();
}

TEST(MultiFusion, ThreeWayFunctionalEquivalence) {
  ThreeKernels K = compileThree();
  ASSERT_TRUE(K.ok());
  ASTContext Target;
  DiagnosticEngine Diags;
  MultiFusionResult R = fuseHorizontalMany(
      Target, {K.A->fn(), K.B->fn(), K.C->fn()}, {128, 96, 64}, "", Diags);
  ASSERT_TRUE(R.Ok) << Diags.str();
  auto FusedIR = lowerFunction(Target, R.Fused, 0, Diags);
  ASSERT_NE(FusedIR, nullptr) << Diags.str();

  SimConfig SC;
  SC.Arch = makeGTX1080Ti();
  SC.SimSMs = 1;
  Simulator Sim(SC);
  const int Grid = 4;
  uint64_t A = Sim.allocGlobal(Grid * 128 * 4);
  uint64_t B = Sim.allocGlobal(Grid * 96 * 4);
  uint64_t C = Sim.allocGlobal(Grid * 64 * 4);

  KernelLaunch L;
  L.Kernel = FusedIR.get();
  L.GridDim = Grid;
  L.BlockDim = 128 + 96 + 64;
  L.Params = {A, B, C};
  SimResult Res = Sim.run({L});
  ASSERT_TRUE(Res.Ok) << Res.Error;

  // Kernel A: blockDim seen is 128; shared reverse of tid%64.
  for (int Blk = 0; Blk < Grid; ++Blk) {
    for (int T = 0; T < 128; ++T) {
      int32_t V;
      std::memcpy(&V, Sim.globalMem().data() + A + (Blk * 128 + T) * 4, 4);
      // s[i] is written by both halves (tid and tid+64); the final
      // value of s[i] is i + 64 (higher tid wins... both write the same
      // pattern: s[tid%64] = tid). Thread 5 and 69 write s[5] = 5, 69.
      // The read is s[63 - tid%64], so values come from {x, x+64}.
      int Base = 63 - (T % 64);
      EXPECT_TRUE(V == Base || V == Base + 64)
          << "A[" << Blk << "," << T << "] = " << V;
    }
    for (int T = 0; T < 96; ++T) {
      int32_t V;
      std::memcpy(&V, Sim.globalMem().data() + B + (Blk * 96 + T) * 4, 4);
      EXPECT_EQ(V, T * 2) << "B[" << Blk << "," << T << "]";
    }
    for (int T = 0; T < 64; ++T) {
      float V;
      std::memcpy(&V, Sim.globalMem().data() + C + (Blk * 64 + T) * 4, 4);
      float Want = static_cast<float>(T);
      for (int I = 0; I < 8; ++I)
        Want = Want * 1.5f + 1.0f;
      EXPECT_FLOAT_EQ(V, Want) << "C[" << Blk << "," << T << "]";
    }
  }
}

TEST(MultiFusion, ThreeBenchKernelsVerify) {
  // Maxpool + Hist + Upsample in one 1024-thread block.
  DiagnosticEngine Diags;
  auto K1 = compileBenchKernel(BenchKernelId::Maxpool, 0, Diags);
  auto K2 = compileBenchKernel(BenchKernelId::Hist, 0, Diags);
  auto K3 = compileBenchKernel(BenchKernelId::Upsample, 0, Diags);
  ASSERT_TRUE(K1 && K2 && K3) << Diags.str();

  ASTContext Target;
  MultiFusionResult R = fuseHorizontalMany(
      Target, {K1->fn(), K2->fn(), K3->fn()}, {384, 256, 384}, "", Diags);
  ASSERT_TRUE(R.Ok) << Diags.str();
  EXPECT_EQ(R.ExternSharedKernel, 1) << "hist brings the extern shared";
  auto FusedIR = lowerFunction(Target, R.Fused, 0, Diags);
  ASSERT_NE(FusedIR, nullptr) << Diags.str();

  SimConfig SC;
  SC.Arch = makeGTX1080Ti();
  SC.SimSMs = 2;
  Simulator Sim(SC);
  WorkloadConfig WC;
  WC.SimSMs = SC.SimSMs;
  WC.SizeScale = 0.2;
  auto W1 = makeWorkload(BenchKernelId::Maxpool, WC);
  auto W2 = makeWorkload(BenchKernelId::Hist, WC);
  auto W3 = makeWorkload(BenchKernelId::Upsample, WC);
  W1->setup(Sim);
  W2->setup(Sim);
  W3->setup(Sim);
  W1->clearOutputs(Sim);
  W2->clearOutputs(Sim);
  W3->clearOutputs(Sim);

  int Grid = std::max({W1->preferredGrid(), W2->preferredGrid(),
                       W3->preferredGrid()});
  KernelLaunch L;
  L.Kernel = FusedIR.get();
  L.GridDim = Grid;
  L.BlockDim = 1024;
  L.DynSharedBytes = W2->dynSharedBytes();
  L.Params = W1->params();
  L.Params.insert(L.Params.end(), W2->params().begin(),
                  W2->params().end());
  L.Params.insert(L.Params.end(), W3->params().begin(),
                  W3->params().end());
  SimResult Res = Sim.run({L});
  ASSERT_TRUE(Res.Ok) << Res.Error;

  std::string Err;
  EXPECT_TRUE(W1->verify(Sim, Grid * 384, Err)) << Err;
  EXPECT_TRUE(W2->verify(Sim, Grid * 256, Err)) << Err;
  EXPECT_TRUE(W3->verify(Sim, Grid * 384, Err)) << Err;
}

} // namespace
