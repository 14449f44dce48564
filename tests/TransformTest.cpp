//===-- tests/TransformTest.cpp - HFuse transformation tests --------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the HFuse passes: renaming, declaration lifting, inlining,
/// builtin replacement, barrier replacement, and the horizontal/vertical
/// fusers (paper Figures 4 and 5).
///
//===----------------------------------------------------------------------===//

#include "cudalang/ASTPrinter.h"
#include "cudalang/Parser.h"
#include "cudalang/Sema.h"
#include "transform/ASTWalker.h"
#include "transform/BarrierReplacer.h"
#include "transform/DeclLifter.h"
#include "transform/Fusion.h"
#include "transform/Inliner.h"
#include "transform/KernelInfo.h"
#include "transform/Pipeline.h"
#include "transform/Renamer.h"

#include <gtest/gtest.h>

using namespace hfuse;
using namespace hfuse::cuda;
using namespace hfuse::transform;

namespace {

/// A simplified batch_norm_collect_statistics (paper Figure 2): warp
/// shuffle reduction with two barriers and static shared memory.
const char *BatchnormLikeSource = R"(
__global__ void batchnorm(float *input, float *output, int n, int c) {
  __shared__ float shared_avg[2 * 32];
  int tid = threadIdx.x;
  int plane = blockIdx.x;
  float avg = 0.0f;
  int cnt = 0;
  for (int x = tid; x < n; x += blockDim.x) {
    float v = input[plane * n + x];
    cnt = cnt + 1;
    avg = avg + (v - avg) / (float)cnt;
  }
  for (int i = 0; i < 5; i++) {
    float o_avg = __shfl_xor_sync(0xffffffffu, avg, 1 << i);
    avg = (avg + o_avg) * 0.5f;
  }
  __syncthreads();
  if (tid % 32 == 0) {
    shared_avg[tid / 32] = avg;
  }
  __syncthreads();
  if (tid == 0) {
    float total = 0.0f;
    for (int w = 0; w < blockDim.x / 32; w++) total = total + shared_avg[w];
    output[plane] = total / (float)(blockDim.x / 32);
  }
}
)";

/// A simplified kernelHistogram1D (paper Figure 3): extern shared
/// counters, atomics, two barriers, grid-stride loop.
const char *HistLikeSource = R"(
__global__ void hist(unsigned int *out, const float *data, int total,
                     int nbins, float minv, float maxv) {
  extern __shared__ unsigned int smem[];
  for (int i = threadIdx.x; i < nbins; i += blockDim.x) {
    smem[i] = 0u;
  }
  __syncthreads();
  for (int li = blockIdx.x * blockDim.x + threadIdx.x; li < total;
       li += gridDim.x * blockDim.x) {
    float v = data[li];
    if (v >= minv && v <= maxv) {
      int bin = (int)((v - minv) / (maxv - minv) * (float)nbins);
      bin = min(bin, nbins - 1);
      atomicAdd(&smem[bin], 1u);
    }
  }
  __syncthreads();
  for (int i = threadIdx.x; i < nbins; i += blockDim.x) {
    atomicAdd(&out[i], smem[i]);
  }
}
)";

std::unique_ptr<PreprocessedKernel> preprocess(const char *Source,
                                               const std::string &Name = "") {
  DiagnosticEngine Diags;
  auto K = parseAndPreprocess(Source, Name, Diags);
  EXPECT_NE(K, nullptr) << Diags.str();
  return K;
}

/// All statements of a decl-lifted body before the first non-DeclStmt
/// must be the only DeclStmts in the whole function.
void expectDeclsLifted(const FunctionDecl *F) {
  bool SeenNonDecl = false;
  for (const Stmt *S : F->body()->body()) {
    if (isa<DeclStmt>(S)) {
      EXPECT_FALSE(SeenNonDecl) << "declaration after first statement";
    } else {
      SeenNonDecl = true;
    }
  }
  // No nested declarations anywhere.
  forEachStmt(const_cast<CompoundStmt *>(F->body()), [&](Stmt *S) {
    if (S == F->body())
      return;
    if (auto *C = dyn_cast<CompoundStmt>(S)) {
      for (Stmt *Sub : C->body()) {
        EXPECT_FALSE(isa<DeclStmt>(Sub)) << "nested declaration not lifted";
      }
    }
  });
}

//===----------------------------------------------------------------------===//
// DeclLifter
//===----------------------------------------------------------------------===//

TEST(DeclLifter, LiftsAllDeclsToTop) {
  auto K = preprocess(BatchnormLikeSource);
  ASSERT_NE(K, nullptr);
  expectDeclsLifted(K->Kernel);
}

TEST(DeclLifter, InitializersBecomeAssignments) {
  auto K = preprocess("__global__ void k(int *a) {\n"
                      "  int x = 41;\n"
                      "  a[0] = x + 1;\n"
                      "}\n");
  ASSERT_NE(K, nullptr);
  const auto &Body = K->Kernel->body()->body();
  // decl of x; x = 41; a[0] = x + 1;
  ASSERT_EQ(Body.size(), 3u);
  EXPECT_TRUE(isa<DeclStmt>(Body[0]));
  EXPECT_EQ(cast<DeclStmt>(Body[0])->decls()[0]->init(), nullptr);
  auto *Assign =
      dyn_cast<BinaryExpr>(cast<ExprStmt>(Body[1])->expr());
  ASSERT_NE(Assign, nullptr);
  EXPECT_EQ(Assign->op(), BinaryOpKind::Assign);
}

TEST(DeclLifter, ForInitBecomesCommaAssignment) {
  auto K = preprocess("__global__ void k(int *a, int n) {\n"
                      "  for (int i = 0, j = 1; i < n; i++) a[i] = j;\n"
                      "}\n");
  ASSERT_NE(K, nullptr);
  expectDeclsLifted(K->Kernel);
  std::string Printed = printFunction(K->Kernel);
  EXPECT_NE(Printed.find("for (i = 0, j = 1; i < n; i++)"),
            std::string::npos)
      << Printed;
}

TEST(DeclLifter, ShadowedNamesMadeUnique) {
  auto K = preprocess("__global__ void k(int *a) {\n"
                      "  int x = 1;\n"
                      "  { int x = 2; a[1] = x; }\n"
                      "  a[0] = x;\n"
                      "}\n");
  ASSERT_NE(K, nullptr);
  // Two distinct lifted declarations with distinct names.
  std::set<std::string> Names;
  unsigned NumDecls = 0;
  for (const Stmt *S : K->Kernel->body()->body()) {
    if (const auto *DS = dyn_cast<DeclStmt>(S)) {
      for (const VarDecl *V : DS->decls()) {
        Names.insert(V->name());
        ++NumDecls;
      }
    }
  }
  EXPECT_EQ(NumDecls, 2u);
  EXPECT_EQ(Names.size(), 2u) << "shadowed decl was not renamed";
  // The inner use must reference the renamed variable.
  std::string Printed = printFunction(K->Kernel);
  EXPECT_NE(Printed.find("a[1] = x_s"), std::string::npos) << Printed;
  EXPECT_NE(Printed.find("a[0] = x;"), std::string::npos) << Printed;
}

TEST(DeclLifter, LoopBodyDeclReassignedEachIteration) {
  auto K = preprocess("__global__ void k(int *a, int n) {\n"
                      "  for (int i = 0; i < n; i++) {\n"
                      "    int acc = 0;\n"
                      "    acc += i;\n"
                      "    a[i] = acc;\n"
                      "  }\n"
                      "}\n");
  ASSERT_NE(K, nullptr);
  std::string Printed = printFunction(K->Kernel);
  // The reset must stay inside the loop body.
  size_t LoopPos = Printed.find("for (");
  size_t ResetPos = Printed.find("acc = 0;");
  ASSERT_NE(LoopPos, std::string::npos);
  ASSERT_NE(ResetPos, std::string::npos);
  EXPECT_GT(ResetPos, LoopPos) << Printed;
}

//===----------------------------------------------------------------------===//
// Inliner
//===----------------------------------------------------------------------===//

TEST(Inliner, SimpleReturnFunction) {
  auto K = preprocess("__device__ int twice(int v) { return v * 2; }\n"
                      "__global__ void k(int *a) { a[0] = twice(21); }\n",
                      "k");
  ASSERT_NE(K, nullptr);
  std::string Printed = printFunction(K->Kernel);
  EXPECT_EQ(Printed.find("twice("), std::string::npos)
      << "call not inlined:\n"
      << Printed;
  EXPECT_NE(Printed.find("__hf_ret_1"), std::string::npos) << Printed;
}

TEST(Inliner, MultipleParamUsesDoNotDuplicateWork) {
  auto K = preprocess(
      "__device__ unsigned int rotr(unsigned int x, int n) {\n"
      "  return (x >> n) | (x << (32 - n));\n"
      "}\n"
      "__global__ void k(unsigned int *a) { a[0] = rotr(a[1] + a[2], 7); }\n",
      "k");
  ASSERT_NE(K, nullptr);
  std::string Printed = printFunction(K->Kernel);
  // The argument expression a[1] + a[2] must appear exactly once.
  size_t First = Printed.find("a[1] + a[2]");
  ASSERT_NE(First, std::string::npos) << Printed;
  EXPECT_EQ(Printed.find("a[1] + a[2]", First + 1), std::string::npos)
      << "argument duplicated:\n"
      << Printed;
}

TEST(Inliner, NestedCalls) {
  auto K = preprocess("__device__ int inc(int v) { return v + 1; }\n"
                      "__device__ int inc2(int v) { return inc(inc(v)); }\n"
                      "__global__ void k(int *a) { a[0] = inc2(a[1]); }\n",
                      "k");
  ASSERT_NE(K, nullptr);
  std::string Printed = printFunction(K->Kernel);
  EXPECT_EQ(Printed.find("inc("), std::string::npos) << Printed;
  EXPECT_EQ(Printed.find("inc2("), std::string::npos) << Printed;
}

TEST(Inliner, EarlyReturnsBecomeGotos) {
  auto K = preprocess("__device__ int clampPos(int v) {\n"
                      "  if (v < 0) return 0;\n"
                      "  return v;\n"
                      "}\n"
                      "__global__ void k(int *a) { a[0] = clampPos(a[1]); }\n",
                      "k");
  ASSERT_NE(K, nullptr);
  std::string Printed = printFunction(K->Kernel);
  EXPECT_NE(Printed.find("goto __hf_end_1;"), std::string::npos) << Printed;
  EXPECT_NE(Printed.find("__hf_end_1:"), std::string::npos) << Printed;
}

TEST(Inliner, CallInIfCondition) {
  auto K = preprocess("__device__ int sq(int v) { return v * v; }\n"
                      "__global__ void k(int *a) {\n"
                      "  if (sq(a[0]) > 10) a[1] = 1;\n"
                      "}\n",
                      "k");
  ASSERT_NE(K, nullptr);
  std::string Printed = printFunction(K->Kernel);
  EXPECT_EQ(Printed.find("sq("), std::string::npos) << Printed;
  EXPECT_NE(Printed.find("if (__hf_ret_1 > 10)"), std::string::npos)
      << Printed;
}

TEST(Inliner, CallInLoopConditionRejected) {
  DiagnosticEngine Diags;
  auto K = parseAndPreprocess(
      "__device__ int limit(int v) { return v * 2; }\n"
      "__global__ void k(int *a, int n) {\n"
      "  for (int i = 0; i < limit(n); i++) a[i] = i;\n"
      "}\n",
      "k", Diags);
  EXPECT_EQ(K, nullptr);
  EXPECT_NE(Diags.str().find("for-loop condition"), std::string::npos)
      << Diags.str();
}

TEST(Inliner, CallUnderShortCircuitRejected) {
  DiagnosticEngine Diags;
  auto K = parseAndPreprocess(
      "__device__ int f(int v) { return v; }\n"
      "__global__ void k(int *a) {\n"
      "  if (a[0] > 0 && f(a[1]) > 0) a[2] = 1;\n"
      "}\n",
      "k", Diags);
  EXPECT_EQ(K, nullptr);
  EXPECT_NE(Diags.str().find("short-circuit"), std::string::npos)
      << Diags.str();
}

TEST(Inliner, VoidCallStatement) {
  auto K = preprocess("__device__ void store(int *p, int v) { p[0] = v; }\n"
                      "__global__ void k(int *a) { store(a, 7); }\n",
                      "k");
  ASSERT_NE(K, nullptr);
  std::string Printed = printFunction(K->Kernel);
  EXPECT_EQ(Printed.find("store("), std::string::npos) << Printed;
}

//===----------------------------------------------------------------------===//
// Renamer
//===----------------------------------------------------------------------===//

TEST(Renamer, FreshNames) {
  Renamer R;
  R.reserve("tid");
  EXPECT_EQ(R.freshName("tid", "_1"), "tid_1");
  EXPECT_EQ(R.freshName("tid", "_1"), "tid_1_2");
  EXPECT_EQ(R.freshName("fresh", "_1"), "fresh");
}

TEST(Renamer, RenamesCollidingFunctionNames) {
  DiagnosticEngine Diags;
  ASTContext Ctx;
  Parser P("__global__ void k(int *a, int n) {\n"
           "  int tid = threadIdx.x;\n"
           "  if (tid >= n) goto done;\n"
           "  a[tid] = tid;\n"
           "done:\n"
           "  ;\n"
           "}\n",
           Ctx, Diags);
  ASSERT_TRUE(P.parseTranslationUnit()) << Diags.str();
  ASSERT_TRUE(Sema(Ctx, Diags).run()) << Diags.str();
  FunctionDecl *F = Ctx.translationUnit().findFunction("k");

  Renamer R;
  R.reserve("tid");
  R.reserve("done");
  R.renameFunction(F, "_1");
  std::string Printed = printFunction(F);
  EXPECT_EQ(Printed.find("int tid =", 0), std::string::npos) << Printed;
  EXPECT_NE(Printed.find("int tid_1 ="), std::string::npos) << Printed;
  EXPECT_NE(Printed.find("goto done_1;"), std::string::npos) << Printed;
  EXPECT_NE(Printed.find("done_1:"), std::string::npos) << Printed;
}

//===----------------------------------------------------------------------===//
// Barrier replacement
//===----------------------------------------------------------------------===//

TEST(BarrierReplacer, ReplacesAllBarriers) {
  auto K = preprocess(BatchnormLikeSource);
  ASSERT_NE(K, nullptr);
  EXPECT_EQ(countSyncthreads(K->Kernel->body()), 2u);
  DiagnosticEngine Diags;
  int N = replaceBarriers(*K->Ctx, K->Kernel->body(), 1, 896, Diags);
  EXPECT_EQ(N, 2);
  EXPECT_EQ(countSyncthreads(K->Kernel->body()), 0u);
  std::string Printed = printFunction(K->Kernel);
  EXPECT_NE(Printed.find("asm (\"bar.sync 1, 896;\");"), std::string::npos)
      << Printed;
}

TEST(BarrierReplacer, RejectsNonWarpMultiple) {
  auto K = preprocess(BatchnormLikeSource);
  ASSERT_NE(K, nullptr);
  DiagnosticEngine Diags;
  EXPECT_EQ(replaceBarriers(*K->Ctx, K->Kernel->body(), 1, 100, Diags), -1);
  EXPECT_TRUE(Diags.hasErrors());
}

//===----------------------------------------------------------------------===//
// Horizontal fusion (paper Figures 4/5)
//===----------------------------------------------------------------------===//

struct FusedPair {
  ASTContext Target;
  DiagnosticEngine Diags;
  MultiFusionResult Res;
};

std::unique_ptr<FusedPair> fusePair(const char *Src1, const char *Src2,
                                    int D1, int D2) {
  auto K1 = preprocess(Src1);
  auto K2 = preprocess(Src2);
  if (!K1 || !K2)
    return nullptr;
  auto Out = std::make_unique<FusedPair>();
  Out->Res = fuseHorizontalMany(Out->Target, {K1->Kernel, K2->Kernel},
                                {D1, D2}, "", Out->Diags);
  if (Out->Res.Ok) {
    Sema S(Out->Target, Out->Diags);
    if (!S.runOnFunction(Out->Res.Fused))
      Out->Res.Ok = false;
  }
  return Out;
}

TEST(HorizontalFuser, MotivatingExampleStructure) {
  auto FP = fusePair(BatchnormLikeSource, HistLikeSource, 896, 128);
  ASSERT_NE(FP, nullptr);
  ASSERT_TRUE(FP->Res.Ok) << FP->Diags.str();
  std::string Printed = printFunction(FP->Res.Fused);

  // Figure 4 structure: prologue, guards, partial barriers, labels.
  EXPECT_NE(Printed.find("int tid_1 ="), std::string::npos) << Printed;
  EXPECT_NE(Printed.find("int tid_2 = (int)threadIdx.x - 896"),
            std::string::npos)
      << Printed;
  EXPECT_NE(Printed.find("if (threadIdx.x >= 896)"), std::string::npos)
      << Printed;
  EXPECT_NE(Printed.find("goto hf_k1_end;"), std::string::npos) << Printed;
  EXPECT_NE(Printed.find("if (threadIdx.x < 896)"), std::string::npos)
      << Printed;
  EXPECT_NE(Printed.find("bar.sync 1, 896;"), std::string::npos) << Printed;
  EXPECT_NE(Printed.find("bar.sync 2, 128;"), std::string::npos) << Printed;
  EXPECT_EQ(Printed.find("__syncthreads"), std::string::npos) << Printed;

  // Barrier counts preserved (2 in each input kernel).
  EXPECT_EQ(FP->Res.NumBarriers, (std::vector<unsigned>{2, 2}));

  // threadIdx.x remains only in the prologue and the two guards.
  EXPECT_EQ(FP->Res.NumParams, (std::vector<unsigned>{4, 6}));
  EXPECT_EQ(FP->Res.ExternSharedKernel, 1);
}

TEST(HorizontalFuser, FusedSourceReparses) {
  auto FP = fusePair(BatchnormLikeSource, HistLikeSource, 768, 256);
  ASSERT_NE(FP, nullptr);
  ASSERT_TRUE(FP->Res.Ok) << FP->Diags.str();
  std::string Printed = printFunction(FP->Res.Fused);

  DiagnosticEngine Diags;
  ASTContext Ctx;
  Parser P(Printed, Ctx, Diags);
  ASSERT_TRUE(P.parseTranslationUnit()) << Diags.str() << "\n" << Printed;
  ASSERT_TRUE(Sema(Ctx, Diags).run()) << Diags.str() << "\n" << Printed;
}

TEST(HorizontalFuser, DeclsBeforeAllCode) {
  auto FP = fusePair(BatchnormLikeSource, HistLikeSource, 896, 128);
  ASSERT_NE(FP, nullptr);
  ASSERT_TRUE(FP->Res.Ok) << FP->Diags.str();
  expectDeclsLifted(FP->Res.Fused);
}

TEST(HorizontalFuser, RejectsBadPartitions) {
  {
    auto FP = fusePair(BatchnormLikeSource, HistLikeSource, 900, 124);
    ASSERT_NE(FP, nullptr);
    EXPECT_FALSE(FP->Res.Ok) << "non-warp-multiple partition accepted";
  }
  {
    auto FP = fusePair(BatchnormLikeSource, HistLikeSource, 896, 256);
    ASSERT_NE(FP, nullptr);
    EXPECT_FALSE(FP->Res.Ok) << "over-1024 block accepted";
  }
  {
    auto FP = fusePair(BatchnormLikeSource, HistLikeSource, 0, 1024);
    ASSERT_NE(FP, nullptr);
    EXPECT_FALSE(FP->Res.Ok) << "empty partition accepted";
  }
}

TEST(HorizontalFuser, RejectsTwoExternSharedKernels) {
  auto FP = fusePair(HistLikeSource, HistLikeSource, 512, 512);
  ASSERT_NE(FP, nullptr);
  EXPECT_FALSE(FP->Res.Ok);
  EXPECT_NE(FP->Diags.str().find("extern __shared__"), std::string::npos);
}

TEST(HorizontalFuser, NameCollisionsResolved) {
  // Both kernels use `i`, `v`, and the label `done`.
  const char *A = "__global__ void a(int *p, int n) {\n"
                  "  int v = 0;\n"
                  "  for (int i = threadIdx.x; i < n; i += blockDim.x)\n"
                  "    v += p[i];\n"
                  "  if (v < 0) goto done;\n"
                  "  p[threadIdx.x] = v;\n"
                  "done:\n"
                  "  ;\n"
                  "}\n";
  const char *B = "__global__ void b(int *q, int n) {\n"
                  "  int v = 1;\n"
                  "  for (int i = threadIdx.x; i < n; i += blockDim.x)\n"
                  "    v *= 2;\n"
                  "  if (v > 100) goto done;\n"
                  "  q[threadIdx.x] = v;\n"
                  "done:\n"
                  "  ;\n"
                  "}\n";
  auto FP = fusePair(A, B, 128, 128);
  ASSERT_NE(FP, nullptr);
  ASSERT_TRUE(FP->Res.Ok) << FP->Diags.str();

  // No duplicate local names in the fused kernel.
  std::set<std::string> Names;
  for (const VarDecl *P : FP->Res.Fused->params())
    EXPECT_TRUE(Names.insert(P->name()).second) << P->name();
  forEachStmt(FP->Res.Fused->body(), [&](Stmt *S) {
    if (auto *DS = dyn_cast<DeclStmt>(S)) {
      for (VarDecl *V : DS->decls()) {
        EXPECT_TRUE(Names.insert(V->name()).second)
            << "duplicate fused name " << V->name();
      }
    }
  });
  // No duplicate labels either.
  std::set<std::string> Labels;
  forEachStmt(FP->Res.Fused->body(), [&](Stmt *S) {
    if (auto *L = dyn_cast<LabelStmt>(S)) {
      EXPECT_TRUE(Labels.insert(L->name()).second)
          << "duplicate label " << L->name();
    }
  });
}

TEST(HorizontalFuser, EarlyReturnsLowered) {
  const char *A = "__global__ void a(int *p, int n) {\n"
                  "  if (threadIdx.x >= (unsigned int)n) return;\n"
                  "  p[threadIdx.x] = 1;\n"
                  "}\n";
  const char *B = "__global__ void b(int *q) { q[threadIdx.x] = 2; }\n";
  auto FP = fusePair(A, B, 128, 128);
  ASSERT_NE(FP, nullptr);
  ASSERT_TRUE(FP->Res.Ok) << FP->Diags.str();
  std::string Printed = printFunction(FP->Res.Fused);
  EXPECT_EQ(Printed.find("return"), std::string::npos)
      << "early return must become a goto so kernel 2 still runs:\n"
      << Printed;
  EXPECT_NE(Printed.find("goto hf_k1_end;"), std::string::npos) << Printed;
}

TEST(HorizontalFuser, AblationKeepsFullBarriers) {
  auto K1 = preprocess(BatchnormLikeSource);
  auto K2 = preprocess(HistLikeSource);
  ASSERT_NE(K1, nullptr);
  ASSERT_NE(K2, nullptr);
  ASTContext Target;
  DiagnosticEngine Diags;
  MultiFusionResult Res =
      fuseHorizontalMany(Target, {K1->Kernel, K2->Kernel}, {896, 128}, "",
                         Diags, {}, /*UsePartialBarriers=*/false);
  ASSERT_TRUE(Res.Ok) << Diags.str();
  std::string Printed = printFunction(Res.Fused);
  EXPECT_NE(Printed.find("__syncthreads()"), std::string::npos) << Printed;
  EXPECT_EQ(Printed.find("bar.sync"), std::string::npos) << Printed;
}

//===----------------------------------------------------------------------===//
// Vertical fusion baseline
//===----------------------------------------------------------------------===//

TEST(VerticalFuser, ConcatenatesAndKeepsBarriers) {
  auto K1 = preprocess(BatchnormLikeSource);
  auto K2 = preprocess(HistLikeSource);
  ASSERT_NE(K1, nullptr);
  ASSERT_NE(K2, nullptr);
  ASTContext Target;
  DiagnosticEngine Diags;
  FusionResult Res =
      fuseVertical(Target, K1->Kernel, K2->Kernel, "", Diags);
  ASSERT_TRUE(Res.Ok) << Diags.str();
  Sema S(Target, Diags);
  ASSERT_TRUE(S.runOnFunction(Res.Fused)) << Diags.str();

  std::string Printed = printFunction(Res.Fused);
  // Vertical fusion keeps full barriers: as many as the two originals.
  EXPECT_EQ(countSyncthreads(Res.Fused->body()), 4u);
  EXPECT_EQ(Printed.find("bar.sync"), std::string::npos) << Printed;
  // And no thread-id remapping.
  EXPECT_EQ(Printed.find("tid_2"), std::string::npos) << Printed;
}

//===----------------------------------------------------------------------===//
// KernelInfo
//===----------------------------------------------------------------------===//

TEST(KernelInfo, Resources) {
  auto K1 = preprocess(BatchnormLikeSource);
  ASSERT_NE(K1, nullptr);
  KernelResources R1 = analyzeKernel(K1->Kernel);
  EXPECT_EQ(R1.StaticSharedBytes, 64u * 4u);
  EXPECT_FALSE(R1.UsesExternShared);
  EXPECT_EQ(R1.NumBarriers, 2u);

  auto K2 = preprocess(HistLikeSource);
  ASSERT_NE(K2, nullptr);
  KernelResources R2 = analyzeKernel(K2->Kernel);
  EXPECT_EQ(R2.StaticSharedBytes, 0u);
  EXPECT_TRUE(R2.UsesExternShared);
}

} // namespace
