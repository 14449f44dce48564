//===-- tests/MultiDimFusionTest.cpp - Multi-dimensional blocks -----------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for multi-dimensional thread blocks, the extension the paper
/// sketches in §III ("It is straightforward to extend our algorithm to
/// cover kernels with more than one block sub-dimensions") and uses in
/// its motivating example: Figure 4 fuses the 2-D Batchnorm of Figure 2
/// (896 threads as a 56x16 block) with the 1-D histogram of Figure 3
/// (128 threads). Covers
///  - the simulator's 3-D thread-id decomposition,
///  - the Figure 4 fusion prologue (tidx/tidy/tidz recomputation),
///  - functional equivalence of fused multi-dim kernels across
///    partition shapes and register bounds (parameterized),
///  - the Batchnorm2D benchmark kernel end to end, including the
///    paper's exact 896/128 partition.
///
//===----------------------------------------------------------------------===//

#include "cudalang/ASTPrinter.h"
#include "profile/Compile.h"
#include "profile/PairRunner.h"
#include "transform/Fusion.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace hfuse;
using namespace hfuse::cuda;
using namespace hfuse::gpusim;
using namespace hfuse::kernels;
using namespace hfuse::profile;

namespace {

SimConfig testConfig() {
  SimConfig C;
  C.Arch = makeGTX1080Ti();
  C.SimSMs = 2;
  return C;
}

template <typename T>
std::vector<T> readBuffer(Simulator &Sim, uint64_t Base, size_t Count) {
  std::vector<T> Out(Count);
  std::memcpy(Out.data(), Sim.globalMem().data() + Base, Count * sizeof(T));
  return Out;
}

/// A kernel whose output encodes its full 3-D thread coordinates; any
/// decomposition mistake shows up as a wrong digit group.
const char *CoordSource = R"(
__global__ void coords(int *out) {
  int linear = (int)(threadIdx.x + threadIdx.y * blockDim.x +
                     threadIdx.z * blockDim.x * blockDim.y);
  int total = (int)(blockDim.x * blockDim.y * blockDim.z);
  out[blockIdx.x * total + linear] =
      (int)threadIdx.x + 100 * (int)threadIdx.y +
      10000 * (int)threadIdx.z;
}
)";

/// A 1-D companion kernel for fusion tests.
const char *LinearSource = R"(
__global__ void linear_ids(int *out, int n) {
  int i = (int)(blockIdx.x * blockDim.x + threadIdx.x);
  if (i < n)
    out[i] = 7 * i + 1;
}
)";

} // namespace

//===----------------------------------------------------------------------===//
// Simulator: 3-D blocks
//===----------------------------------------------------------------------===//

struct BlockShapeCase {
  int X, Y, Z;
};

class SimBlockShape : public testing::TestWithParam<BlockShapeCase> {};

TEST_P(SimBlockShape, ThreadIdDecomposition) {
  const BlockShapeCase &S = GetParam();
  DiagnosticEngine Diags;
  auto K = compileSource(CoordSource, "", /*RegBound=*/0, Diags);
  ASSERT_NE(K, nullptr) << Diags.str();

  Simulator Sim(testConfig());
  const int Grid = 3;
  int Total = S.X * S.Y * S.Z;
  uint64_t Out = Sim.allocGlobal(size_t(Grid) * Total * 4);

  KernelLaunch L;
  L.Kernel = K->IR.get();
  L.GridDim = Grid;
  L.BlockDim = S.X;
  L.BlockDimY = S.Y;
  L.BlockDimZ = S.Z;
  L.Params = {Out};
  SimResult R = Sim.run({L});
  ASSERT_TRUE(R.Ok) << R.Error;

  auto Got = readBuffer<int>(Sim, Out, size_t(Grid) * Total);
  for (int B = 0; B < Grid; ++B)
    for (int Z = 0; Z < S.Z; ++Z)
      for (int Y = 0; Y < S.Y; ++Y)
        for (int X = 0; X < S.X; ++X) {
          int Linear = X + Y * S.X + Z * S.X * S.Y;
          EXPECT_EQ(Got[size_t(B) * Total + Linear],
                    X + 100 * Y + 10000 * Z)
              << "block " << B << " thread (" << X << "," << Y << "," << Z
              << ")";
        }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SimBlockShape,
    testing::Values(BlockShapeCase{32, 1, 1}, BlockShapeCase{8, 4, 1},
                    BlockShapeCase{16, 16, 1}, BlockShapeCase{8, 4, 2},
                    BlockShapeCase{4, 4, 4}, BlockShapeCase{56, 16, 1},
                    BlockShapeCase{1, 32, 2}),
    [](const testing::TestParamInfo<BlockShapeCase> &Info) {
      return std::to_string(Info.param.X) + "x" +
             std::to_string(Info.param.Y) + "x" +
             std::to_string(Info.param.Z);
    });

TEST(SimBlockShapeErrors, RejectsNonWarpMultipleTotal) {
  DiagnosticEngine Diags;
  auto K = compileSource(CoordSource, "", 0, Diags);
  ASSERT_NE(K, nullptr) << Diags.str();
  Simulator Sim(testConfig());
  uint64_t Out = Sim.allocGlobal(4096);
  KernelLaunch L;
  L.Kernel = K->IR.get();
  L.BlockDim = 8;
  L.BlockDimY = 3; // 24 threads: not a warp multiple
  L.Params = {Out};
  SimResult R = Sim.run({L});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("block shape"), std::string::npos) << R.Error;
}

//===----------------------------------------------------------------------===//
// Transform: the Figure 4 prologue
//===----------------------------------------------------------------------===//

namespace {

/// Fuses CoordSource (as a Y1 x Z1-shaped partition of D1 threads) with
/// LinearSource and returns the fused function + context via out-params.
transform::MultiFusionResult fuseCoordLinear(ASTContext &Ctx,
                                             CompiledKernel &K2D,
                                             CompiledKernel &K1D, int D1,
                                             int Y1, int Z1, int D2,
                                             DiagnosticEngine &Diags) {
  return transform::fuseHorizontalMany(Ctx, {K2D.fn(), K1D.fn()}, {D1, D2},
                                       "", Diags, {{Y1, Z1}, {1, 1}});
}

} // namespace

TEST(MultiDimTransform, PrologueRecomputesCoordinates) {
  DiagnosticEngine Diags;
  auto K2D = compileSource(CoordSource, "", 0, Diags);
  auto K1D = compileSource(LinearSource, "", 0, Diags);
  ASSERT_TRUE(K2D && K1D) << Diags.str();

  ASTContext Ctx;
  transform::MultiFusionResult FR =
      fuseCoordLinear(Ctx, *K2D, *K1D, /*D1=*/896, /*Y1=*/16, /*Z1=*/1,
                      /*D2=*/128, Diags);
  ASSERT_TRUE(FR.Ok) << Diags.str();

  std::string Src = printFunction(FR.Fused);
  // The Figure 4 prologue: blockDim_x = 896 / 16 = 56, blockDim_y = 16,
  // and threadIdx_{x,y,z} recomputed from the kernel-local linear id.
  EXPECT_NE(Src.find("sizex_1 = 56"), std::string::npos) << Src;
  EXPECT_NE(Src.find("sizey_1 = 16"), std::string::npos) << Src;
  EXPECT_NE(Src.find("sizez_1 = 1"), std::string::npos) << Src;
  EXPECT_NE(Src.find("tidx_1 = tid_1 % sizex_1"), std::string::npos) << Src;
  EXPECT_NE(Src.find("tidy_1 = tid_1 / sizex_1 % sizey_1"),
            std::string::npos)
      << Src;
  EXPECT_NE(Src.find("tidz_1 = tid_1 / (sizex_1 * sizey_1)"),
            std::string::npos)
      << Src;
  // The 1-D partner keeps the Figure 5 prologue.
  EXPECT_NE(Src.find("size_2 = 128"), std::string::npos) << Src;
  EXPECT_EQ(Src.find("tidx_2"), std::string::npos) << Src;
  // No builtin .y/.z remains in the fused body.
  EXPECT_EQ(Src.find("threadIdx.y"), std::string::npos) << Src;
  EXPECT_EQ(Src.find("blockDim.y"), std::string::npos) << Src;
  EXPECT_EQ(Src.find("threadIdx.z"), std::string::npos) << Src;
}

TEST(MultiDimTransform, OneWideDimsFoldToConstants) {
  // Fusing the 2-D-capable kernel under a 1-D shape folds threadIdx.y/.z
  // to 0 and blockDim.y/.z to 1 (CUDA's semantics for 1-wide dims).
  DiagnosticEngine Diags;
  auto K2D = compileSource(CoordSource, "", 0, Diags);
  auto K1D = compileSource(LinearSource, "", 0, Diags);
  ASSERT_TRUE(K2D && K1D) << Diags.str();

  ASTContext Ctx;
  transform::MultiFusionResult FR = fuseCoordLinear(
      Ctx, *K2D, *K1D, /*D1=*/256, /*Y1=*/1, /*Z1=*/1, /*D2=*/256, Diags);
  ASSERT_TRUE(FR.Ok) << Diags.str();
  std::string Src = printFunction(FR.Fused);
  EXPECT_EQ(Src.find("tidx_1"), std::string::npos) << Src;
  EXPECT_EQ(Src.find("threadIdx.y"), std::string::npos) << Src;
  EXPECT_NE(Src.find("size_1 = 256"), std::string::npos) << Src;
}

TEST(MultiDimTransform, RejectsIndivisiblePartition) {
  DiagnosticEngine Diags;
  auto K2D = compileSource(CoordSource, "", 0, Diags);
  auto K1D = compileSource(LinearSource, "", 0, Diags);
  ASSERT_TRUE(K2D && K1D) << Diags.str();

  ASTContext Ctx;
  // 160 threads cannot form whole rows of a x16 block.
  transform::MultiFusionResult FR = fuseCoordLinear(
      Ctx, *K2D, *K1D, /*D1=*/160, /*Y1=*/16, /*Z1=*/3, /*D2=*/128, Diags);
  EXPECT_FALSE(FR.Ok);
  EXPECT_NE(Diags.str().find("cannot form a block"), std::string::npos)
      << Diags.str();
}

TEST(MultiDimTransform, VerticalFusionRejectsMultiDimKernels) {
  DiagnosticEngine Diags;
  auto K2D = compileSource(CoordSource, "", 0, Diags);
  auto K1D = compileSource(LinearSource, "", 0, Diags);
  ASSERT_TRUE(K2D && K1D) << Diags.str();

  ASTContext Ctx;
  transform::FusionResult FR =
      transform::fuseVertical(Ctx, K2D->fn(), K1D->fn(), "", Diags);
  EXPECT_FALSE(FR.Ok);
  EXPECT_NE(Diags.str().find("vertical fusion requires"), std::string::npos)
      << Diags.str();
}

TEST(MultiDimTransform, ManyWayWithShapes) {
  DiagnosticEngine Diags;
  auto KA = compileSource(CoordSource, "", 0, Diags);
  auto KB = compileSource(LinearSource, "", 0, Diags);
  ASSERT_TRUE(KA && KB) << Diags.str();

  ASTContext Ctx;
  transform::MultiFusionResult MR = transform::fuseHorizontalMany(
      Ctx, {KA->fn(), KB->fn(), KA->fn()}, {128, 128, 256}, "trio", Diags,
      {{4, 2}, {1, 1}, {8, 1}});
  ASSERT_TRUE(MR.Ok) << Diags.str();
  std::string Src = printFunction(MR.Fused);
  EXPECT_NE(Src.find("sizey_1 = 4"), std::string::npos) << Src;
  EXPECT_NE(Src.find("sizez_1 = 2"), std::string::npos) << Src;
  EXPECT_NE(Src.find("size_2 = 128"), std::string::npos) << Src;
  EXPECT_NE(Src.find("sizey_3 = 8"), std::string::npos) << Src;
  EXPECT_NE(Src.find("sizex_3 = 32"), std::string::npos) << Src;
}

//===----------------------------------------------------------------------===//
// Fused execution across shapes (property)
//===----------------------------------------------------------------------===//

struct FusedShapeCase {
  int D1, Y1, Z1;
  int D2;
  unsigned RegBound;
};

class MultiDimFusedExec : public testing::TestWithParam<FusedShapeCase> {};

TEST_P(MultiDimFusedExec, MatchesNativeSemantics) {
  const FusedShapeCase &C = GetParam();
  DiagnosticEngine Diags;
  auto K2D = compileSource(CoordSource, "", 0, Diags);
  auto K1D = compileSource(LinearSource, "", 0, Diags);
  ASSERT_TRUE(K2D && K1D) << Diags.str();

  ASTContext Ctx;
  transform::MultiFusionResult FR = fuseCoordLinear(
      Ctx, *K2D, *K1D, C.D1, C.Y1, C.Z1, C.D2, Diags);
  ASSERT_TRUE(FR.Ok) << Diags.str();
  auto IR = lowerFunction(Ctx, FR.Fused, C.RegBound, Diags);
  ASSERT_NE(IR, nullptr) << Diags.str();

  Simulator Sim(testConfig());
  const int Grid = 4;
  int Total1 = C.D1;
  int N2 = Grid * C.D2;
  uint64_t Out1 = Sim.allocGlobal(size_t(Grid) * Total1 * 4);
  uint64_t Out2 = Sim.allocGlobal(size_t(N2) * 4);

  KernelLaunch L;
  L.Kernel = IR.get();
  L.GridDim = Grid;
  L.BlockDim = C.D1 + C.D2;
  L.Params = {Out1, Out2, uint64_t(N2)};
  SimResult R = Sim.run({L});
  ASSERT_TRUE(R.Ok) << R.Error;

  // Kernel 1's semantics under its original (X, Y, Z) shape.
  int X1 = C.D1 / (C.Y1 * C.Z1);
  auto Got1 = readBuffer<int>(Sim, Out1, size_t(Grid) * Total1);
  for (int B = 0; B < Grid; ++B)
    for (int Z = 0; Z < C.Z1; ++Z)
      for (int Y = 0; Y < C.Y1; ++Y)
        for (int X = 0; X < X1; ++X) {
          int Linear = X + Y * X1 + Z * X1 * C.Y1;
          EXPECT_EQ(Got1[size_t(B) * Total1 + Linear],
                    X + 100 * Y + 10000 * Z)
              << "shape " << X1 << "x" << C.Y1 << "x" << C.Z1 << " block "
              << B;
        }

  // Kernel 2's 1-D semantics.
  auto Got2 = readBuffer<int>(Sim, Out2, size_t(N2));
  for (int I = 0; I < N2; ++I)
    EXPECT_EQ(Got2[I], 7 * I + 1) << "i=" << I;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MultiDimFusedExec,
    testing::Values(FusedShapeCase{896, 16, 1, 128, 0},  // paper Figure 4
                    FusedShapeCase{896, 16, 1, 128, 32}, // + register cap
                    FusedShapeCase{768, 16, 1, 256, 0},  // paper's V100 pick
                    FusedShapeCase{512, 8, 2, 512, 0},
                    FusedShapeCase{256, 2, 2, 256, 0},
                    FusedShapeCase{128, 128, 1, 896, 0}, // degenerate x=1
                    FusedShapeCase{512, 1, 1, 512, 0}),  // both 1-D
    [](const testing::TestParamInfo<FusedShapeCase> &Info) {
      const FusedShapeCase &C = Info.param;
      return std::to_string(C.D1) + "y" + std::to_string(C.Y1) + "z" +
             std::to_string(C.Z1) + "_" + std::to_string(C.D2) + "_r" +
             std::to_string(C.RegBound);
    });

//===----------------------------------------------------------------------===//
// Batchnorm2D end to end (the paper's motivating pair, 2-D for real)
//===----------------------------------------------------------------------===//

namespace {

PairRunner::Options fastOptions() {
  PairRunner::Options Opts;
  Opts.Arch = makeGTX1080Ti();
  Opts.SimSMs = 2;
  Opts.Scales = {0.25};
  Opts.Verify = true;
  return Opts;
}

} // namespace

TEST(Batchnorm2D, SoloVerifies) {
  PairRunner Runner(BenchKernelId::Batchnorm2D, BenchKernelId::Hist,
                    fastOptions());
  ASSERT_TRUE(Runner.ok()) << Runner.error();
  SimResult R = Runner.runSolo(0);
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST(Batchnorm2D, NativePairVerifies) {
  PairRunner Runner(BenchKernelId::Batchnorm2D, BenchKernelId::Hist,
                    fastOptions());
  ASSERT_TRUE(Runner.ok()) << Runner.error();
  SimResult R = Runner.runNative();
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST(Batchnorm2D, PaperFigure4PartitionVerifies) {
  PairRunner Runner(BenchKernelId::Batchnorm2D, BenchKernelId::Hist,
                    fastOptions());
  ASSERT_TRUE(Runner.ok()) << Runner.error();
  // The paper's 1080 Ti pick: 896 Batchnorm threads (56x16) + 128 Hist
  // threads, register bound 32.
  SimResult R = Runner.runHFused({896, 128}, 32);
  EXPECT_TRUE(R.Ok) << R.Error;

  std::string Src = Runner.fusedSource(896, 128);
  EXPECT_NE(Src.find("sizex_1 = 56"), std::string::npos);
  EXPECT_NE(Src.find("sizey_1 = 16"), std::string::npos);
  EXPECT_NE(Src.find("bar.sync 1, 896"), std::string::npos);
  EXPECT_NE(Src.find("bar.sync 2, 128"), std::string::npos);
}

TEST(Batchnorm2D, PartitionSweepVerifies) {
  PairRunner Runner(BenchKernelId::Batchnorm2D, BenchKernelId::Hist,
                    fastOptions());
  ASSERT_TRUE(Runner.ok()) << Runner.error();
  for (int D1 : {256, 512, 768}) {
    SimResult R = Runner.runHFused({D1, 1024 - D1}, 0);
    EXPECT_TRUE(R.Ok) << "partition " << D1 << ": " << R.Error;
  }
}

TEST(Batchnorm2D, MatchesFlatBatchnormStatistics) {
  // The 2-D kernel and the 1-D kernel compute the same statistic, so
  // both solo runs must verify against their references with the same
  // workload scale; this pins the two implementations to each other.
  PairRunner R2D(BenchKernelId::Batchnorm2D, BenchKernelId::Hist,
                 fastOptions());
  PairRunner R1D(BenchKernelId::Batchnorm, BenchKernelId::Hist,
                 fastOptions());
  ASSERT_TRUE(R2D.ok() && R1D.ok());
  EXPECT_TRUE(R2D.runSolo(0).Ok);
  EXPECT_TRUE(R1D.runSolo(0).Ok);
}

//===----------------------------------------------------------------------===//
// N-way fusion with shapes: execution
//===----------------------------------------------------------------------===//

TEST(MultiDimManyExec, ThreeWayWithShapedMiddlePartition) {
  DiagnosticEngine Diags;
  auto KA = compileSource(LinearSource, "", 0, Diags);
  auto KB = compileSource(CoordSource, "", 0, Diags);
  auto KC = compileSource(LinearSource, "", 0, Diags);
  ASSERT_TRUE(KA && KB && KC) << Diags.str();

  // Middle partition is a 16x8x2 block (256 threads) between two 1-D
  // 128-thread partitions; the middle needs two-sided guards.
  ASTContext Ctx;
  transform::MultiFusionResult MR = transform::fuseHorizontalMany(
      Ctx, {KA->fn(), KB->fn(), KC->fn()}, {128, 256, 128}, "trio", Diags,
      {{1, 1}, {8, 2}, {1, 1}});
  ASSERT_TRUE(MR.Ok) << Diags.str();
  auto IR = lowerFunction(Ctx, MR.Fused, 0, Diags);
  ASSERT_NE(IR, nullptr) << Diags.str();

  Simulator Sim(testConfig());
  const int Grid = 2;
  uint64_t OutA = Sim.allocGlobal(size_t(Grid) * 128 * 4);
  uint64_t OutB = Sim.allocGlobal(size_t(Grid) * 256 * 4);
  uint64_t OutC = Sim.allocGlobal(size_t(Grid) * 128 * 4);

  KernelLaunch L;
  L.Kernel = IR.get();
  L.GridDim = Grid;
  L.BlockDim = 512;
  L.Params = {OutA, uint64_t(Grid * 128), OutB, OutC,
              uint64_t(Grid * 128)};
  SimResult R = Sim.run({L});
  ASSERT_TRUE(R.Ok) << R.Error;

  auto GotA = readBuffer<int>(Sim, OutA, size_t(Grid) * 128);
  auto GotC = readBuffer<int>(Sim, OutC, size_t(Grid) * 128);
  for (int I = 0; I < Grid * 128; ++I) {
    EXPECT_EQ(GotA[I], 7 * I + 1);
    EXPECT_EQ(GotC[I], 7 * I + 1);
  }
  auto GotB = readBuffer<int>(Sim, OutB, size_t(Grid) * 256);
  for (int B = 0; B < Grid; ++B)
    for (int Z = 0; Z < 2; ++Z)
      for (int Y = 0; Y < 8; ++Y)
        for (int X = 0; X < 16; ++X) {
          int Linear = X + Y * 16 + Z * 16 * 8;
          EXPECT_EQ(GotB[size_t(B) * 256 + Linear], X + 100 * Y + 10000 * Z);
        }
}

//===----------------------------------------------------------------------===//
// Search feasibility under a .y-shaped kernel
//===----------------------------------------------------------------------===//

TEST(Batchnorm2D, SearchOnlyProposesRowAlignedPartitions) {
  PairRunner Runner(BenchKernelId::Batchnorm2D, BenchKernelId::Hist,
                    fastOptions());
  ASSERT_TRUE(Runner.ok()) << Runner.error();
  SearchResult SR = Runner.searchBestConfig();
  ASSERT_TRUE(SR.Ok) << SR.Err;
  ASSERT_FALSE(SR.All.empty());
  for (const FusionCandidate &C : SR.All) {
    // Every candidate must give Batchnorm2D whole 16-thread rows.
    EXPECT_EQ(C.Dims[0] % 16, 0) << dimsLabel(C.Dims);
    EXPECT_TRUE(C.Result.Ok);
  }
}
