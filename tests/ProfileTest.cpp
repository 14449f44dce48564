//===-- tests/ProfileTest.cpp - Figure 6 machinery tests ------------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the profiling layer: the Figure 6 register-bound formula
/// (b1, b2, b0, r0), compilation caching, fused-source emission, and
/// compile-time resource reporting of the bench kernels.
///
//===----------------------------------------------------------------------===//

#include "gpusim/Occupancy.h"
#include "profile/PairRunner.h"

#include <gtest/gtest.h>

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

TEST(Figure6Bound, MatchesFormula) {
  PairRunner R(BenchKernelId::Batchnorm, BenchKernelId::Hist,
               tinyOptions());
  ASSERT_TRUE(R.ok()) << R.error();

  const GpuArch Arch = makeGTX1080Ti();
  int D1 = 512, D2 = 512;
  auto R0 = R.regBound({D1, D2});
  ASSERT_TRUE(R0.has_value());

  // Recompute by hand: b1/b2 from solo register counts; shared memory
  // of the fused kernel = batchnorm static (384B) + hist dynamic.
  long B1 = Arch.RegsPerSM / (long(D1) * R.soloRegs(0));
  long B2 = Arch.RegsPerSM / (long(D2) * R.soloRegs(1));
  long BThreads = Arch.MaxThreadsPerSM / (D1 + D2);
  long B0Max = std::min({B1, B2, BThreads});
  // ShMem term can only reduce b0 further.
  long R0Min = Arch.RegsPerSM / (B0Max * (D1 + D2));
  EXPECT_GE(static_cast<long>(*R0), R0Min);
  EXPECT_LE(*R0, static_cast<unsigned>(Arch.MaxRegsPerThread));
}

TEST(Figure6Bound, TighterForWiderBlocks) {
  PairRunner R(BenchKernelId::Maxpool, BenchKernelId::Upsample,
               tinyOptions());
  ASSERT_TRUE(R.ok()) << R.error();
  auto Narrow = R.regBound({128, 128});
  auto Wide = R.regBound({512, 512});
  ASSERT_TRUE(Narrow.has_value());
  ASSERT_TRUE(Wide.has_value());
  // More threads per fused block -> fewer registers per thread for the
  // same blocks/SM goal.
  EXPECT_LE(*Wide, *Narrow);
}

TEST(FusedSource, PrintsValidKernel) {
  PairRunner R(BenchKernelId::Batchnorm, BenchKernelId::Hist,
               tinyOptions());
  ASSERT_TRUE(R.ok()) << R.error();
  std::string Src = R.fusedSource(896, 128);
  EXPECT_NE(Src.find("__global__"), std::string::npos);
  EXPECT_NE(Src.find("bar.sync 1, 896;"), std::string::npos);
  EXPECT_NE(Src.find("bar.sync 2, 128;"), std::string::npos);
  EXPECT_NE(Src.find("tid_2"), std::string::npos);
  EXPECT_EQ(Src.find("__syncthreads"), std::string::npos);
}

TEST(CompiledKernels, FusedRegsAtLeastMaxOfParts) {
  // The fused kernel's register demand is at least each part's demand
  // (registers are per thread; each thread runs one part plus the
  // prologue).
  DiagnosticEngine Diags;
  auto K1 = compileBenchKernel(BenchKernelId::Batchnorm, 0, Diags);
  auto K2 = compileBenchKernel(BenchKernelId::Hist, 0, Diags);
  ASSERT_NE(K1, nullptr);
  ASSERT_NE(K2, nullptr);

  PairRunner R(BenchKernelId::Batchnorm, BenchKernelId::Hist,
               tinyOptions());
  SimResult F = R.runHFused({512, 512}, 0);
  ASSERT_TRUE(F.Ok) << F.Error;
  ASSERT_EQ(F.Kernels.size(), 1u);
  unsigned FusedRegs = F.Kernels[0].RegsPerThread;
  EXPECT_GE(FusedRegs, std::max(K1->IR->ArchRegsPerThread,
                                K2->IR->ArchRegsPerThread));
  // Fused shared memory = both parts' shared memory.
  EXPECT_EQ(F.Kernels[0].SharedBytesPerBlock,
            K1->IR->StaticSharedBytes + 1024u /*hist dyn smem, 256 bins*/);
}

TEST(RegBoundRun, CapsFusedRegisters) {
  PairRunner R(BenchKernelId::Im2Col, BenchKernelId::Upsample,
               tinyOptions());
  ASSERT_TRUE(R.ok()) << R.error();
  SimResult Unbounded = R.runHFused({512, 512}, 0);
  ASSERT_TRUE(Unbounded.Ok) << Unbounded.Error;
  unsigned Cap = Unbounded.Kernels[0].RegsPerThread - 8;
  SimResult Bounded = R.runHFused({512, 512}, Cap);
  ASSERT_TRUE(Bounded.Ok) << Bounded.Error;
  EXPECT_LE(Bounded.Kernels[0].RegsPerThread, Cap);
}

TEST(Search, BestIsMinimumOfCandidates) {
  PairRunner R(BenchKernelId::Ethash, BenchKernelId::SHA256,
               tinyOptions());
  ASSERT_TRUE(R.ok()) << R.error();
  SearchResult SR = R.searchBestConfig();
  ASSERT_TRUE(SR.Ok) << SR.Err;
  for (const FusionCandidate &C : SR.All)
    EXPECT_GE(C.Cycles, SR.Best.Cycles);
}

} // namespace
