//===-- examples/figure4.cpp - The paper's Figure 4, reproduced -----------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the paper's motivating example end to end (§II-C,
/// Figures 2-4): batch_norm_collect_statistics — written with a real
/// 2-D thread block exactly like Figure 2 — is horizontally fused with
/// kernelHistogram1D at the paper's 1080 Ti partition: 1024 threads per
/// block, the first 896 forming Batchnorm's 56x16 block and the
/// remaining 128 running the histogram. The program prints the fused
/// CUDA source (compare with the paper's Figure 4: the prologue
/// recomputing threadIdx_x/_y, the `bar.sync 1, 896` / `bar.sync 2,
/// 128` partial barriers, the thread-range guards), then measures
/// native vs fused on both simulated GPUs, with the paper's V100
/// 768/256 alternative as well.
///
//===----------------------------------------------------------------------===//

#include "profile/PairRunner.h"

#include <cstdio>

using namespace hfuse;
using namespace hfuse::gpusim;
using namespace hfuse::kernels;
using namespace hfuse::profile;

namespace {

void runOn(const char *Name, GpuArch Arch, int D1, int D2) {
  PairRunner::Options Opts;
  Opts.Arch = std::move(Arch);
  Opts.SimSMs = 3;
  PairRunner Runner(BenchKernelId::Batchnorm2D, BenchKernelId::Hist, Opts);
  if (!Runner.ok()) {
    std::fprintf(stderr, "%s\n", Runner.error().c_str());
    return;
  }
  SimResult Native = Runner.runNative();
  SimResult Fused = Runner.runHFused({D1, D2}, 0);
  auto R0 = Runner.regBound({D1, D2});
  SimResult Capped = R0 ? Runner.runHFused({D1, D2}, *R0) : SimResult{};
  if (!Native.Ok || !Fused.Ok) {
    std::fprintf(stderr, "%s run failed: %s%s\n", Name,
                 Native.Error.c_str(), Fused.Error.c_str());
    return;
  }
  auto Pct = [&](const SimResult &R) {
    return 100.0 * (static_cast<double>(Native.TotalCycles) /
                        static_cast<double>(R.TotalCycles) -
                    1.0);
  };
  std::printf("%-8s partition %4d/%-4d  native %8.3f ms   fused %8.3f ms "
              "(%+5.1f%%)",
              Name, D1, D2, Native.TotalMs, Fused.TotalMs, Pct(Fused));
  if (Capped.Ok)
    std::printf("   with r0=%-3u %8.3f ms (%+5.1f%%)", *R0, Capped.TotalMs,
                Pct(Capped));
  std::printf("\n");
}

} // namespace

int main() {
  std::printf("The paper's Figure 4: batch_norm_collect_statistics "
              "(56x16 = 896 threads)\n+ kernelHistogram1D (128 threads) "
              "fused into one 1024-thread block.\n\n");

  // Print the fused source at the paper's 1080 Ti partition.
  {
    PairRunner::Options Opts;
    Opts.Arch = makeGTX1080Ti();
    Opts.SimSMs = 2;
    Opts.Scales = {0.25};
    PairRunner Runner(BenchKernelId::Batchnorm2D, BenchKernelId::Hist,
                      Opts);
    if (!Runner.ok()) {
      std::fprintf(stderr, "%s\n", Runner.error().c_str());
      return 1;
    }
    std::puts(Runner.fusedSource(896, 128).c_str());
  }

  std::printf("\nMeasured (simulated GPUs; paper: +53.4%% on 1080Ti at "
              "896/128 + cap, +15.8%% on V100 at 768/256):\n");
  runOn("1080Ti", makeGTX1080Ti(), 896, 128);
  runOn("1080Ti", makeGTX1080Ti(), 768, 256);
  runOn("V100", makeV100(), 896, 128);
  runOn("V100", makeV100(), 768, 256);

  // The paper's partitions were profiled as optimal on *its* silicon;
  // on this simulator the optimum can sit elsewhere, which is exactly
  // why HFuse profiles rather than guesses (§III-B). Run the Figure 6
  // search and report what it picks here.
  std::printf("\nFigure 6 search on this simulator (reduced workload):\n");
  for (bool Volta : {false, true}) {
    PairRunner::Options Opts;
    Opts.Arch = Volta ? makeV100() : makeGTX1080Ti();
    Opts.SimSMs = 2;
    Opts.Scales = {0.5};
    PairRunner Runner(BenchKernelId::Batchnorm2D, BenchKernelId::Hist,
                      Opts);
    if (!Runner.ok()) {
      std::fprintf(stderr, "%s\n", Runner.error().c_str());
      return 1;
    }
    SimResult Native = Runner.runNative();
    SearchResult SR = Runner.searchBestConfig();
    if (!Native.Ok || !SR.Ok) {
      std::fprintf(stderr, "search failed: %s\n", SR.Err.message().c_str());
      return 1;
    }
    double Pct = 100.0 * (static_cast<double>(Native.TotalCycles) /
                              static_cast<double>(SR.Best.Cycles) -
                          1.0);
    std::printf("%-8s best partition %4d/%-4d bound %-4s -> %+5.1f%% vs "
                "native (%zu candidates profiled)\n",
                Volta ? "V100" : "1080Ti", SR.Best.Dims[0], SR.Best.Dims[1],
                SR.Best.RegBound
                    ? std::to_string(SR.Best.RegBound).c_str()
                    : "none",
                Pct, SR.All.size());
  }
  return 0;
}
