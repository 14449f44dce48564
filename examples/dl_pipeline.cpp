//===-- examples/dl_pipeline.cpp - The paper's motivating example ---------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the paper's §II-C motivating example: fusing
/// batch_norm_collect_statistics (Figure 2) with kernelHistogram1D
/// (Figure 3) — the two kernels a ResNet training run with tensor-value
/// monitoring would launch together. Runs the full Figure 6
/// configuration search on both simulated GPUs and prints the chosen
/// partitions; the paper found 896/128 with a register cap best on the
/// GTX 1080 Ti and 768/256 on the V100.
///
//===----------------------------------------------------------------------===//

#include "profile/PairRunner.h"

#include <cstdio>

using namespace hfuse;
using namespace hfuse::gpusim;
using namespace hfuse::kernels;
using namespace hfuse::profile;

int main() {
  std::printf("Motivating example: Batchnorm + Hist (paper §II-C)\n\n");

  for (bool Volta : {false, true}) {
    PairRunner::Options Opts;
    Opts.Arch = Volta ? makeV100() : makeGTX1080Ti();
    Opts.SimSMs = 4;
    PairRunner Runner(BenchKernelId::Batchnorm, BenchKernelId::Hist, Opts);
    if (!Runner.ok()) {
      std::fprintf(stderr, "%s\n", Runner.error().c_str());
      return 1;
    }

    SimResult Native = Runner.runNative();
    SimResult VFused = Runner.runVFused();
    SearchResult Search = Runner.searchBestConfig();
    if (!Native.Ok || !VFused.Ok || !Search.Ok) {
      std::fprintf(stderr, "run failed: %s%s%s\n", Native.Error.c_str(),
                   VFused.Error.c_str(), Search.Err.message().c_str());
      return 1;
    }

    auto Pct = [&](uint64_t Cycles) {
      return 100.0 * (static_cast<double>(Native.TotalCycles) / Cycles -
                      1.0);
    };

    std::printf("--- %s ---\n", Opts.Arch.Name.c_str());
    std::printf("native (streams)   : %9llu cycles\n",
                static_cast<unsigned long long>(Native.TotalCycles));
    std::printf("vertical fusion    : %9llu cycles (%+.1f%%)\n",
                static_cast<unsigned long long>(VFused.TotalCycles),
                Pct(VFused.TotalCycles));
    std::printf("HFuse best         : %9llu cycles (%+.1f%%)\n",
                static_cast<unsigned long long>(Search.Best.Cycles),
                Pct(Search.Best.Cycles));
    std::printf("  partition %d/%d, register bound %s\n",
                Search.Best.Dims[0], Search.Best.Dims[1],
                Search.Best.RegBound
                    ? std::to_string(Search.Best.RegBound).c_str()
                    : "none");
    std::printf("  fused metrics: issue-slot util %.1f%% (native %.1f%%), "
                "occupancy %.1f%%\n",
                Search.Best.Result.DeviceIssueSlotUtilPct,
                Native.DeviceIssueSlotUtilPct,
                Search.Best.Result.DeviceOccupancyPct);

    std::printf("  all candidates:\n");
    for (const FusionCandidate &C : Search.All)
      std::printf("    d1=%4d d2=%4d bound=%3u : %9llu cycles (%+.1f%%)\n",
                  C.Dims[0], C.Dims[1], C.RegBound,
                  static_cast<unsigned long long>(C.Cycles), Pct(C.Cycles));
    std::printf("\n");
  }

  // Show the fused source for the paper's 896/128 partition.
  PairRunner::Options Opts;
  Opts.Arch = makeGTX1080Ti();
  PairRunner Runner(BenchKernelId::Batchnorm, BenchKernelId::Hist, Opts);
  std::printf("=== fused source at the paper's 896/128 partition ===\n%s\n",
              Runner.fusedSource(896, 128).c_str());
  return 0;
}
