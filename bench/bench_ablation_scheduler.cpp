//===-- bench/bench_ablation_scheduler.cpp - Warp scheduler ablation ------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation D: the paper's central hypothesis is that horizontal fusion
/// works because the *warp scheduler* interleaves instructions from the
/// two kernels to hide latencies (paper §II-B "Hypothesis of Horizontal
/// Fusion"). This bench swaps the scheduler policy (greedy-then-oldest,
/// NVIDIA's documented behavior, vs strict round-robin) and reports how
/// fused-kernel speedups respond — showing the benefit is robust to the
/// selection policy as long as the scheduler can pick from both kernels'
/// warps.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <atomic>

using namespace hfuse;
using namespace hfuse::bench;
using namespace hfuse::gpusim;
using namespace hfuse::kernels;
using namespace hfuse::profile;

int main() {
  const std::vector<BenchPair> Pairs = {
      {BenchKernelId::Hist, BenchKernelId::Maxpool},
      {BenchKernelId::Blake256, BenchKernelId::Ethash},
      {BenchKernelId::Blake256, BenchKernelId::Blake2B},
  };

  std::printf("=== Ablation: warp scheduler policy (1080Ti) ===\n");
  std::printf("%-20s %12s %12s %12s %12s\n", "pair", "GTO native",
              "GTO hfuse", "RR native", "RR hfuse");

  std::atomic<bool> Failed{false};
  runOrderedTasks(Pairs.size(), [&](size_t PairIdx, std::string &Out) {
    const BenchPair &P = Pairs[PairIdx];
    uint64_t Native[2] = {0, 0}, Fused[2] = {0, 0};
    for (int Pol = 0; Pol < 2; ++Pol) {
      PairRunner::Options Opts = benchOptions(false);
      Opts.Arch.Scheduler = Pol == 0 ? SchedPolicy::GreedyThenOldest
                                     : SchedPolicy::RoundRobin;
      PairRunner Runner(P.A, P.B, Opts);
      if (!Runner.ok()) {
        std::fprintf(stderr, "%s\n", Runner.error().c_str());
        Failed = true;
        return;
      }
      SimResult N = Runner.runNative();
      bool Tunable = kernelHasTunableBlockDim(P.A) &&
                     kernelHasTunableBlockDim(P.B);
      int D1 = Tunable ? 256 : 256;
      auto R0 = Runner.regBound({D1, Tunable ? 1024 - D1 : 256});
      SimResult F =
          Runner.runHFused({D1, Tunable ? 1024 - D1 : 256}, R0 ? *R0 : 0);
      if (!N.Ok || !F.Ok) {
        std::fprintf(stderr, "%s: %s%s\n", pairName(P).c_str(),
                     N.Error.c_str(), F.Error.c_str());
        Failed = true;
        return;
      }
      Native[Pol] = N.TotalCycles;
      Fused[Pol] = F.TotalCycles;
    }
    appendf(Out, "%-20s %12llu %12llu %12llu %12llu\n",
            pairName(P).c_str(),
            static_cast<unsigned long long>(Native[0]),
            static_cast<unsigned long long>(Fused[0]),
            static_cast<unsigned long long>(Native[1]),
            static_cast<unsigned long long>(Fused[1]));
    appendf(Out, "%-20s speedup GTO %+.1f%%   RR %+.1f%%\n", "",
            speedupPct(Native[0], Fused[0]),
            speedupPct(Native[1], Fused[1]));
  });
  return Failed ? 1 : 0;
}
