//===-- bench/bench_ablation_regcap.cpp - Register-bound sweep ------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation C (DESIGN.md): the occupancy-vs-spill trade-off behind the
/// paper's register bound (§IV-C "Register Bound"). For representative
/// pairs, sweep -maxrregcount over a range around the Figure 6 bound r0
/// and report cycles, occupancy, spill bytes, and registers — showing
/// the U-shape the automatic profiler navigates: tight bounds spill too
/// much, loose bounds forfeit occupancy.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "ir/RegAlloc.h"

#include <algorithm>

using namespace hfuse;
using namespace hfuse::bench;
using namespace hfuse::kernels;
using namespace hfuse::profile;

int main() {
  const std::vector<BenchPair> Pairs = {
      {BenchKernelId::Hist, BenchKernelId::Upsample},
      {BenchKernelId::Im2Col, BenchKernelId::Upsample},
      {BenchKernelId::Blake256, BenchKernelId::Ethash},
  };

  std::printf("=== Ablation: register bound sweep on fused kernels "
              "(1080Ti) ===\n");

  runOrderedTasks(Pairs.size(), [&](size_t PairIdx, std::string &Out) {
    const BenchPair &P = Pairs[PairIdx];
    PairRunner::Options Opts = benchOptions(false);
    PairRunner Runner(P.A, P.B, Opts);
    if (!Runner.ok()) {
      std::fprintf(stderr, "%s\n", Runner.error().c_str());
      return;
    }
    bool Tunable =
        kernelHasTunableBlockDim(P.A) && kernelHasTunableBlockDim(P.B);
    int D1 = Tunable ? 512 : 256;
    int D2 = D1;

    gpusim::SimResult Native = Runner.runNative();
    auto R0 = Runner.regBound({D1, D2});
    appendf(Out, "\n%s (partition %d/%d, Figure 6 bound r0=%s)\n",
            pairName(P).c_str(), D1, D2,
            R0 ? std::to_string(*R0).c_str() : "none");
    appendf(Out, "%10s %12s %9s %8s %8s\n", "bound", "cycles", "speedup",
            "occ%", "regs");

    std::vector<unsigned> Bounds = {0, 24, 32, 40, 48, 64, 96};
    if (R0 && std::find(Bounds.begin(), Bounds.end(), *R0) == Bounds.end())
      Bounds.push_back(*R0);
    for (unsigned Bound : Bounds) {
      gpusim::SimResult R = Runner.runHFused({D1, D2}, Bound);
      if (!R.Ok) {
        appendf(Out, "%10u %12s   (%s)\n", Bound, "-", R.Error.c_str());
        continue;
      }
      appendf(Out, "%10s %12llu %+8.1f%% %8.1f %8u%s\n",
              Bound ? std::to_string(Bound).c_str() : "none",
              static_cast<unsigned long long>(R.TotalCycles),
              speedupPct(Native.TotalCycles, R.TotalCycles),
              R.DeviceOccupancyPct,
              R.Kernels.empty() ? 0 : R.Kernels[0].RegsPerThread,
              R0 && Bound == *R0 ? "   <- r0" : "");
    }
  });
  return 0;
}
