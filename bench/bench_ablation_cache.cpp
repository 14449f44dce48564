//===-- bench/bench_ablation_cache.cpp - L2 cache fidelity study ----------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fidelity ablation for DESIGN.md known-divergence #1: the default
/// memory model prices every sector at DRAM. This bench re-runs the
/// kernels and representative fused pairs with the L2 sector-cache
/// model enabled (SimConfig::ModelL2) and reports what changes — per-
/// kernel L2 hit rates, execution time, memory-stall share, and most
/// importantly whether the paper's *conclusions* (which pairs profit
/// from horizontal fusion) are sensitive to the missing cache.
///
/// Expected shape: Ethash stays cache-hostile (DAG >> L2) and
/// memory-bound; Upsample/Maxpool pick up real hit rates (bilinear
/// taps, overlapping windows) and speed up, but remain latency-bound
/// enough that fusing them with compute-heavy partners still pays.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace hfuse;
using namespace hfuse::bench;
using namespace hfuse::gpusim;
using namespace hfuse::kernels;
using namespace hfuse::profile;

namespace {

void printKernelTable(bool Volta) {
  std::printf("\n--- Individual kernels, %s ---\n",
              Volta ? "V100" : "1080Ti");
  std::printf("%-10s %12s %12s %9s %9s %8s\n", "Kernel", "DRAM-only(ms)",
              "with-L2(ms)", "L2hit%", "stall%%", "d-stall%");
  for (BenchKernelId Id : allKernels()) {
    double Ms[2] = {0, 0}, Stall[2] = {0, 0}, Hit = 0;
    for (int L2 = 0; L2 < 2; ++L2) {
      PairRunner::Options Opts = benchOptions(Volta);
      Opts.ModelL2 = L2 == 1;
      // Pair with itself; only the solo run is used.
      PairRunner Runner(Id, Id, Opts);
      if (!Runner.ok()) {
        std::fprintf(stderr, "%s\n", Runner.error().c_str());
        return;
      }
      SimResult R = Runner.runSolo(0);
      if (!R.Ok) {
        std::fprintf(stderr, "%s: %s\n", kernelDisplayName(Id),
                     R.Error.c_str());
        return;
      }
      Ms[L2] = R.TotalMs;
      Stall[L2] = R.DeviceMemStallPct;
      if (L2)
        Hit = R.Kernels.empty() ? 0.0 : R.Kernels[0].L2HitRatePct;
    }
    std::printf("%-10s %12.3f %12.3f %9.1f %9.1f %8.1f\n",
                kernelDisplayName(Id), Ms[0], Ms[1], Hit, Stall[0],
                Stall[1] - Stall[0]);
  }
}

void printPairTable(bool Volta) {
  // Pairs that carry the paper's headline claims: memory+compute mixes
  // that win, and a compute+compute mix that loses.
  const std::vector<BenchPair> Pairs = {
      {BenchKernelId::Hist, BenchKernelId::Maxpool},
      {BenchKernelId::Maxpool, BenchKernelId::Upsample},
      {BenchKernelId::Blake256, BenchKernelId::Ethash},
      {BenchKernelId::Blake256, BenchKernelId::Blake2B},
  };
  std::printf("\n--- HFuse speedup vs native, %s (even split, no bound; "
              "does the cache change the verdict?) ---\n",
              Volta ? "V100" : "1080Ti");
  std::printf("%-22s %14s %14s %9s\n", "Pair", "DRAM-only", "with-L2",
              "verdict");
  for (const BenchPair &P : Pairs) {
    double Speedup[2] = {0, 0};
    for (int L2 = 0; L2 < 2; ++L2) {
      PairRunner::Options Opts = benchOptions(Volta);
      Opts.ModelL2 = L2 == 1;
      PairRunner Runner(P.A, P.B, Opts);
      if (!Runner.ok()) {
        std::fprintf(stderr, "%s\n", Runner.error().c_str());
        return;
      }
      SimResult Native = Runner.runNative();
      bool Tunable =
          kernelHasTunableBlockDim(P.A) && kernelHasTunableBlockDim(P.B);
      int D1 = Tunable ? 512 : 256;
      SimResult Fused = Runner.runHFused({D1, D1}, 0);
      if (!Native.Ok || !Fused.Ok) {
        std::fprintf(stderr, "%s: %s%s\n", pairName(P).c_str(),
                     Native.Error.c_str(), Fused.Error.c_str());
        return;
      }
      Speedup[L2] = speedupPct(Native.TotalCycles, Fused.TotalCycles);
    }
    bool Same = (Speedup[0] >= 0) == (Speedup[1] >= 0);
    std::printf("%-22s %+13.1f%% %+13.1f%% %9s\n", pairName(P).c_str(),
                Speedup[0], Speedup[1], Same ? "same" : "FLIPS");
  }
}

} // namespace

int main() {
  std::printf("=== Ablation: L2 sector-cache model (fidelity study for "
              "DESIGN.md divergence #1) ===\n");
  for (bool Volta : {false, true}) {
    printKernelTable(Volta);
    printPairTable(Volta);
  }
  return 0;
}
