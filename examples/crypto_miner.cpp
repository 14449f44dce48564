//===-- examples/crypto_miner.cpp - Dual-mining with HFuse ----------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's cryptocurrency scenario: dual-mining two proofs of work
/// on one GPU. Fusing the memory-latency-bound Ethash with a compute-
/// bound hash (Blake256/Blake2B/SHA256) lets the warp scheduler hide
/// Ethash's DAG-lookup latencies behind hash arithmetic — the paper's
/// best crypto results (Figure 9: up to +65.8% with a register cap).
/// Fusing two compute-bound hashes, by contrast, does not pay.
///
//===----------------------------------------------------------------------===//

#include "profile/PairRunner.h"

#include <cstdio>

using namespace hfuse;
using namespace hfuse::gpusim;
using namespace hfuse::kernels;
using namespace hfuse::profile;

int main() {
  struct PairSpec {
    BenchKernelId A, B;
  };
  const PairSpec Pairs[] = {
      {BenchKernelId::Blake256, BenchKernelId::Ethash},
      {BenchKernelId::Blake2B, BenchKernelId::Ethash},
      {BenchKernelId::Ethash, BenchKernelId::SHA256},
      {BenchKernelId::Blake256, BenchKernelId::Blake2B},
  };

  std::printf("Dual-mining with HFuse (simulated GTX 1080 Ti)\n");
  std::printf("%-22s %12s %12s %12s %8s\n", "pair", "native", "hfuse",
              "hfuse+rcap", "best");

  for (const PairSpec &P : Pairs) {
    PairRunner::Options Opts;
    Opts.Arch = makeGTX1080Ti();
    Opts.SimSMs = 4;
    PairRunner Runner(P.A, P.B, Opts);
    if (!Runner.ok()) {
      std::fprintf(stderr, "%s\n", Runner.error().c_str());
      return 1;
    }

    SimResult Native = Runner.runNative();
    SimResult Plain = Runner.runHFused({256, 256}, 0);
    auto R0 = Runner.regBound({256, 256});
    SimResult Capped =
        R0 ? Runner.runHFused({256, 256}, *R0) : SimResult{};
    if (!Native.Ok || !Plain.Ok) {
      std::fprintf(stderr, "run failed: %s%s\n", Native.Error.c_str(),
                   Plain.Error.c_str());
      return 1;
    }

    uint64_t Best = Plain.TotalCycles;
    if (Capped.Ok)
      Best = std::min(Best, Capped.TotalCycles);
    double Speedup =
        100.0 * (static_cast<double>(Native.TotalCycles) / Best - 1.0);

    char Name[64];
    std::snprintf(Name, sizeof(Name), "%s+%s", kernelDisplayName(P.A),
                  kernelDisplayName(P.B));
    std::printf("%-22s %12llu %12llu %12s %+7.1f%%\n", Name,
                static_cast<unsigned long long>(Native.TotalCycles),
                static_cast<unsigned long long>(Plain.TotalCycles),
                Capped.Ok
                    ? std::to_string(Capped.TotalCycles).c_str()
                    : "n/a",
                Speedup);
  }

  std::printf("\nNote how pairs containing Ethash (memory-bound) gain, "
              "while Blake256+Blake2B (both compute-bound) does not —\n"
              "the paper's central observation about when horizontal "
              "fusion applies.\n");
  return 0;
}
