//===-- bench/bench_ablation_barrier.cpp - Partial-barrier ablation -------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation B (DESIGN.md): what HFuse's partial `bar.sync` barriers buy
/// (paper §III-A). The naive alternative keeps `__syncthreads()` in the
/// fused kernel, which makes each input kernel's barrier wait for the
/// *other* kernel's threads too: semantically wrong in general and a
/// performance cliff, because the two kernels' phases handcuff each
/// other. Runs barrier-heavy pairs both ways and reports cycles plus
/// output correctness.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace hfuse;
using namespace hfuse::bench;
using namespace hfuse::kernels;
using namespace hfuse::profile;

int main() {
  const std::vector<BenchPair> Pairs = {
      {BenchKernelId::Batchnorm, BenchKernelId::Hist},
      {BenchKernelId::Batchnorm, BenchKernelId::Maxpool},
      {BenchKernelId::Hist, BenchKernelId::Upsample},
      {BenchKernelId::Hist, BenchKernelId::Im2Col},
  };

  std::printf("=== Ablation: partial bar.sync vs full __syncthreads in "
              "the fused kernel (1080Ti) ===\n");
  std::printf("%-20s %12s %14s %14s %9s %9s\n", "pair", "native",
              "partial(cy)", "full(cy)", "partial", "full");

  runOrderedTasks(Pairs.size(), [&](size_t PairIdx, std::string &Out) {
    const BenchPair &P = Pairs[PairIdx];
    PairRunner::Options Base = benchOptions(false);
    Base.Verify = true;

    PairRunner Partial(P.A, P.B, Base);
    PairRunner::Options FullOpts = Base;
    FullOpts.UsePartialBarriers = false;
    PairRunner Full(P.A, P.B, FullOpts);
    if (!Partial.ok() || !Full.ok()) {
      std::fprintf(stderr, "%s: setup failed\n", pairName(P).c_str());
      return;
    }

    gpusim::SimResult Native = Partial.runNative();
    gpusim::SimResult WithPartial = Partial.runHFused({512, 512}, 0);
    gpusim::SimResult WithFull = Full.runHFused({512, 512}, 0);

    auto Verdict = [](const gpusim::SimResult &R) {
      if (!R.Ok)
        return R.Error.find("verification") != std::string::npos
                   ? "WRONG"
                   : "FAILED";
      return "ok";
    };
    appendf(Out, "%-20s %12llu %14llu %14llu %9s %9s\n",
            pairName(P).c_str(),
            static_cast<unsigned long long>(Native.TotalCycles),
            static_cast<unsigned long long>(WithPartial.TotalCycles),
            static_cast<unsigned long long>(WithFull.TotalCycles),
            Verdict(WithPartial), Verdict(WithFull));
  });

  std::printf("\n'WRONG' means the fused kernel produced incorrect "
              "results; 'FAILED' typically means deadlock.\nEither way, "
              "full barriers sink naive horizontal fusion — the paper's "
              "motivation for bar.sync id, count.\n");
  return 0;
}
