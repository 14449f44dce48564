//===-- bench/bench_ablation_partition.cpp - Thread-space ablation --------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation A (DESIGN.md): what the automatic thread-space profiling
/// contributes over the naive even split (paper §IV-B: "for all deep
/// learning cases except *Batchnorm*+Im2Col, the thread space profiling
/// technique is able to find a thread space partition scheme that
/// performs better than the naive approach"). Prints the full candidate
/// table for representative DL pairs with the even split marked.
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
      {BenchKernelId::Hist, BenchKernelId::Maxpool},
      {BenchKernelId::Im2Col, BenchKernelId::Maxpool},
  };

  std::printf("=== Ablation: profiled thread-space partition vs naive "
              "even split (1080Ti) ===\n");

  runOrderedTasks(Pairs.size(), [&](size_t PairIdx, std::string &Out) {
    const BenchPair &P = Pairs[PairIdx];
    PairRunner Runner(P.A, P.B, benchOptions(false));
    if (!Runner.ok()) {
      std::fprintf(stderr, "%s\n", Runner.error().c_str());
      return;
    }
    gpusim::SimResult Native = Runner.runNative();
    SearchResult SR = Runner.searchBestConfig();
    if (!Native.Ok || !SR.Ok) {
      std::fprintf(stderr, "%s: run failed\n", pairName(P).c_str());
      return;
    }

    appendf(Out, "\n%s (native %llu cycles)\n", pairName(P).c_str(),
            static_cast<unsigned long long>(Native.TotalCycles));
    appendf(Out, "%6s %6s %6s %12s %9s\n", "d1", "d2", "bound", "cycles",
            "speedup");
    uint64_t NaiveCycles = 0;
    for (const FusionCandidate &C : SR.All) {
      bool IsEven = C.Dims[0] == C.Dims[1] && C.RegBound == 0;
      bool IsBest = C.Id == SR.Best.Id;
      if (IsEven)
        NaiveCycles = C.Cycles;
      appendf(Out, "%6d %6d %6u %12llu %+8.1f%%%s%s\n", C.Dims[0], C.Dims[1],
              C.RegBound, static_cast<unsigned long long>(C.Cycles),
              speedupPct(Native.TotalCycles, C.Cycles),
              IsEven ? "  <- naive even split" : "",
              IsBest ? "  <- chosen by the search" : "");
    }
    if (NaiveCycles && SR.Best.Cycles < NaiveCycles)
      appendf(Out, "profiling gain over naive: %.1f%%\n",
              100.0 * (static_cast<double>(NaiveCycles) / SR.Best.Cycles -
                       1.0));
  });
  return 0;
}
