//===-- bench/bench_fig7.cpp - Paper Figure 7: speedup vs time ratio ------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the paper's Figure 7: for each of the 16 benchmark pairs,
/// the speedup of VFuse (vertical fusion), HFuse (horizontal fusion with
/// the Figure 6 search), and Naive (horizontal, even split, no
/// profiling) over native parallel-stream execution, swept across
/// execution-time ratios of the two kernels. The ratio is controlled by
/// scaling the first kernel's workload (the paper's starred kernel), and
/// each pair also reports the per-marker averages (the horizontal lines
/// in the paper's plots). Runs on both simulated GPUs.
///
/// Output: one row per (pair, GPU, ratio point), then one ASCII subplot
/// per pair in the paper's layout — x: execution-time ratio (log2),
/// y: speedup %, markers V/H/N for 1080Ti and v/h/n for V100.
///
/// Pairs are independent and run one-per-task on a shared thread pool
/// (runOrderedTasks); per-pair output is buffered and flushed in paper
/// order, so the report is byte-identical to the serial loop.
///
//===----------------------------------------------------------------------===//

#include "AsciiPlot.h"
#include "BenchCommon.h"

#include <cmath>

using namespace hfuse;
using namespace hfuse::bench;
using namespace hfuse::gpusim;
using namespace hfuse::kernels;
using namespace hfuse::profile;

int main() {
  const std::vector<double> ScaleSweep =
      quickMode() ? std::vector<double>{0.5, 2.0}
                  : std::vector<double>{0.25, 0.5, 1.0, 2.0, 4.0};

  std::printf("=== Figure 7: kernel execution time speedup vs native "
              "(by execution-time ratio) ===\n");
  std::printf("(sweep uses reduced workloads: 2 simulated SMs, 0.5x "
              "base scale; Figures 8/9 use the full setup)\n");
  std::printf("%-20s %-9s %7s %8s %8s %8s\n", "pair", "gpu", "ratio",
              "vfuse%", "hfuse%", "naive%");

  // HFUSE_PAIR=<substring> restricts to matching pairs (smoke runs).
  const char *PairFilter = std::getenv("HFUSE_PAIR");
  std::vector<BenchPair> Pairs;
  for (const BenchPair &P : paperPairs())
    if (!PairFilter || pairName(P).find(PairFilter) != std::string::npos)
      Pairs.push_back(P);

  // One pair per task on the shared pool; outputs flush in paper order.
  runOrderedTasks(Pairs.size(), [&](size_t PairIdx, std::string &Out) {
    const BenchPair &P = Pairs[PairIdx];
    bool Tunable =
        kernelHasTunableBlockDim(P.A) && kernelHasTunableBlockDim(P.B);
    AsciiPlot Plot;
    for (int V = 0; V < 2; ++V) {
      // Marker convention: V/H/N on the 1080Ti, v/h/n on the V100.
      char MV = V ? 'v' : 'V';
      char MH = V ? 'h' : 'H';
      char MN = V ? 'n' : 'N';
      double SumV = 0, SumH = 0, SumN = 0;
      int Count = 0;
      for (double Scale : ScaleSweep) {
        PairRunner::Options Opts = benchOptions(V == 1);
        // The ratio sweep multiplies run counts by ~10 relative to the
        // other figures; use lighter workloads to keep the sweep fast.
        Opts.SimSMs = 2;
        const double Half = Opts.Scales[0] * 0.5;
        Opts.Scales = {Half * Scale, Half}; // sweep the first (starred) kernel
        PairRunner Runner(P.A, P.B, Opts);
        if (!Runner.ok()) {
          std::fprintf(stderr, "%s: %s\n", pairName(P).c_str(),
                       Runner.error().c_str());
          continue;
        }
        SimResult S1 = Runner.runSolo(0);
        SimResult S2 = Runner.runSolo(1);
        SimResult Native = Runner.runNative();
        SimResult VFuse = Runner.runVFused();
        SearchResult HFuse = Runner.searchBestConfig();
        SearchResult Naive =
            Runner.searchBestConfig(/*NaiveEvenSplit=*/true);
        if (!S1.Ok || !S2.Ok || !Native.Ok || !VFuse.Ok || !HFuse.Ok ||
            !Naive.Ok) {
          std::fprintf(stderr, "%s: a run failed\n", pairName(P).c_str());
          continue;
        }
        double Ratio =
            static_cast<double>(S1.TotalCycles) / S2.TotalCycles;
        double SpV = speedupPct(Native.TotalCycles, VFuse.TotalCycles);
        double SpH = speedupPct(Native.TotalCycles, HFuse.Best.Cycles);
        double SpN = speedupPct(Native.TotalCycles, Naive.Best.Cycles);
        if (!Tunable)
          SpN = SpH; // fixed dims: the even split is the search space
        appendf(Out, "%-20s %-9s %7.2f %+8.1f %+8.1f %+8.1f%s\n",
                pairName(P).c_str(), V ? "V100" : "1080Ti", Ratio, SpV,
                SpH, SpN,
                Tunable ? "" : "  (fixed dims: naive == hfuse)");
        double X = std::log2(Ratio);
        Plot.addPoint(X, SpV, MV);
        Plot.addPoint(X, SpH, MH);
        if (Tunable)
          Plot.addPoint(X, SpN, MN);
        SumV += SpV;
        SumH += SpH;
        SumN += SpN;
        ++Count;
      }
      if (Count > 0) {
        appendf(Out, "%-20s %-9s %7s %+8.1f %+8.1f %+8.1f   <- average\n",
                pairName(P).c_str(), V ? "V100" : "1080Ti", "avg",
                SumV / Count, SumH / Count, SumN / Count);
        Plot.addHLine(SumH / Count, V ? ':' : '.');
      }
    }
    appendf(Out, "\n");
    Out += Plot.render(
        "  [" + pairName(P) +
            "]  V/H/N = VFuse/HFuse/Naive on 1080Ti, v/h/n on V100; "
            "HFuse avg: '.' (1080Ti) ':' (V100)",
        "log2(time ratio K1/K2)");
    Out += "\n";
  });
  return 0;
}
