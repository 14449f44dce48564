//===-- bench/bench_sim.cpp - Simulator-core throughput bench -------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wall-clocks the GPU simulator core itself — the per-candidate cost
/// every Figure 6 search pays — on workload shapes that stress its
/// different paths:
///
///   blake256     compute-bound crypto, convergent ALU fast path
///   blake256@r32 the same under the Figure 6 register bound: local-
///                memory spill traffic (the bounded crypto candidates)
///   ethash       memory-bound, divergent sector traffic, MSHR pressure
///   batchnorm+hist   two-stream native run, barriers + shared atomics
///   im2col+maxpool   two-stream native run, mixed compute/memory
///
/// Each case runs at StatsLevel::Full (the default, nvprof-style
/// profiling on, which the search sweep also uses) and
/// StatsLevel::Minimal (timing only) and reports simulated instructions
/// per second. One JSON line per (case, stats level) feeds the
/// BENCH_*.json perf trajectory; cycle counts must match across levels
/// and gate the exit code.
///
/// Set HFUSE_QUICK=1 to shrink workloads for smoke runs.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "gpusim/Simulator.h"
#include "kernels/Workload.h"
#include "profile/Compile.h"

#include <chrono>

using namespace hfuse;
using namespace hfuse::bench;
using namespace hfuse::gpusim;
using namespace hfuse::kernels;
using namespace hfuse::profile;

namespace {

struct Case {
  const char *Name;
  std::vector<BenchKernelId> Kernels; // one = solo, two = native pair
  unsigned RegBound = 0;              // 0 = unbounded
};

struct Measurement {
  bool Ok = false;
  uint64_t Cycles = 0;
  uint64_t Issued = 0;
  double WallMs = 0.0;
};

Measurement runCase(const Case &C, StatsLevel Level, int Repeats) {
  Measurement M;
  SimConfig SC;
  SC.Arch = makeGTX1080Ti();
  SC.SimSMs = quickMode() ? 2 : 3;
  Simulator Sim(SC);

  std::vector<std::shared_ptr<const CompiledKernel>> Compiled;
  std::vector<std::unique_ptr<Workload>> Workloads;
  std::vector<KernelLaunch> Launches;
  for (size_t I = 0; I < C.Kernels.size(); ++I) {
    DiagnosticEngine Diags;
    auto K =
        sharedBenchCache()->getBenchKernel(C.Kernels[I], C.RegBound, Diags);
    if (!K) {
      std::fprintf(stderr, "%s: compile failed:\n%s", C.Name,
                   Diags.str().c_str());
      return M;
    }
    WorkloadConfig WC;
    WC.SimSMs = SC.SimSMs;
    WC.SizeScale = quickMode() ? 0.25 : 1.0;
    WC.Seed = 42 + static_cast<uint32_t>(I);
    auto W = makeWorkload(C.Kernels[I], WC);
    W->setup(Sim);
    KernelLaunch L;
    L.Kernel = K->IR.get();
    L.GridDim = W->preferredGrid();
    L.BlockDim = W->preferredBlock();
    L.BlockDimY = W->preferredBlockY();
    L.DynSharedBytes = W->dynSharedBytes();
    L.Params = W->params();
    L.Label = kernelDisplayName(C.Kernels[I]);
    Launches.push_back(std::move(L));
    Compiled.push_back(std::move(K));
    Workloads.push_back(std::move(W));
  }

  auto Start = std::chrono::steady_clock::now();
  for (int R = 0; R < Repeats; ++R) {
    for (auto &W : Workloads)
      W->clearOutputs(Sim);
    SimResult Res = Sim.run(Launches, Level);
    if (!Res.Ok) {
      std::fprintf(stderr, "%s: %s\n", C.Name, Res.Error.c_str());
      return M;
    }
    M.Cycles = Res.TotalCycles;
    M.Issued = Res.TotalIssued;
  }
  M.WallMs = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - Start)
                 .count();
  M.Ok = true;
  return M;
}

} // namespace

int main() {
  const std::vector<Case> Cases = {
      {"blake256", {BenchKernelId::Blake256}},
      {"blake256@r32", {BenchKernelId::Blake256}, 32},
      {"ethash", {BenchKernelId::Ethash}},
      {"batchnorm+hist", {BenchKernelId::Batchnorm, BenchKernelId::Hist}},
      {"im2col+maxpool", {BenchKernelId::Im2Col, BenchKernelId::Maxpool}},
  };
  const int Repeats = quickMode() ? 2 : 3;
  enableBenchMetrics();

  std::printf("=== Simulator core throughput (%s mode, %d repeats) ===\n",
              quickMode() ? "quick" : "full", Repeats);
  std::printf("%-18s %-8s %12s %12s %10s %12s\n", "case", "stats",
              "cycles", "instrs", "wall(ms)", "Minstr/s");

  bool CyclesMatch = true;
  for (const Case &C : Cases) {
    uint64_t FullCycles = 0;
    for (StatsLevel Level : {StatsLevel::Full, StatsLevel::Minimal}) {
      bool IsFull = Level == StatsLevel::Full;
      Measurement M = runCase(C, Level, Repeats);
      if (!M.Ok)
        return 1;
      if (IsFull)
        FullCycles = M.Cycles;
      else if (M.Cycles != FullCycles)
        CyclesMatch = false;
      double PerRunMs = M.WallMs / Repeats;
      double Mips =
          PerRunMs > 0 ? M.Issued / PerRunMs / 1000.0 : 0.0;
      std::printf("%-18s %-8s %12llu %12llu %10.1f %12.2f\n", C.Name,
                  IsFull ? "full" : "minimal",
                  static_cast<unsigned long long>(M.Cycles),
                  static_cast<unsigned long long>(M.Issued), PerRunMs,
                  Mips);
      std::printf("{\"bench\":\"sim\",\"case\":\"%s\",\"stats\":\"%s\","
                  "\"cycles\":%llu,\"instructions\":%llu,"
                  "\"wall_ms\":%.1f,\"sim_minstr_per_sec\":%.2f,"
                  "\"sim_mcycles_per_sec\":%.2f,\"repeats\":%d}\n",
                  C.Name, IsFull ? "full" : "minimal",
                  static_cast<unsigned long long>(M.Cycles),
                  static_cast<unsigned long long>(M.Issued), PerRunMs,
                  Mips, PerRunMs > 0 ? M.Cycles / PerRunMs / 1000.0 : 0.0,
                  Repeats);
    }
  }

  emitBenchMetricsJson("sim");
  std::printf("\ncycle counts %s across stats levels\n",
              CyclesMatch ? "identical" : "DIFFERED");
  return CyclesMatch ? 0 : 2;
}
