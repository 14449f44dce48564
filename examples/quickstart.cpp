//===-- examples/quickstart.cpp - HFuse in five minutes -------------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quickstart: define two small CUDA kernels as source strings, fuse
/// them horizontally with HFuse, print the fused source, and run both
/// the native pair and the fused kernel on the simulated GTX 1080 Ti to
/// compare timings.
///
//===----------------------------------------------------------------------===//

#include "cudalang/ASTPrinter.h"
#include "gpusim/Simulator.h"
#include "profile/Compile.h"
#include "transform/Fusion.h"

#include <cstdio>
#include <cstring>

using namespace hfuse;

// A memory-streaming kernel: scales a vector.
static const char *ScaleSource = R"(
__global__ void scale(float *out, const float *in, int n) {
  for (int i = blockIdx.x * blockDim.x + threadIdx.x; i < n;
       i += gridDim.x * blockDim.x) {
    out[i] = in[i] * 2.0f;
  }
}
)";

// A compute-heavy kernel: iterates a polynomial in registers.
static const char *IterateSource = R"(
__global__ void iterate(float *out, int rounds) {
  float v = (float)(blockIdx.x * blockDim.x + threadIdx.x);
  for (int r = 0; r < rounds; r++) {
    v = v * 1.0001f + 0.5f;
    v = v - v * 0.0001f;
  }
  out[blockIdx.x * blockDim.x + threadIdx.x] = v;
}
)";

int main() {
  DiagnosticEngine Diags;

  // 1. Parse + preprocess (inline device calls, lift declarations).
  auto K1 = transform::parseAndPreprocess(ScaleSource, "scale", Diags);
  auto K2 = transform::parseAndPreprocess(IterateSource, "iterate", Diags);
  if (!K1 || !K2) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }

  // 2. Horizontally fuse: threads [0,256) run `scale`, [256,512) run
  //    `iterate` in the same thread blocks.
  cuda::ASTContext Target;
  transform::MultiFusionResult FR = transform::fuseHorizontalMany(
      Target, {K1->Kernel, K2->Kernel}, {256, 256}, "", Diags);
  if (!FR.Ok) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }

  std::printf("=== fused CUDA source ===\n%s\n",
              cuda::printFunction(FR.Fused).c_str());

  // 3. Lower everything to the simulator's IR.
  auto FusedIR = profile::lowerFunction(Target, FR.Fused, 0, Diags);
  auto C1 = profile::compileSource(ScaleSource, "scale", 0, Diags);
  auto C2 = profile::compileSource(IterateSource, "iterate", 0, Diags);
  if (!FusedIR || !C1 || !C2) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }

  // 4. Set up buffers on the simulated GPU.
  gpusim::SimConfig SC;
  SC.Arch = gpusim::makeGTX1080Ti();
  SC.SimSMs = 4;
  gpusim::Simulator Sim(SC);
  const int N = 1 << 18;
  const int Rounds = 256;
  const int Grid = 32;
  uint64_t OutA = Sim.allocGlobal(N * 4);
  uint64_t InA = Sim.allocGlobal(N * 4);
  uint64_t OutB = Sim.allocGlobal(Grid * 256 * 4);
  for (int I = 0; I < N; ++I) {
    float V = 0.25f * static_cast<float>(I % 1000);
    std::memcpy(Sim.globalMem().data() + InA + I * 4, &V, 4);
  }

  // 5. Native: both kernels on concurrent streams.
  gpusim::KernelLaunch L1;
  L1.Kernel = C1->IR.get();
  L1.GridDim = Grid;
  L1.BlockDim = 256;
  L1.Params = {OutA, InA, static_cast<uint64_t>(N)};
  gpusim::KernelLaunch L2;
  L2.Kernel = C2->IR.get();
  L2.GridDim = Grid;
  L2.BlockDim = 256;
  L2.Params = {OutB, static_cast<uint64_t>(Rounds)};
  gpusim::SimResult Native = Sim.run({L1, L2});

  // 6. Fused: one launch, 512-thread blocks, concatenated parameters.
  gpusim::KernelLaunch LF;
  LF.Kernel = FusedIR.get();
  LF.GridDim = Grid;
  LF.BlockDim = 512;
  LF.Params = {OutA, InA, static_cast<uint64_t>(N), OutB,
               static_cast<uint64_t>(Rounds)};
  gpusim::SimResult Fused = Sim.run({LF});

  if (!Native.Ok || !Fused.Ok) {
    std::fprintf(stderr, "simulation failed: %s%s\n",
                 Native.Error.c_str(), Fused.Error.c_str());
    return 1;
  }

  std::printf("=== simulated GTX 1080 Ti ===\n");
  std::printf("native (parallel streams): %8llu cycles  (%.3f ms)\n",
              static_cast<unsigned long long>(Native.TotalCycles),
              Native.TotalMs);
  std::printf("HFuse horizontal fusion  : %8llu cycles  (%.3f ms)\n",
              static_cast<unsigned long long>(Fused.TotalCycles),
              Fused.TotalMs);
  double Speedup =
      100.0 * (static_cast<double>(Native.TotalCycles) / Fused.TotalCycles -
               1.0);
  std::printf("speedup                  : %+.1f%%\n", Speedup);
  std::printf("\nfused kernel: %u regs/thread, issue-slot utilization "
              "%.1f%% (native %.1f%%)\n",
              FusedIR->ArchRegsPerThread, Fused.DeviceIssueSlotUtilPct,
              Native.DeviceIssueSlotUtilPct);
  return 0;
}
