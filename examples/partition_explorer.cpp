//===-- examples/partition_explorer.cpp - Thread-space exploration --------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Visualizes the thread-space partition trade-off (paper §III-B): for a
/// chosen pair, sweep every 128-granular partition of a 1024-thread
/// block, profile each with and without the Figure 6 register bound, and
/// print an ASCII chart of cycles per candidate. Shows why profiling
/// matters: the best partition is usually not the even split.
///
/// usage: partition_explorer [kernel1 kernel2]
///   kernels: maxpool batchnorm upsample im2col hist
///
//===----------------------------------------------------------------------===//

#include "profile/PairRunner.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

using namespace hfuse;
using namespace hfuse::gpusim;
using namespace hfuse::kernels;
using namespace hfuse::profile;

static bool parseKernel(const char *Name, BenchKernelId &Id) {
  for (BenchKernelId K : deepLearningKernels()) {
    std::string Lower = kernelDisplayName(K);
    for (char &C : Lower)
      C = static_cast<char>(std::tolower(C));
    if (Lower == Name) {
      Id = K;
      return true;
    }
  }
  return false;
}

int main(int Argc, char **Argv) {
  BenchKernelId A = BenchKernelId::Hist;
  BenchKernelId B = BenchKernelId::Upsample;
  if (Argc == 3) {
    if (!parseKernel(Argv[1], A) || !parseKernel(Argv[2], B)) {
      std::fprintf(stderr,
                   "usage: partition_explorer [maxpool|batchnorm|upsample|"
                   "im2col|hist] x2\n");
      return 1;
    }
  }

  PairRunner::Options Opts;
  Opts.Arch = makeGTX1080Ti();
  Opts.SimSMs = 4;
  PairRunner Runner(A, B, Opts);
  if (!Runner.ok()) {
    std::fprintf(stderr, "%s\n", Runner.error().c_str());
    return 1;
  }

  SimResult Native = Runner.runNative();
  if (!Native.Ok) {
    std::fprintf(stderr, "%s\n", Native.Error.c_str());
    return 1;
  }
  SearchResult SR = Runner.searchBestConfig();
  if (!SR.Ok) {
    std::fprintf(stderr, "%s\n", SR.Err.str().c_str());
    return 1;
  }

  std::printf("Thread-space exploration: %s + %s on %s\n",
              kernelDisplayName(A), kernelDisplayName(B),
              Opts.Arch.Name.c_str());
  std::printf("native pair: %llu cycles. Candidates (o = no bound, "
              "# = Figure 6 register bound):\n\n",
              static_cast<unsigned long long>(Native.TotalCycles));

  uint64_t MaxCycles = Native.TotalCycles;
  for (const FusionCandidate &C : SR.All)
    MaxCycles = std::max(MaxCycles, C.Cycles);

  auto Bar = [&](uint64_t Cycles, char Mark) {
    int Width = static_cast<int>(60.0 * Cycles / MaxCycles);
    for (int I = 0; I < Width; ++I)
      std::putchar(Mark);
    std::putchar('\n');
  };

  for (const FusionCandidate &C : SR.All) {
    bool IsBest = C.Id == SR.Best.Id;
    std::printf("%4d/%-4d %-5s %9llu %+6.1f%% %s", C.Dims[0], C.Dims[1],
                C.RegBound ? ("r" + std::to_string(C.RegBound)).c_str()
                           : "-",
                static_cast<unsigned long long>(C.Cycles),
                100.0 * (static_cast<double>(Native.TotalCycles) /
                             C.Cycles -
                         1.0),
                IsBest ? "*best* " : "       ");
    Bar(C.Cycles, C.RegBound ? '#' : 'o');
  }
  std::printf("%-28s", "native");
  std::printf("         ");
  Bar(Native.TotalCycles, '=');

  std::printf("\nBest: d1=%d d2=%d bound=%u -> %+0.1f%% vs native\n",
              SR.Best.Dims[0], SR.Best.Dims[1], SR.Best.RegBound,
              100.0 * (static_cast<double>(Native.TotalCycles) /
                           SR.Best.Cycles -
                       1.0));
  return 0;
}
