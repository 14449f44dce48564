//===-- profile/PairRunner.h - Benchmark-pair experiment driver -*- C++ -*-===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's view of a benchmark pair: an NWayRunner over two kernels
/// (whose search is Figure 6's) plus the pieces the paper defines only
/// for pairs. It runs the execution modes the paper compares —
///
///   native : both kernels launched concurrently (parallel CUDA
///            streams), elapsed = first launch to last finish;
///   vfused : the standard vertical fusion baseline;
///   hfused : HFuse's horizontal fusion for a given thread partition
///            {D1, D2} and optional register bound (runHFused);
///   solo   : one kernel alone (Figure 8 metrics);
///
/// and the Figure 7 "Naive" marker of the search: the even split with
/// no register-bound trial. Options::Scales carries Figure 7's ratio
/// knob as one workload scale per kernel.
///
//===----------------------------------------------------------------------===//

#ifndef HFUSE_PROFILE_PAIRRUNNER_H
#define HFUSE_PROFILE_PAIRRUNNER_H

#include "profile/NWayRunner.h"

#include <memory>
#include <string>

namespace hfuse::profile {

class PairRunner : public NWayRunner {
public:
  PairRunner(kernels::BenchKernelId A, kernels::BenchKernelId B,
             Options Opts);

  /// Vertically fused baseline (both kernels at block 256).
  gpusim::SimResult runVFused();

  /// Figure 6 search. \p NaiveEvenSplit restricts it to the even
  /// partition without the register-bound trial (the "Naive" marker of
  /// Figure 7).
  SearchResult searchBestConfig(bool NaiveEvenSplit = false);

  /// Fused-kernel source text for a partition (for inspection/driver).
  std::string fusedSource(int D1, int D2);

private:
  std::unique_ptr<CompiledKernel> VFused;
  uint32_t VFusedDynShared = 0;
};

} // namespace hfuse::profile

#endif // HFUSE_PROFILE_PAIRRUNNER_H
