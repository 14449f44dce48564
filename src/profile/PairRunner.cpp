//===-- profile/PairRunner.cpp - Benchmark-pair experiment driver ---------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "profile/PairRunner.h"

#include "cudalang/ASTPrinter.h"
#include "support/StringUtils.h"
#include "transform/Fusion.h"

using namespace hfuse;
using namespace hfuse::gpusim;
using namespace hfuse::kernels;
using namespace hfuse::profile;

PairRunner::PairRunner(BenchKernelId A, BenchKernelId B, Options Opts)
    : NWayRunner({A, B}, std::move(Opts)) {}

SimResult PairRunner::runVFused() {
  if (!Ready)
    return fail(Err.message());
  if (!VFused) {
    DiagnosticEngine Diags;
    auto Ctx = std::make_unique<cuda::ASTContext>();
    transform::FusionResult FR = transform::fuseVertical(
        *Ctx, Ks[0]->fn(), Ks[1]->fn(), /*FusedName=*/"", Diags);
    if (!FR.Ok)
      return fail("vertical fusion failed:\n" + Diags.str());
    auto IR = lowerFunction(*Ctx, FR.Fused, /*RegBound=*/0, Diags);
    if (!IR)
      return fail("vertical fusion lowering failed:\n" + Diags.str());
    VFused = std::make_unique<CompiledKernel>();
    VFused->Pre = std::make_unique<transform::PreprocessedKernel>();
    VFused->Pre->Ctx = std::move(Ctx);
    VFused->Pre->Kernel = FR.Fused;
    VFused->IR = std::move(IR);
    VFusedDynShared =
        Primary.W[0]->dynSharedBytes() + Primary.W[1]->dynSharedBytes();
  }
  const SimContext &C = setUp(Primary);
  KernelLaunch L;
  L.Kernel = VFused->IR.get();
  int Grid = commonGrid();
  L.GridDim = Grid;
  L.BlockDim = 256;
  L.DynSharedBytes = VFusedDynShared;
  L.Params = C.W[0]->params();
  L.Params.insert(L.Params.end(), C.W[1]->params().begin(),
                  C.W[1]->params().end());
  L.Label = formatString("VFuse(%s+%s)", kernelDisplayName(Ids[0]),
                         kernelDisplayName(Ids[1]));
  return runLaunches(Primary, {L}, {Grid * 256, Grid * 256});
}

SearchResult PairRunner::searchBestConfig(bool NaiveEvenSplit) {
  std::vector<std::vector<int>> Partitions = partitions();
  if (NaiveEvenSplit)
    std::erase_if(Partitions,
                  [](const std::vector<int> &D) { return D[0] != D[1]; });
  return sweep(Partitions, /*TryBound=*/!NaiveEvenSplit);
}

std::string PairRunner::fusedSource(int D1, int D2) {
  if (!Ready)
    return "";
  cuda::ASTContext Ctx;
  DiagnosticEngine Diags;
  transform::MultiFusionResult FR = transform::fuseHorizontalMany(
      Ctx, {Ks[0]->fn(), Ks[1]->fn()}, {D1, D2}, /*FusedName=*/"", Diags,
      {{Primary.W[0]->preferredBlockY(), 1},
       {Primary.W[1]->preferredBlockY(), 1}});
  if (!FR.Ok)
    return "";
  return cuda::printFunction(FR.Fused);
}
