//===-- bench/bench_compiler.cpp - Compiler-pass microbenchmarks ----------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for the HFuse toolchain itself:
/// parsing+preprocessing, horizontal fusion, lowering to SASS-lite, and
/// register allocation, on real benchmark-kernel inputs. Not a paper
/// table; sanity that the source-to-source pass is cheap (the paper's
/// cost is dominated by profiling, as is ours).
///
//===----------------------------------------------------------------------===//

#include "codegen/CodeGen.h"
#include "ir/RegAlloc.h"
#include "kernels/Kernels.h"
#include "profile/Compile.h"
#include "transform/Fusion.h"

#include <benchmark/benchmark.h>

using namespace hfuse;
using namespace hfuse::kernels;

static void BM_ParseAndPreprocess(benchmark::State &State) {
  const std::string &Source = kernelSource(BenchKernelId::Batchnorm);
  for (auto _ : State) {
    DiagnosticEngine Diags;
    auto K = transform::parseAndPreprocess(
        Source, kernelFunctionName(BenchKernelId::Batchnorm), Diags);
    benchmark::DoNotOptimize(K);
  }
}
BENCHMARK(BM_ParseAndPreprocess);

static void BM_ParseUnrolledSHA256(benchmark::State &State) {
  const std::string &Source = kernelSource(BenchKernelId::SHA256);
  for (auto _ : State) {
    DiagnosticEngine Diags;
    auto K = transform::parseAndPreprocess(
        Source, kernelFunctionName(BenchKernelId::SHA256), Diags);
    benchmark::DoNotOptimize(K);
  }
}
BENCHMARK(BM_ParseUnrolledSHA256);

static void BM_HorizontalFusion(benchmark::State &State) {
  DiagnosticEngine Diags;
  auto K1 = profile::compileBenchKernel(BenchKernelId::Batchnorm, 0, Diags);
  auto K2 = profile::compileBenchKernel(BenchKernelId::Hist, 0, Diags);
  for (auto _ : State) {
    cuda::ASTContext Target;
    DiagnosticEngine D2s;
    auto FR = transform::fuseHorizontalMany(Target, {K1->fn(), K2->fn()},
                                            {896, 128}, "", D2s);
    benchmark::DoNotOptimize(FR.Fused);
  }
}
BENCHMARK(BM_HorizontalFusion);

static void BM_FuseAndLower(benchmark::State &State) {
  DiagnosticEngine Diags;
  auto K1 = profile::compileBenchKernel(BenchKernelId::Batchnorm, 0, Diags);
  auto K2 = profile::compileBenchKernel(BenchKernelId::Hist, 0, Diags);
  for (auto _ : State) {
    cuda::ASTContext Target;
    DiagnosticEngine D2s;
    auto FR = transform::fuseHorizontalMany(Target, {K1->fn(), K2->fn()},
                                            {896, 128}, "", D2s);
    auto IR = profile::lowerFunction(Target, FR.Fused, 0, D2s);
    benchmark::DoNotOptimize(IR);
  }
}
BENCHMARK(BM_FuseAndLower);

static void BM_RegisterAllocationWithSpills(benchmark::State &State) {
  DiagnosticEngine Diags;
  for (auto _ : State) {
    State.PauseTiming();
    auto Pre = transform::parseAndPreprocess(
        kernelSource(BenchKernelId::Blake2B),
        kernelFunctionName(BenchKernelId::Blake2B), Diags);
    auto IR = codegen::compileKernel(Pre->Kernel, Diags);
    State.ResumeTiming();
    ir::RegAllocResult RA = ir::allocateRegisters(*IR, 48);
    benchmark::DoNotOptimize(RA);
  }
}
BENCHMARK(BM_RegisterAllocationWithSpills);

BENCHMARK_MAIN();
