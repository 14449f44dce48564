//===-- bench/BenchCommon.h - Shared bench harness pieces -------*- C++ -*-===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for the paper-reproduction benches: the 16 benchmark
/// pairs in the paper's order, environment-driven quick mode, and small
/// formatting helpers. Every bench prints a self-describing table whose
/// rows correspond to the paper's figure/table rows (see EXPERIMENTS.md).
///
/// Set HFUSE_QUICK=1 to shrink workloads for smoke runs.
///
//===----------------------------------------------------------------------===//

#ifndef HFUSE_BENCH_BENCHCOMMON_H
#define HFUSE_BENCH_BENCHCOMMON_H

#include "kernels/Kernels.h"
#include "profile/PairRunner.h"
#include "profile/PaperPairs.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace hfuse::bench {

/// The pair list lives in profile/PaperPairs.h so `hfusec --search all`
/// and the benches sweep the identical set; these aliases keep the
/// bench sources unchanged (unqualified paperPairs() resolves to
/// profile::paperPairs() through the benches' using-directives).
using BenchPair = profile::PaperPair;
using profile::paperPairs;

inline std::string pairName(const BenchPair &P) {
  return profile::paperPairName(P);
}

inline bool quickMode() {
  const char *Env = std::getenv("HFUSE_QUICK");
  return Env && Env[0] == '1';
}

/// One CompileCache shared by every PairRunner a bench constructs, so
/// the per-pair loops stop recompiling the nine input kernels from
/// scratch (each kernel appears in several pairs). Thread-safe; shared
/// across the cross-pair worker threads of runOrderedTasks.
inline std::shared_ptr<profile::CompileCache> sharedBenchCache() {
  static std::shared_ptr<profile::CompileCache> Cache =
      std::make_shared<profile::CompileCache>();
  return Cache;
}

/// Default runner options for bench runs (both-GPU loops pass Volta).
inline profile::PairRunner::Options benchOptions(bool Volta) {
  profile::PairRunner::Options Opts;
  Opts.Arch = Volta ? gpusim::makeV100() : gpusim::makeGTX1080Ti();
  Opts.SimSMs = quickMode() ? 2 : 3;
  Opts.Scales = {quickMode() ? 0.25 : 1.0};
  Opts.Verify = false; // benches measure; the test suite verifies
  Opts.Cache = sharedBenchCache();
  return Opts;
}

/// printf into a per-task output buffer (see runOrderedTasks).
inline void appendf(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));
inline void appendf(std::string &Out, const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list Sized;
  va_copy(Sized, Args);
  int N = std::vsnprintf(nullptr, 0, Fmt, Sized);
  va_end(Sized);
  if (N > 0) {
    size_t Old = Out.size();
    Out.resize(Old + static_cast<size_t>(N) + 1);
    std::vsnprintf(Out.data() + Old, static_cast<size_t>(N) + 1, Fmt,
                   Args);
    Out.resize(Old + static_cast<size_t>(N));
  }
  va_end(Args);
}

/// Runs \p Body(I, Out) for every I in [0, N) on a shared thread pool
/// (one pool above PairRunner — the pairs of a bench loop are
/// independent), buffering each task's text and flushing buffers to
/// stdout in index order as soon as every earlier task has finished.
/// Output is therefore byte-identical to the serial loop. The pool size
/// honours HFUSE_BENCH_JOBS (0/unset = hardware concurrency); results
/// must not depend on it — PairRunner simulations are deterministic.
inline void runOrderedTasks(
    size_t N, const std::function<void(size_t, std::string &)> &Body) {
  unsigned Jobs = ThreadPool::defaultConcurrency();
  if (const char *Env = std::getenv("HFUSE_BENCH_JOBS"))
    if (int V = std::atoi(Env); V > 0)
      Jobs = static_cast<unsigned>(V);
  Jobs = static_cast<unsigned>(
      std::min<size_t>(Jobs, std::max<size_t>(N, 1)));

  if (Jobs <= 1 || N <= 1) {
    for (size_t I = 0; I < N; ++I) {
      std::string Out;
      Body(I, Out);
      std::fputs(Out.c_str(), stdout);
      std::fflush(stdout);
    }
    return;
  }

  std::vector<std::string> Outputs(N);
  std::vector<char> Done(N, 0);
  std::mutex Mu;
  size_t NextFlush = 0;
  ThreadPool Pool(Jobs);
  for (size_t I = 0; I < N; ++I) {
    Pool.submit([&, I] {
      std::string Out;
      Body(I, Out);
      std::lock_guard<std::mutex> Lock(Mu);
      Outputs[I] = std::move(Out);
      Done[I] = 1;
      while (NextFlush < N && Done[NextFlush]) {
        std::fputs(Outputs[NextFlush].c_str(), stdout);
        std::fflush(stdout);
        Outputs[NextFlush].clear();
        ++NextFlush;
      }
    });
  }
  Pool.wait();
}

/// Benches run with the metrics registry enabled (each counter bump is
/// one relaxed atomic add — noise next to a simulation) and close their
/// JSON trajectory with one compact snapshot line via
/// emitBenchMetricsJson(). HFUSE_BENCH_METRICS=0 opts out, e.g. for
/// telemetry-overhead A/B runs. Call once at the top of main().
inline bool enableBenchMetrics() {
  const char *Env = std::getenv("HFUSE_BENCH_METRICS");
  if (Env && Env[0] == '0')
    return false;
  telemetry::setMetricsEnabled(true);
  return true;
}

/// One `{"bench":"<name>.metrics","metrics":{...}}` line on stdout:
/// the process-cumulative metrics snapshot, compact (single-line) so
/// the `grep '^{'` trajectory extraction keeps it intact. Unlike the
/// per-row trajectory lines it is cumulative telemetry, not a
/// measurement — gauges hold only their last write.
inline void emitBenchMetricsJson(const char *Bench) {
  if (!telemetry::metricsOn())
    return;
  std::printf(
      "{\"bench\":\"%s.metrics\",\"metrics\":%s}\n", Bench,
      telemetry::MetricsRegistry::instance().snapshotJson(false).c_str());
}

/// "+12.3" helper.
inline double speedupPct(uint64_t NativeCycles, uint64_t Cycles) {
  if (Cycles == 0)
    return 0.0;
  return 100.0 * (static_cast<double>(NativeCycles) / Cycles - 1.0);
}

} // namespace hfuse::bench

#endif // HFUSE_BENCH_BENCHCOMMON_H
