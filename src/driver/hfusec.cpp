//===-- driver/hfusec.cpp - HFuse command-line compiler -------------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// hfusec: the source-to-source HFuse compiler as a command-line tool.
///
///   hfusec --k1 a.cu --k2 b.cu --d1 896 --d2 128 [options]
///
/// Reads two CUDA (CuLite) files, horizontally fuses the named kernels
/// with the requested thread-space partition, and writes the fused CUDA
/// source to stdout or --out. With --vertical it emits the vertical
/// fusion baseline instead. --print-ir additionally dumps the SASS-lite
/// lowering, and --report prints resource/occupancy facts for both
/// simulated GPUs.
///
/// With --search A+B (e.g. `hfusec --search batchnorm+hist`) it runs
/// the paper's Figure 6 configuration search over named benchmark
/// kernels on the simulator instead — a pair, or three or more kernels
/// for the portfolio extension — through one search pipeline:
/// --search-jobs N evaluates candidates on N worker threads, and
/// --no-prune disables occupancy pruning. Each search builds its own
/// profile::NWayRunner with one cancellation token (a deadline under
/// --deadline-ms); SIGTERM and SIGINT cancel the running search into
/// its partial result and skip the searches after it.
///
//===----------------------------------------------------------------------===//

#include "cudalang/ASTPrinter.h"
#include "gpusim/Occupancy.h"
#include "profile/Compile.h"
#include "profile/NWayRunner.h"
#include "profile/PaperPairs.h"
#include "support/FaultInjector.h"
#include "support/Log.h"
#include "support/StringUtils.h"
#include "support/Status.h"
#include "support/Telemetry.h"
#include "transform/Fusion.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <functional>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace hfuse;

namespace {

/// Exit codes (documented in README.md). Every failure path returns one
/// of these; hfusec never exits via assert/abort on bad input or a
/// failing candidate.
enum ExitCode : int {
  ExitOk = 0,             ///< success
  ExitUsage = 1,          ///< bad command line or unreadable file
  ExitBadInput = 2,       ///< input kernel rejected (parse/sema)
  ExitFusionFailed = 3,   ///< fusion or fused-kernel lowering failed
  ExitSearchDegraded = 4, ///< search failed; native baseline emitted
  ExitInternal = 5,       ///< everything else (a bug, not an input)
  ExitStoreDegraded = 6,  ///< search succeeded, but the --cache-dir
                          ///< store degraded to in-memory mid-run
  ExitPartial = 7,        ///< a search was cancelled, deadlined or
                          ///< interrupted: anytime (partial) results were
                          ///< emitted, with the unvisited candidates
                          ///< accounted
};

/// The exit code for input kernels that failed to build, matching fuse
/// mode's code for the same failure.
ExitCode inputFailureExit(ErrorCode Code) {
  switch (Code) {
  case ErrorCode::ParseError:
  case ErrorCode::SemaError:
    return ExitBadInput;
  case ErrorCode::CodegenError:
  case ErrorCode::RegAllocError:
    return ExitFusionFailed;
  default:
    return ExitInternal;
  }
}

struct CliOptions {
  std::string File1, File2;
  std::string Kernel1, Kernel2;
  int D1 = 512, D2 = 512;
  int Y1 = 1, Z1 = 1, Y2 = 1, Z2 = 1;
  unsigned RegBound = 0;
  std::string OutFile;
  bool Vertical = false;
  bool PrintIR = false;
  bool Report = false;
  bool FullBarriers = false;
  // Figure 6 search mode. SearchPair also accepts 3+ "+"-joined names
  // (the N-way portfolio search).
  std::string SearchPair;
  /// N-way portfolio sweep over a kernel pool: "crypto", "dl", "all",
  /// or a comma-separated kernel list ("" = off).
  std::string Portfolio;
  /// Kernels per portfolio group (size of the enumerated subsets).
  int PortfolioSize = 3;
  int SearchJobs = 1;
  bool Prune = true;
  /// Incumbent-driven branch-and-bound is the default: it returns
  /// bit-identical Best configs while skipping most of the work of
  /// slow candidates. --search-budget=off restores the exhaustive
  /// sweep.
  profile::SearchBudgetMode Budget = profile::SearchBudgetMode::Incumbent;
  bool Volta = false;
  bool Quick = false;
  /// Simulator watchdog window in cycles (0 = off): abandon a candidate
  /// simulation as deadlocked when the scheduler makes no progress for
  /// this long, instead of burning the full cycle limit.
  uint64_t WatchdogCycles = 0;
  /// Wall-clock timeout per simulation in ms (0 = off).
  uint64_t TimeoutMs = 0;
  /// Fault-injection spec (see support/FaultInjector.h), for testing
  /// the containment story end-to-end. The special value "list" prints
  /// the valid sites and exits.
  std::string FaultSpec;
  /// On-disk ResultStore directory ("" = in-memory caching only).
  std::string CacheDir;
  /// Max attempts for transiently-failing compiles (1 = never retry).
  int CompileRetries = 3;
  /// Observability outputs (see README "Observability"). Both are
  /// written on every exit path, including degraded searches.
  std::string MetricsFile; ///< --metrics: JSON snapshot of the registry
  std::string TraceFile;   ///< --trace: Chrome trace_event JSON
  bool Explain = false;    ///< --explain: search-funnel report
  /// --deadline-ms: per-search deadline (see README "Request
  /// lifecycle"). A deadlined or interrupted search still emits its
  /// best-so-far results (exit code 7) with every skipped candidate
  /// accounted.
  uint64_t DeadlineMs = 0;
};

void printUsage() {
  std::fprintf(
      stderr,
      "usage: hfusec --k1 FILE --k2 FILE [options]\n"
      "\n"
      "Horizontally fuses two CUDA kernels (HFuse, CGO 2022).\n"
      "\n"
      "options:\n"
      "  --k1 FILE        first input kernel file\n"
      "  --k2 FILE        second input kernel file\n"
      "  --kernel1 NAME   kernel name in file 1 (default: the only one)\n"
      "  --kernel2 NAME   kernel name in file 2\n"
      "  --d1 N           threads for kernel 1 (default 512)\n"
      "  --d2 N           threads for kernel 2 (default 512)\n"
      "  --y1 N --z1 N    block .y/.z extents of kernel 1 (default 1;\n"
      "                   --d1 must be divisible by y1*z1, paper Fig. 4)\n"
      "  --y2 N --z2 N    block .y/.z extents of kernel 2\n"
      "  --maxrregcount N register bound for the lowering report\n"
      "  --vertical       emit the vertical fusion baseline instead\n"
      "  --full-barriers  keep __syncthreads() (unsound ablation)\n"
      "  --print-ir       also dump the SASS-lite lowering\n"
      "  --report         print registers/shared/occupancy for both GPUs\n"
      "  --out FILE       write the fused source here (default stdout)\n"
      "\n"
      "search mode (paper Figure 6, on the simulator):\n"
      "  --search A+B     sweep fusion configs for a benchmark pair,\n"
      "                   e.g. --search batchnorm+hist (names as in the\n"
      "                   paper; case-insensitive); --search all sweeps\n"
      "                   the paper's 16 pairs in Figure 9 order,\n"
      "                   sharing one compile cache across pairs;\n"
      "                   3+ names run the same search over more\n"
      "                   kernels, e.g. --search blake256+sha256+ethash\n"
      "  --portfolio POOL sweep every --portfolio-size subset of a\n"
      "                   kernel pool with the N-way search: 'crypto',\n"
      "                   'dl', 'all', or comma-separated kernel names;\n"
      "                   one compile cache serves every group, so each\n"
      "                   kernel compiles once for the whole sweep\n"
      "  --portfolio-size N\n"
      "                   kernels per portfolio group (default 3)\n"
      "  --search-jobs N  evaluate candidates on N worker threads\n"
      "                   (0 = all hardware threads; default 1)\n"
      "  --no-prune       disable occupancy pruning (measure every\n"
      "                   candidate; Best never changes)\n"
      "  --search-budget=off|incumbent\n"
      "                   incumbent (default): seed an incumbent from\n"
      "                   the most promising candidate, then abandon\n"
      "                   any candidate the moment its cycles provably\n"
      "                   exceed it — bit-identical Best, far fewer\n"
      "                   simulated instructions; off: simulate every\n"
      "                   candidate to completion\n"
      "  --cache-dir DIR  persist simulation results in a crash-safe\n"
      "                   on-disk store (see README): warm reruns serve\n"
      "                   bit-identical results from disk; torn/corrupt\n"
      "                   records are quarantined, never trusted; a\n"
      "                   locked or failing store degrades the run to\n"
      "                   in-memory (exit code 6, results still correct)\n"
      "  --volta          search for the V100 instead of the GTX 1080 Ti\n"
      "  --quick          small workloads (smoke-test scale)\n"
      "\n"
      "observability (zero overhead unless requested; never affects\n"
      "results — cycles and Best are bit-identical with it on or off):\n"
      "  --metrics FILE   write a JSON metrics snapshot (counters,\n"
      "                   gauges, histograms: cache hits, store traffic,\n"
      "                   retries, search funnel, simulated work) on\n"
      "                   exit, on every exit path\n"
      "  --trace FILE     write a Chrome trace_event JSON timeline of\n"
      "                   the run (per-candidate compile/fuse/simulate\n"
      "                   spans, store operations, retry backoffs) on\n"
      "                   exit; load in chrome://tracing or Perfetto\n"
      "  --explain        print the search funnel after each search:\n"
      "                   candidate ledger, per-phase wall time, and\n"
      "                   the near-winning configs (implies tracing)\n"
      "  HFUSE_LOG=LEVEL  stderr diagnostics: error|warn|info|debug\n"
      "                   (default warn)\n"
      "\n"
      "request lifecycle (search mode; see README):\n"
      "  --deadline-ms N  per-search deadline: a search still running\n"
      "                   after N ms stops at the next candidate\n"
      "                   boundary and emits its best-so-far result\n"
      "                   with the unvisited candidates listed (exit\n"
      "                   code 7); 0 = no deadline (default)\n"
      "  SIGTERM/SIGINT   cancel the running search into its partial\n"
      "                   result and skip the rest (exit code 7)\n"
      "\n"
      "robustness:\n"
      "  --sim-watchdog N abandon a candidate simulation as deadlocked\n"
      "                   when the scheduler makes no progress for N\n"
      "                   cycles (deterministic abort point; 0 = off,\n"
      "                   default off)\n"
      "  --timeout MS     wall-clock timeout per simulation in\n"
      "                   milliseconds (non-deterministic fence for\n"
      "                   untrusted inputs; 0 = off)\n"
      "  --fault SPEC     deterministic fault injection, e.g.\n"
      "                   'compile:nth=2;sim-wedge:label=896' (also via\n"
      "                   HFUSE_FAULT; see support/FaultInjector.h);\n"
      "                   --fault list prints the valid sites\n"
      "  --compile-retries N\n"
      "                   attempts for transiently-failing kernel\n"
      "                   compiles, deterministic backoff (default 3;\n"
      "                   1 = never retry)\n"
      "\n"
      "exit codes: 0 success; 1 usage/IO; 2 input kernel rejected\n"
      "(parse/sema); 3 fusion or lowering failed; 4 search degraded\n"
      "(native baseline emitted); 5 internal error; 6 search succeeded\n"
      "but the --cache-dir store degraded to in-memory; 7 cancelled or\n"
      "deadlined: partial (best-so-far) results emitted\n");
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s expects a value\n", Arg.c_str());
        return nullptr;
      }
      return Argv[++I];
    };
    if (Arg == "--k1") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.File1 = V;
    } else if (Arg == "--k2") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.File2 = V;
    } else if (Arg == "--kernel1") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.Kernel1 = V;
    } else if (Arg == "--kernel2") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.Kernel2 = V;
    } else if (Arg == "--d1") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.D1 = std::atoi(V);
    } else if (Arg == "--d2") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.D2 = std::atoi(V);
    } else if (Arg == "--y1" || Arg == "--z1" || Arg == "--y2" ||
               Arg == "--z2") {
      const char *V = Next();
      if (!V)
        return false;
      int N = std::atoi(V);
      if (Arg == "--y1")
        Opts.Y1 = N;
      else if (Arg == "--z1")
        Opts.Z1 = N;
      else if (Arg == "--y2")
        Opts.Y2 = N;
      else
        Opts.Z2 = N;
    } else if (Arg == "--maxrregcount") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.RegBound = static_cast<unsigned>(std::atoi(V));
    } else if (Arg == "--out") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.OutFile = V;
    } else if (Arg == "--search") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.SearchPair = V;
    } else if (Arg == "--search-jobs") {
      const char *V = Next();
      if (!V)
        return false;
      char *End = nullptr;
      long N = std::strtol(V, &End, 10);
      if (End == V || *End != '\0') {
        std::fprintf(stderr,
                     "error: --search-jobs expects an integer, got '%s'\n",
                     V);
        return false;
      }
      Opts.SearchJobs = static_cast<int>(N);
    } else if (Arg == "--no-prune") {
      Opts.Prune = false;
    } else if (Arg == "--search-budget" ||
               Arg.rfind("--search-budget=", 0) == 0) {
      std::string V;
      if (Arg == "--search-budget") {
        const char *N = Next();
        if (!N)
          return false;
        V = N;
      } else {
        V = Arg.substr(std::strlen("--search-budget="));
      }
      if (V == "off") {
        Opts.Budget = profile::SearchBudgetMode::Off;
      } else if (V == "incumbent") {
        Opts.Budget = profile::SearchBudgetMode::Incumbent;
      } else {
        std::fprintf(stderr,
                     "error: --search-budget expects 'off' or "
                     "'incumbent', got '%s'\n",
                     V.c_str());
        return false;
      }
    } else if (Arg == "--portfolio") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.Portfolio = V;
    } else if (Arg == "--portfolio-size") {
      const char *V = Next();
      if (!V)
        return false;
      char *End = nullptr;
      long N = std::strtol(V, &End, 10);
      if (End == V || *End != '\0' || N < 3 || N > 15) {
        std::fprintf(stderr,
                     "error: --portfolio-size expects an integer in "
                     "[3, 15], got '%s'\n",
                     V);
        return false;
      }
      Opts.PortfolioSize = static_cast<int>(N);
    } else if (Arg == "--sim-watchdog" || Arg == "--timeout" ||
               Arg == "--deadline-ms") {
      const char *V = Next();
      if (!V)
        return false;
      char *End = nullptr;
      unsigned long long N = std::strtoull(V, &End, 10);
      if (End == V || *End != '\0') {
        std::fprintf(stderr, "error: %s expects a non-negative integer, "
                             "got '%s'\n",
                     Arg.c_str(), V);
        return false;
      }
      if (Arg == "--sim-watchdog")
        Opts.WatchdogCycles = N;
      else if (Arg == "--timeout")
        Opts.TimeoutMs = N;
      else
        Opts.DeadlineMs = N;
    } else if (Arg == "--fault") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.FaultSpec = V;
    } else if (Arg == "--cache-dir") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.CacheDir = V;
    } else if (Arg == "--compile-retries") {
      const char *V = Next();
      if (!V)
        return false;
      char *End = nullptr;
      long N = std::strtol(V, &End, 10);
      if (End == V || *End != '\0' || N < 1) {
        std::fprintf(stderr,
                     "error: --compile-retries expects a positive "
                     "integer, got '%s'\n",
                     V);
        return false;
      }
      Opts.CompileRetries = static_cast<int>(N);
    } else if (Arg == "--metrics") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.MetricsFile = V;
    } else if (Arg == "--trace") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.TraceFile = V;
    } else if (Arg == "--explain") {
      Opts.Explain = true;
    } else if (Arg == "--volta") {
      Opts.Volta = true;
    } else if (Arg == "--quick") {
      Opts.Quick = true;
    } else if (Arg == "--vertical") {
      Opts.Vertical = true;
    } else if (Arg == "--full-barriers") {
      Opts.FullBarriers = true;
    } else if (Arg == "--print-ir") {
      Opts.PrintIR = true;
    } else if (Arg == "--report") {
      Opts.Report = true;
    } else if (Arg == "--help" || Arg == "-h") {
      printUsage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return false;
    }
  }
  if (Opts.FaultSpec == "list") {
    std::printf("fault sites:\n");
    for (FaultSite S : allFaultSites())
      std::printf("  %s\n", faultSiteName(S));
    std::exit(0);
  }
  if (Opts.SearchPair.empty() && Opts.Portfolio.empty() &&
      (Opts.File1.empty() || Opts.File2.empty())) {
    printUsage();
    return false;
  }
  return true;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

void printReport(const ir::IRKernel &IR, int BlockDim) {
  std::printf("// fused kernel resources:\n");
  std::printf("//   registers/thread : %u\n", IR.ArchRegsPerThread);
  std::printf("//   static shared    : %u bytes\n", IR.StaticSharedBytes);
  std::printf("//   local (spills)   : %u bytes/thread\n", IR.LocalBytes);
  std::printf("//   instructions     : %zu\n", IR.numInstructions());
  for (const gpusim::GpuArch &Arch :
       {gpusim::makeGTX1080Ti(), gpusim::makeV100()}) {
    gpusim::OccupancyResult Occ = gpusim::computeOccupancy(
        Arch, BlockDim, static_cast<int>(IR.ArchRegsPerThread),
        IR.StaticSharedBytes);
    std::printf("//   %-10s: %d blocks/SM, %.1f%% theoretical occupancy\n",
                Arch.Name.c_str(), Occ.BlocksPerSM,
                100.0 * Occ.TheoreticalOccupancy);
  }
}

/// Difference of two Tracer::aggregate() snapshots (both sorted by
/// (cat, name)), so a multi-pair run can report per-pair phase times.
std::vector<telemetry::SpanAgg>
aggregateDelta(const std::vector<telemetry::SpanAgg> &Before,
               const std::vector<telemetry::SpanAgg> &After) {
  std::vector<telemetry::SpanAgg> Out;
  size_t BI = 0;
  for (const telemetry::SpanAgg &A : After) {
    while (BI < Before.size() &&
           (Before[BI].Cat < A.Cat ||
            (Before[BI].Cat == A.Cat && Before[BI].Name < A.Name)))
      ++BI;
    telemetry::SpanAgg D = A;
    if (BI < Before.size() && Before[BI].Cat == A.Cat &&
        Before[BI].Name == A.Name) {
      D.Count -= Before[BI].Count;
      D.TotalUs -= Before[BI].TotalUs;
    }
    if (D.Count)
      Out.push_back(std::move(D));
  }
  return Out;
}

/// This request's share of the process-wide cache counters: one cache
/// serves a whole --search all or --portfolio run.
profile::CompileCache::Stats
statsSince(const profile::CompileCache::Stats &Before,
           const profile::CompileCache::Stats &After) {
  using S = profile::CompileCache::Stats;
  S D;
  for (uint64_t S::*F :
       {&S::KernelCompiles, &S::KernelHits, &S::FusionRuns, &S::FusionHits,
        &S::Lowerings, &S::LoweringHits, &S::SimRuns, &S::SimMemoHits,
        &S::CompileRetries, &S::DiskHits, &S::DiskMisses, &S::DiskWrites})
    D.*F = After.*F - Before.*F;
  return D;
}

/// The `cache:` summary line (and `compile retries:` when any).
void printCacheStats(const profile::CompileCache::Stats &CS) {
  std::printf("cache: %llu kernel compiles (%llu hits), %llu fusions "
              "(%llu hits), %llu lowerings (%llu hits)\n",
              static_cast<unsigned long long>(CS.KernelCompiles),
              static_cast<unsigned long long>(CS.KernelHits),
              static_cast<unsigned long long>(CS.FusionRuns),
              static_cast<unsigned long long>(CS.FusionHits),
              static_cast<unsigned long long>(CS.Lowerings),
              static_cast<unsigned long long>(CS.LoweringHits));
  if (CS.CompileRetries)
    std::printf("compile retries: %llu\n",
                static_cast<unsigned long long>(CS.CompileRetries));
}

/// The `store:` summary line. Quarantined records are the store's
/// total: most are moved aside when it opens, before any request.
void printStoreStats(const profile::CompileCache::Stats &CS,
                     const ResultStore &Store) {
  std::printf("store: %llu disk hits, %llu disk misses, %llu writes, "
              "%llu quarantined%s\n",
              static_cast<unsigned long long>(CS.DiskHits),
              static_cast<unsigned long long>(CS.DiskMisses),
              static_cast<unsigned long long>(CS.DiskWrites),
              static_cast<unsigned long long>(Store.stats().Quarantined),
              Store.degraded() ? ", degraded" : "");
}

/// The leading columns of a search table row for a partition: Figure
/// 6's d1 and d2 for a pair, the "/"-joined dims for more kernels.
std::string configCols(const std::vector<int> &Dims) {
  return Dims.size() == 2
             ? formatString("%8d %8d", Dims[0], Dims[1])
             : formatString("%-20s", profile::dimsLabel(Dims).c_str());
}

/// The same columns holding text: \p D1 and \p D2 for a pair, \p Dims
/// for more kernels.
std::string textCols(bool Pair, const char *D1, const char *D2,
                     const char *Dims) {
  return Pair ? formatString("%8s %8s", D1, D2)
              : formatString("%-20s", Dims);
}

/// A partition as --explain names it; \p Aligned pads it for the ranked
/// table.
std::string explainConfig(const std::vector<int> &Dims, bool Aligned) {
  if (Dims.size() == 2)
    return Aligned ? formatString("d1=%4d d2=%4d", Dims[0], Dims[1])
                   : formatString("d1=%d d2=%d", Dims[0], Dims[1]);
  std::string L = profile::dimsLabel(Dims);
  return Aligned ? formatString("dims=%-18s", L.c_str())
                 : formatString("dims=%s", L.c_str());
}

/// --explain: the search funnel. Ledger counts come from the search's
/// canonical accounting (deterministic across jobs); phase wall times
/// come from the trace spans of this search.
void printExplain(const profile::SearchResult &SR,
                  const std::vector<telemetry::SpanAgg> &Spans) {
  std::printf("\nsearch funnel [%s]:\n", SR.RunId.c_str());
  std::printf("  %-10s %5u\n", "candidates", SR.Stats.Candidates);
  std::printf("  %-10s %5u\n", "pruned", SR.Stats.Pruned);
  std::printf("  %-10s %5u\n", "abandoned", SR.Stats.Abandoned);
  std::printf("  %-10s %5u\n", "failed", SR.Stats.Failed);
  if (SR.Stats.Unvisited)
    std::printf("  %-10s %5u  (request %s)\n", "unvisited",
                SR.Stats.Unvisited,
                errorCodeName(SR.PartialReason.code()));
  std::printf("  %-10s %5u  (+%u memoized)\n", "simulated",
              SR.Stats.Simulations, SR.Stats.MemoHits);
  std::printf("  %-10s c%d: %s bound=%u, %llu cycles\n", "best", SR.Best.Id,
              explainConfig(SR.Best.Dims, /*Aligned=*/false).c_str(),
              SR.Best.RegBound,
              static_cast<unsigned long long>(SR.Best.Cycles));

  bool Header = false;
  for (const telemetry::SpanAgg &S : Spans) {
    if (S.Cat != "phase")
      continue;
    if (!Header) {
      std::printf("  phase wall time:\n");
      Header = true;
    }
    std::printf("    %-9s %9.2f ms\n", S.Name.c_str(), S.TotalUs / 1e3);
  }

  // Near-winners: every measured config ranked by cycles, best first.
  std::vector<const profile::FusionCandidate *> Ranked;
  Ranked.reserve(SR.All.size());
  for (const profile::FusionCandidate &C : SR.All)
    Ranked.push_back(&C);
  std::sort(Ranked.begin(), Ranked.end(),
            [](const profile::FusionCandidate *X,
               const profile::FusionCandidate *Y) {
              return X->Cycles != Y->Cycles ? X->Cycles < Y->Cycles
                                            : X->Id < Y->Id;
            });
  size_t K = std::min<size_t>(5, Ranked.size());
  std::printf("  top %zu measured configs:\n", K);
  for (size_t I = 0; I < K; ++I) {
    const profile::FusionCandidate &C = *Ranked[I];
    double Pct = SR.Best.Cycles
                     ? 100.0 * (static_cast<double>(C.Cycles) /
                                    static_cast<double>(SR.Best.Cycles) -
                                1.0)
                     : 0.0;
    std::printf("    c%-3d %s bound=%3u %12llu cycles  +%.2f%%\n", C.Id,
                explainConfig(C.Dims, /*Aligned=*/true).c_str(), C.RegBound,
                static_cast<unsigned long long>(C.Cycles), Pct);
  }
}

/// One search. A pair prints the paper's Figure 6 table; three or more
/// kernels add the concurrent-streams and sequential baseline rows and
/// the verdict line, so the fused winner's standing is visible in one
/// table.
int searchOne(const CliOptions &Opts,
              const std::vector<kernels::BenchKernelId> &Ids,
              const std::shared_ptr<profile::CompileCache> &Cache,
              const std::shared_ptr<ResultStore> &Store,
              uint64_t *WinnerCycles = nullptr,
              std::string *WinnerDesc = nullptr) {
  profile::NWayRunner::Options RO;
  RO.Arch = Opts.Volta ? gpusim::makeV100() : gpusim::makeGTX1080Ti();
  RO.SimSMs = Opts.Quick ? 2 : 3;
  RO.Scales = {Opts.Quick ? 0.25 : 1.0};
  RO.Verify = false;
  RO.SearchJobs = Opts.SearchJobs;
  RO.Prune = Opts.Prune;
  RO.Budget = Opts.Budget;
  RO.WatchdogCycles = Opts.WatchdogCycles;
  RO.WallTimeoutMs = Opts.TimeoutMs;
  RO.Cache = Cache;
  // One live token per search, so an interrupt or the deadline reaches
  // every phase (the deadline runs from here, input compilation
  // included).
  RO.Cancel = Opts.DeadlineMs
                  ? CancellationToken::withDeadlineMs(Opts.DeadlineMs)
                  : CancellationToken::make();
  const CancellationToken Cancel = RO.Cancel;

  const bool Pair = Ids.size() == 2;
  std::string Names;
  for (size_t I = 0; I < Ids.size(); ++I) {
    if (I)
      Names += "+";
    Names += kernels::kernelDisplayName(Ids[I]);
  }
  const std::string Title =
      Pair ? formatString("Figure 6 search: %s + %s on %s\n",
                          kernels::kernelDisplayName(Ids[0]),
                          kernels::kernelDisplayName(Ids[1]),
                          RO.Arch.Name.c_str())
           : formatString("N-way search: %s on %s\n", Names.c_str(),
                          RO.Arch.Name.c_str());

  // Per-search baselines for the summary counters and the --explain
  // phase times (the cache and the tracer are process-wide; a --search
  // all run accumulates across searches).
  const profile::CompileCache::Stats CacheBefore = Cache->stats();
  std::vector<telemetry::SpanAgg> AggBefore;
  if (Opts.Explain)
    AggBefore = telemetry::Tracer::instance().aggregate();

  profile::NWayRunner Runner(Ids, std::move(RO));
  const profile::SearchResult SR = Runner.searchBestConfig();
  // The unfused baselines, unless the search was cancelled (an
  // interrupted run does nothing after its search) or never started.
  // Three or more kernels always run both: the portfolio verdict
  // compares the fused winner against both ways of running them
  // unfused. A pair runs the native one only when its search failed,
  // so the degraded row still answers "how fast without fusion".
  std::optional<gpusim::SimResult> Native, Serial;
  if (Runner.ok() && !Cancel.cancelled()) {
    if (!Pair) {
      Native = Runner.runNative();
      if (SR.Ok)
        Serial = Runner.runSerial();
    } else if (!SR.Ok) {
      Native = Runner.runNative();
    }
  }

  if (!SR.Ok && SR.Partial) {
    // The cancel/deadline landed before any candidate was measured:
    // there is no best-so-far, but the ledger still accounts for every
    // candidate, so print it and exit with the partial code.
    std::fprintf(stderr, "search cancelled before any measurement: %s\n",
                 SR.Err.str().c_str());
    std::fputs(Title.c_str(), stdout);
    std::printf("partial: %s; %u of %u candidates unvisited\n",
                errorCodeName(SR.PartialReason.code()), SR.Stats.Unvisited,
                SR.Stats.Candidates);
    return ExitPartial;
  }
  if (!SR.Ok) {
    // Graceful degradation: the fused-kernel search failed, but the
    // native (unfused) baseline still answers "how fast are these
    // kernels without fusion". Emit it marked degraded:<error code> and
    // exit with the documented distinct code.
    std::fprintf(stderr, "search failed: %s\n", SR.Err.str().c_str());
    if (!Native || !Native->Ok) {
      std::fprintf(stderr, "native baseline failed too: %s\n",
                   Native ? Native->Error.c_str() : "(not run)");
      return Runner.ok() ? ExitInternal : inputFailureExit(SR.Err.code());
    }
    std::fputs(Title.c_str(), stdout);
    std::printf("%s %8s %14s %10s\n",
                textCols(Pair, "d1", "d2", "dims").c_str(), "bound",
                "cycles", "time(ms)");
    std::printf("%s %8s %14llu %10.3f  degraded:%s\n",
                textCols(Pair, "-", "-", "streams").c_str(), "-",
                static_cast<unsigned long long>(Native->TotalCycles),
                Native->TotalMs, errorCodeName(SR.Err.code()));
    return ExitSearchDegraded;
  }

  std::fputs(Title.c_str(), stdout);
  std::printf("%s %8s %14s %10s %9s\n",
              textCols(Pair, "d1", "d2", "dims").c_str(), "bound", "cycles",
              "time(ms)", "blk/SM");
  // Baseline rows: a search of 3+ kernels carries both.
  if (Native && Native->Ok)
    std::printf("%-20s %8s %14llu %10.3f %9s  (concurrent baseline)\n",
                "streams", "-",
                static_cast<unsigned long long>(Native->TotalCycles),
                Native->TotalMs, "-");
  if (Serial && Serial->Ok)
    std::printf("%-20s %8s %14llu %10.3f %9s  (sequential baseline)\n",
                "serial", "-",
                static_cast<unsigned long long>(Serial->TotalCycles),
                Serial->TotalMs, "-");
  for (const profile::FusionCandidate &C : SR.All)
    std::printf("%s %8u %14llu %10.3f %9d%s\n", configCols(C.Dims).c_str(),
                C.RegBound, static_cast<unsigned long long>(C.Cycles),
                C.TimeMs,
                C.Result.Kernels.empty()
                    ? 0
                    : C.Result.Kernels[0].TheoreticalBlocksPerSM,
                C.Id == SR.Best.Id ? "  <-- best" : "");
  // The c<id> is the candidate's canonical enumeration index — the
  // same id the trace spans and --explain carry, so rows join across
  // the three views.
  for (const profile::FailedCandidate &F : SR.Failed)
    std::printf("%s %8u         failed [c%d]: %s\n",
                configCols(F.Dims).c_str(), F.RegBound, F.Id,
                F.Err.str().c_str());
  for (const profile::PrunedCandidate &P : SR.Pruned)
    std::printf("%s %8u         pruned [c%d]: %s\n",
                configCols(P.Dims).c_str(), P.RegBound, P.Id,
                P.Reason.c_str());
  for (const profile::AbandonedCandidate &A : SR.Abandoned)
    std::printf("%s %8u         abandoned [c%d] at cycle %llu (%llu "
                "instructions issued)\n",
                configCols(A.Dims).c_str(), A.RegBound, A.Id,
                static_cast<unsigned long long>(A.BudgetCycles),
                static_cast<unsigned long long>(A.IssuedInsts));
  // Unvisited rows: the sweep never reached these before the request
  // was cancelled/deadlined; "?" marks a bounded trial cut off before
  // its register bound was even computed.
  for (const profile::UnvisitedCandidate &U : SR.Unvisited)
    std::printf("%s %8s         unvisited [c%d]\n",
                configCols(U.Dims).c_str(),
                U.BoundPending ? "?" : std::to_string(U.RegBound).c_str(),
                U.Id);

  if (WinnerCycles)
    *WinnerCycles = SR.Best.Cycles;
  if (WinnerDesc)
    *WinnerDesc = formatString("%s dims=%s bound=%u", Names.c_str(),
                               profile::dimsLabel(SR.Best.Dims).c_str(),
                               SR.Best.RegBound);

  // The portfolio verdict: did the fused winner beat running the
  // kernels separately (both ways of doing that)?
  uint64_t BaselineCycles = 0;
  if (Native && Native->Ok)
    BaselineCycles = Native->TotalCycles;
  if (Serial && Serial->Ok &&
      (BaselineCycles == 0 || Serial->TotalCycles < BaselineCycles))
    BaselineCycles = Serial->TotalCycles;
  if (BaselineCycles && SR.Best.Cycles)
    std::printf("\nbest fused config %s the best unfused baseline: "
                "%.3fx (%llu vs %llu cycles)\n",
                SR.Best.Cycles < BaselineCycles ? "beats" : "loses to",
                static_cast<double>(BaselineCycles) /
                    static_cast<double>(SR.Best.Cycles),
                static_cast<unsigned long long>(SR.Best.Cycles),
                static_cast<unsigned long long>(BaselineCycles));

  const profile::CompileCache::Stats CS =
      statsSince(CacheBefore, Cache->stats());
  std::printf("\n%u candidates, %u simulated, %u memoized, %u pruned, "
              "%u abandoned, %u failed, %u unvisited in %.1f ms (%s jobs)\n",
              SR.Stats.Candidates, SR.Stats.Simulations, SR.Stats.MemoHits,
              SR.Stats.Pruned, SR.Stats.Abandoned, SR.Stats.Failed,
              SR.Stats.Unvisited, SR.Stats.WallMs,
              Opts.SearchJobs <= 0
                  ? "auto"
                  : std::to_string(Opts.SearchJobs).c_str());
  if (Opts.Budget != profile::SearchBudgetMode::Off)
    std::printf("budget: %s %llu cycles; %llu of %llu simulated "
                "instructions spent on abandoned candidates\n",
                profile::searchBudgetModeName(Opts.Budget),
                static_cast<unsigned long long>(SR.Stats.IncumbentCycles),
                static_cast<unsigned long long>(SR.Stats.AbandonedInsts),
                static_cast<unsigned long long>(SR.Stats.SimulatedInsts));
  printCacheStats(CS);
  if (Opts.Explain)
    printExplain(SR, aggregateDelta(
                         AggBefore, telemetry::Tracer::instance().aggregate()));
  if (Store) {
    printStoreStats(CS, *Store);
    // The answer is correct either way — every store fault degrades to
    // an in-memory run, never a wrong result — but scripts that rely
    // on warm reruns being cheap deserve a machine-readable signal.
    if (Store->degraded() && !SR.Partial)
      return ExitStoreDegraded;
  }
  if (SR.Partial) {
    // Anytime result: Best is the best of what WAS measured; the
    // unvisited rows above say exactly what was not. Partial takes
    // precedence over store degradation in the exit code — an
    // incomplete answer is the more important signal.
    std::printf("partial: %s; best-so-far shown, %u of %u candidates "
                "unvisited\n",
                errorCodeName(SR.PartialReason.code()), SR.Stats.Unvisited,
                SR.Stats.Candidates);
    return ExitPartial;
  }
  return ExitOk;
}

/// The SIGTERM/SIGINT handler: one lock-free store, async-signal-safe.
void onInterruptSignal(int) { CancellationToken::interruptAll(); }

/// Resolves a --portfolio pool name into the kernel list, in canonical
/// (paper) order.
bool resolvePortfolioPool(const std::string &Pool,
                          std::vector<kernels::BenchKernelId> &Out) {
  if (Pool == "all") {
    Out = kernels::allKernels();
    return true;
  }
  if (Pool == "dl") {
    Out = kernels::deepLearningKernels();
    return true;
  }
  if (Pool == "crypto") {
    Out = kernels::cryptoKernels();
    return true;
  }
  size_t Start = 0;
  while (Start <= Pool.size()) {
    size_t Comma = Pool.find(',', Start);
    std::string Name = Pool.substr(
        Start, Comma == std::string::npos ? std::string::npos
                                          : Comma - Start);
    if (!Name.empty()) {
      std::optional<kernels::BenchKernelId> Id = kernels::kernelIdByName(Name);
      if (!Id) {
        std::fprintf(stderr, "error: --portfolio: unknown kernel '%s'\n",
                     Name.c_str());
        return false;
      }
      Out.push_back(*Id);
    }
    if (Comma == std::string::npos)
      break;
    Start = Comma + 1;
  }
  if (Out.empty()) {
    std::fprintf(stderr, "error: --portfolio expects 'crypto', 'dl', "
                         "'all', or a comma-separated kernel list\n");
    return false;
  }
  return true;
}

int runSearch(const CliOptions &Opts) {
  // The kernel sets to search, in order: a pair runs the paper's
  // Figure 6 sweep, three or more kernels the portfolio extension.
  std::vector<std::vector<kernels::BenchKernelId>> Groups;
  if (!Opts.Portfolio.empty()) {
    // --portfolio: every size-N subset of the pool, in canonical pool
    // order, each searched with the N-way sweep.
    std::vector<kernels::BenchKernelId> Pool;
    if (!resolvePortfolioPool(Opts.Portfolio, Pool))
      return ExitUsage;
    const size_t N = static_cast<size_t>(Opts.PortfolioSize);
    if (Pool.size() < N) {
      std::fprintf(stderr,
                   "error: --portfolio pool has %zu kernels, need at "
                   "least --portfolio-size (%zu)\n",
                   Pool.size(), N);
      return ExitUsage;
    }
    std::vector<kernels::BenchKernelId> Cur;
    std::function<void(size_t)> Rec = [&](size_t From) {
      if (Cur.size() == N) {
        Groups.push_back(Cur);
        return;
      }
      for (size_t I = From;
           I + (N - Cur.size()) <= Pool.size(); ++I) {
        Cur.push_back(Pool[I]);
        Rec(I + 1);
        Cur.pop_back();
      }
    };
    Rec(0);
  } else if (Opts.SearchPair == "all") {
    for (const profile::PaperPair &P : profile::paperPairs())
      Groups.push_back({P.A, P.B});
  } else {
    // Split on every '+'.
    std::vector<kernels::BenchKernelId> Ids;
    size_t Start = 0;
    bool Bad = false;
    while (Start <= Opts.SearchPair.size()) {
      size_t Plus = Opts.SearchPair.find('+', Start);
      std::string Name = Opts.SearchPair.substr(
          Start,
          Plus == std::string::npos ? std::string::npos : Plus - Start);
      auto Id = kernels::kernelIdByName(Name);
      if (!Id) {
        Bad = true;
        break;
      }
      Ids.push_back(*Id);
      if (Plus == std::string::npos)
        break;
      Start = Plus + 1;
    }
    if (Bad || Ids.size() < 2) {
      std::fprintf(stderr,
                   "error: --search expects '+'-joined kernel names (e.g. "
                   "batchnorm+hist, blake256+sha256+ethash) or 'all'\n");
      std::fprintf(stderr, "known kernels:");
      for (kernels::BenchKernelId Id : kernels::allKernels())
        std::fprintf(stderr, " %s", kernels::kernelDisplayName(Id));
      for (kernels::BenchKernelId Id : kernels::extensionKernels())
        std::fprintf(stderr, " %s", kernels::kernelDisplayName(Id));
      std::fprintf(stderr, "\n");
      return ExitUsage;
    }
    Groups.push_back(std::move(Ids));
  }

  // One compile cache (and, with --cache-dir, one store) for the whole
  // invocation: a --search all sweep reuses the nine input kernels'
  // compilations across pairs, like the benches do.
  auto Cache = std::make_shared<profile::CompileCache>();
  Cache->setRetryPolicy(RetryPolicy{Opts.CompileRetries, /*BackoffBaseMs=*/5});
  std::shared_ptr<ResultStore> Store;
  if (!Opts.CacheDir.empty()) {
    Status StoreErr;
    Store = ResultStore::open(Opts.CacheDir, profile::kStoreSchemaVersion,
                              &StoreErr);
    if (!Store) {
      // An unusable store directory never fails the search — the run
      // degrades to in-memory caching, and the exit code says so.
      std::fprintf(stderr, "warning: --cache-dir: %s; continuing without "
                           "a persistent store\n",
                   StoreErr.str().c_str());
    } else {
      Cache->attachStore(Store);
    }
  }

  // SIGTERM/SIGINT cancel the running search instead of killing the
  // process mid-write: the handler latches the process-wide interrupt,
  // every live token reports Cancelled, and the search unwinds to its
  // partial result. Every store put() is already durable (temp + fsync
  // + rename), so nothing needs flushing afterwards.
  std::signal(SIGTERM, onInterruptSignal);
  std::signal(SIGINT, onInterruptSignal);

  // Multi-search sweeps report the first non-OK exit code and still run
  // every entry (a degraded one never hides later results).
  int RC = ExitOk;
  uint64_t OverallCycles = 0;
  std::string OverallDesc;
  for (size_t I = 0; I < Groups.size(); ++I) {
    if (I)
      std::printf("\n");
    uint64_t Cycles = 0;
    std::string Desc;
    int GroupRC = searchOne(Opts, Groups[I], Cache, Store, &Cycles, &Desc);
    if (RC == ExitOk)
      RC = GroupRC;
    if (Cycles && (OverallCycles == 0 || Cycles < OverallCycles)) {
      OverallCycles = Cycles;
      OverallDesc = Desc;
    }
    // An interrupt (SIGTERM/SIGINT) ends the sweep after the search it
    // cancelled.
    if (CancellationToken::interrupted()) {
      if (I + 1 < Groups.size())
        std::fprintf(stderr, "drain: %zu remaining search(es) not run\n",
                     Groups.size() - I - 1);
      RC = ExitPartial;
      break;
    }
  }
  if (!Opts.Portfolio.empty() && Groups.size() > 1 && OverallCycles)
    std::printf("\nportfolio winner: %s, %llu cycles\n", OverallDesc.c_str(),
                static_cast<unsigned long long>(OverallCycles));
  return RC;
}

/// Writes --metrics / --trace outputs. Runs on every exit path out of
/// runTool (success, degraded search, internal error) so a failed run
/// still leaves its telemetry behind — that is when it matters most.
void writeTelemetryArtifacts(const CliOptions &Opts) {
  if (!Opts.MetricsFile.empty()) {
    std::ofstream Out(Opts.MetricsFile);
    if (Out)
      Out << telemetry::MetricsRegistry::instance().snapshotJson(
                 /*Pretty=*/true)
          << '\n';
    if (!Out)
      logWarn("--metrics: cannot write '%s'", Opts.MetricsFile.c_str());
  }
  if (!Opts.TraceFile.empty()) {
    std::string Err;
    if (!telemetry::Tracer::instance().writeFile(Opts.TraceFile, &Err))
      logWarn("--trace: %s", Err.c_str());
  }
}

int runTool(const CliOptions &Opts) {
  if (!Opts.SearchPair.empty() || !Opts.Portfolio.empty())
    return runSearch(Opts);

  std::string Src1, Src2;
  if (!readFile(Opts.File1, Src1) || !readFile(Opts.File2, Src2))
    return ExitUsage;

  DiagnosticEngine Diags;
  auto Pre1 = transform::parseAndPreprocessOr(Src1, Opts.Kernel1, Diags);
  auto Pre2 = transform::parseAndPreprocessOr(Src2, Opts.Kernel2, Diags);
  if (!Pre1 || !Pre2) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return ExitBadInput;
  }
  auto P1 = Pre1.take();
  auto P2 = Pre2.take();

  cuda::ASTContext Target;
  cuda::FunctionDecl *Fused = nullptr;
  if (Opts.Vertical) {
    transform::FusionResult FR =
        transform::fuseVertical(Target, P1->Kernel, P2->Kernel, "", Diags);
    Fused = FR.Ok ? FR.Fused : nullptr;
  } else {
    transform::MultiFusionResult FR = transform::fuseHorizontalMany(
        Target, {P1->Kernel, P2->Kernel}, {Opts.D1, Opts.D2}, "", Diags,
        {{Opts.Y1, Opts.Z1}, {Opts.Y2, Opts.Z2}}, !Opts.FullBarriers);
    Fused = FR.Ok ? FR.Fused : nullptr;
  }
  if (!Fused) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return ExitFusionFailed;
  }

  auto IR = profile::lowerFunction(Target, Fused, Opts.RegBound, Diags);
  if (!IR) {
    std::fprintf(stderr, "fused kernel failed to lower:\n%s",
                 Diags.str().c_str());
    return ExitFusionFailed;
  }

  std::string Source = cuda::printFunction(Fused);
  if (!Opts.OutFile.empty()) {
    std::ofstream Out(Opts.OutFile);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   Opts.OutFile.c_str());
      return ExitUsage;
    }
    Out << Source;
  } else {
    std::fputs(Source.c_str(), stdout);
  }

  if (Opts.Report)
    printReport(*IR, Opts.D1 + Opts.D2);
  if (Opts.PrintIR)
    std::fputs(IR->str().c_str(), stdout);
  return ExitOk;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return ExitUsage;

  // Telemetry is opt-in per run; enabling it never changes results
  // (the registry and tracer are write-only for the whole pipeline).
  // --explain needs the phase spans, so it implies tracing.
  if (!Opts.MetricsFile.empty())
    telemetry::setMetricsEnabled(true);
  if (!Opts.TraceFile.empty() || Opts.Explain)
    telemetry::setTraceEnabled(true);

  if (!Opts.FaultSpec.empty()) {
    std::string FErr;
    if (!FaultInjector::instance().configure(Opts.FaultSpec, &FErr)) {
      std::fprintf(stderr, "error: --fault: %s\n", FErr.c_str());
      return ExitUsage;
    }
  }

  int RC = runTool(Opts);
  writeTelemetryArtifacts(Opts);
  return RC;
}
