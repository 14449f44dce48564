//===-- benchmark/layers.cpp - Layer-replay harness for the benchmark -----===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays the work of `hfusec --search` requests layer by layer, calling
/// each layer's public entry point directly and timing every call in a
/// span, so the benchmark can attribute host time to the front end, the
/// fusion transform, codegen, register allocation, the simulator, and
/// the result store without instrumenting the program itself.
///
///   hfuse_layers --trace FILE --store-dir DIR REQUEST...
///   REQUEST = kernels:dims:bound, e.g. batchnorm+hist:640/384:32
///
/// For each request (the dims and bound are the request's golden Best):
///  - every input kernel is parsed, analyzed, and preprocessed;
///  - pairs of tunable kernels are fused, lowered, and register-allocated
///    at all seven 128-step partitions, other requests at the Best
///    partition only; allocation runs unbounded and at the Best bound;
///  - the Best is simulated at Minimal and at Full stats, and the Full
///    run's outputs are checked against the CPU references;
///  - both results round-trip through a ResultStore in DIR.
///
/// Spans (id, parent, request, name, start/end in microseconds, counts)
/// go to the trace file; one JSON line per request on stdout carries the
/// simulated cycles and the verification verdict. Exit code 1 means a
/// usage or layer error, 2 a verification or cross-check mismatch.
///
//===----------------------------------------------------------------------===//

#include "cudalang/Parser.h"
#include "cudalang/Sema.h"
#include "gpusim/GpuArch.h"
#include "gpusim/Simulator.h"
#include "ir/RegAlloc.h"
#include "kernels/Kernels.h"
#include "kernels/Workload.h"
#include "profile/Compile.h"
#include "support/ResultStore.h"
#include "support/Telemetry.h"
#include "transform/Fusion.h"
#include "transform/Pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace hfuse;

namespace {

/// `hfusec --quick` settings on the GTX 1080 Ti: the simulated machine
/// and workload sizes every request of the benchmark runs at.
constexpr int QuickSimSMs = 2;
constexpr double QuickScale = 0.25;
constexpr uint32_t WorkloadSeed = 42;

struct Span {
  int Id;
  int Parent;
  int Req;
  std::string Name;
  double StartUs;
  double EndUs = 0;
  std::string Args; ///< JSON object text, or empty
};

/// In-memory span recorder; written out once at exit.
class SpanLog {
public:
  int begin(const std::string &Name, int Req) {
    int Parent = Open.empty() ? -1 : Open.back();
    Spans.push_back({static_cast<int>(Spans.size()), Parent, Req, Name,
                     nowUs(), 0, ""});
    Open.push_back(Spans.back().Id);
    return Spans.back().Id;
  }
  void end(int Id, std::string Args) {
    Spans[Id].EndUs = nowUs();
    Spans[Id].Args = std::move(Args);
    Open.pop_back();
  }
  bool write(const std::string &Path) const {
    std::ofstream Out(Path);
    Out << "[\n";
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      char Buf[160];
      std::snprintf(Buf, sizeof(Buf),
                    "{\"id\":%d,\"parent\":%d,\"req\":%d,\"start_us\":%.3f,"
                    "\"end_us\":%.3f,\"name\":",
                    S.Id, S.Parent, S.Req, S.StartUs, S.EndUs);
      Out << Buf << '"' << S.Name << "\",\"args\":"
          << (S.Args.empty() ? "{}" : S.Args)
          << (I + 1 < Spans.size() ? "},\n" : "}\n");
    }
    Out << "]\n";
    return static_cast<bool>(Out);
  }

private:
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - Epoch)
        .count();
  }
  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  std::vector<Span> Spans;
  std::vector<int> Open;
};

SpanLog Log;

/// RAII span; counts recorded with arg() land in the span's args.
class Scope {
public:
  Scope(const char *Name, int Req) : Id(Log.begin(Name, Req)) {}
  ~Scope() { Log.end(Id, Args.empty() ? "" : "{" + Args + "}"); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  void arg(const char *Key, unsigned long long V) {
    Args += (Args.empty() ? "\"" : ",\"") + std::string(Key) +
            "\":" + std::to_string(V);
  }

private:
  int Id;
  std::string Args;
};

struct Request {
  std::string Text;
  std::vector<kernels::BenchKernelId> Ids;
  std::vector<int> Dims;
  unsigned Bound = 0;
};

std::vector<std::string> split(const std::string &S, char Sep) {
  std::vector<std::string> Out;
  std::stringstream SS(S);
  std::string Item;
  while (std::getline(SS, Item, Sep))
    Out.push_back(Item);
  return Out;
}

std::optional<Request> parseRequest(const std::string &Text) {
  std::vector<std::string> Parts = split(Text, ':');
  if (Parts.size() != 3)
    return std::nullopt;
  Request R;
  R.Text = Text;
  for (const std::string &Name : split(Parts[0], '+')) {
    std::optional<kernels::BenchKernelId> Id = kernels::kernelIdByName(Name);
    if (!Id)
      return std::nullopt;
    R.Ids.push_back(*Id);
  }
  for (const std::string &D : split(Parts[1], '/'))
    R.Dims.push_back(std::atoi(D.c_str()));
  R.Bound = static_cast<unsigned>(std::atoi(Parts[2].c_str()));
  if (R.Ids.size() < 2 || R.Dims.size() != R.Ids.size())
    return std::nullopt;
  return R;
}

/// The partitions the search enumerates that this harness replays: the
/// seven 128-step splits of a 1024-thread block for a pair of tunable
/// kernels, otherwise only the Best partition.
std::vector<std::vector<int>> partitionsOf(const Request &R) {
  bool TunablePair = R.Ids.size() == 2 &&
                     kernels::kernelHasTunableBlockDim(R.Ids[0]) &&
                     kernels::kernelHasTunableBlockDim(R.Ids[1]);
  if (!TunablePair)
    return {R.Dims};
  std::vector<std::vector<int>> Out;
  for (int D1 = 128; D1 < 1024; D1 += 128)
    Out.push_back({D1, 1024 - D1});
  return Out;
}

struct Outcome {
  bool Ok = false;       ///< every layer call succeeded
  bool Verified = false; ///< the Best's outputs matched the references
  std::string Error;
  uint64_t Cycles = 0;
  uint64_t Issued = 0;
};

Outcome replay(const Request &R, int Req, ResultStore &Store) {
  Outcome O;
  Scope ReqSpan("request", Req);
  DiagnosticEngine Diags;

  // Front end, one translation unit per input kernel.
  std::vector<std::unique_ptr<cuda::ASTContext>> Ctxs;
  std::vector<const cuda::FunctionDecl *> Fns;
  std::vector<std::pair<int, int>> Shapes;
  for (kernels::BenchKernelId Id : R.Ids) {
    const std::string &Source = kernels::kernelSource(Id);
    Ctxs.push_back(std::make_unique<cuda::ASTContext>());
    cuda::ASTContext &Ctx = *Ctxs.back();
    bool Parsed;
    {
      Scope S("cudalang.parse", Req);
      S.arg("bytes", Source.size());
      Parsed = cuda::Parser(Source, Ctx, Diags).parseTranslationUnit();
    }
    bool Analyzed = false;
    if (Parsed) {
      Scope S("cudalang.sema", Req);
      Analyzed = cuda::Sema(Ctx, Diags).run();
    }
    cuda::FunctionDecl *F =
        Analyzed ? Ctx.translationUnit().findFunction(
                       kernels::kernelFunctionName(Id))
                 : nullptr;
    bool Preprocessed = false;
    if (F) {
      transform::stripImplicitCasts(F->body());
      Scope S("transform.preprocess", Req);
      Preprocessed = transform::preprocessKernel(Ctx, F, Diags);
    }
    if (!Preprocessed) {
      O.Error = "front end failed for " +
                std::string(kernels::kernelDisplayName(Id)) + ": " +
                Diags.str();
      return O;
    }
    Fns.push_back(F);
    Shapes.emplace_back(kernels::kernelNativeBlockDimY(Id), 1);
  }

  // Fusion, codegen, and register allocation per replayed partition.
  std::vector<std::unique_ptr<cuda::ASTContext>> FusedCtxs;
  std::shared_ptr<ir::IRKernel> BestIR;
  for (const std::vector<int> &Dims : partitionsOf(R)) {
    FusedCtxs.push_back(std::make_unique<cuda::ASTContext>());
    cuda::ASTContext &Ctx = *FusedCtxs.back();
    transform::MultiFusionResult MR;
    {
      Scope S("transform.fuse", Req);
      MR = transform::fuseHorizontalMany(Ctx, Fns, Dims, "", Diags, Shapes);
    }
    if (!MR.Ok) {
      O.Error = "fusion failed: " + MR.Err.str() + " " + Diags.str();
      return O;
    }
    std::unique_ptr<ir::IRKernel> Base;
    {
      Scope S("codegen.lower", Req);
      Base = profile::lowerFunctionNoRegAlloc(Ctx, MR.Fused, Diags);
      if (Base)
        S.arg("ir_insts", Base->numInstructions());
    }
    if (!Base) {
      O.Error = "lowering failed: " + Diags.str();
      return O;
    }
    std::vector<unsigned> Bounds = {0};
    if (R.Bound)
      Bounds.push_back(R.Bound);
    for (unsigned Bound : Bounds) {
      auto IR = std::make_shared<ir::IRKernel>(*Base);
      ir::RegAllocResult RA;
      {
        Scope S("ir.regalloc", Req);
        RA = ir::allocateRegisters(*IR, Bound);
        S.arg("spilled", RA.NumSpilled);
        S.arg("bound", Bound);
      }
      if (!RA.Ok) {
        O.Error = "register allocation failed: " + RA.Error;
        return O;
      }
      if (Dims == R.Dims && Bound == R.Bound)
        BestIR = IR;
    }
  }
  if (!BestIR) {
    O.Error = "the Best partition is not among the replayed ones";
    return O;
  }

  // The Best on the simulator, with the workloads hfusec --quick uses.
  std::unique_ptr<gpusim::Simulator> Sim;
  std::vector<std::unique_ptr<kernels::Workload>> Ws;
  {
    Scope S("kernels.setup", Req);
    gpusim::SimConfig SC;
    SC.Arch = gpusim::makeGTX1080Ti();
    SC.SimSMs = QuickSimSMs;
    Sim = std::make_unique<gpusim::Simulator>(SC);
    for (size_t K = 0; K < R.Ids.size(); ++K) {
      kernels::WorkloadConfig WC;
      WC.SizeScale = QuickScale;
      WC.SimSMs = QuickSimSMs;
      WC.Seed = WorkloadSeed + static_cast<uint32_t>(K);
      Ws.push_back(kernels::makeWorkload(R.Ids[K], WC));
      Ws.back()->setup(*Sim);
    }
  }
  gpusim::KernelLaunch L;
  L.Kernel = BestIR.get();
  L.Label = R.Text;
  L.BlockDim = 0;
  for (size_t K = 0; K < Ws.size(); ++K) {
    L.GridDim = std::max(L.GridDim, Ws[K]->preferredGrid());
    L.BlockDim += R.Dims[K];
    L.DynSharedBytes += Ws[K]->dynSharedBytes();
    L.Params.insert(L.Params.end(), Ws[K]->params().begin(),
                    Ws[K]->params().end());
  }
  gpusim::SimResult Results[2];
  const gpusim::StatsLevel Levels[2] = {gpusim::StatsLevel::Minimal,
                                        gpusim::StatsLevel::Full};
  for (int I = 0; I < 2; ++I) {
    for (auto &W : Ws)
      W->clearOutputs(*Sim);
    Scope S("gpusim.run", Req);
    Results[I] = Sim->run({L}, Levels[I]);
    S.arg("full", I);
    S.arg("issued", Results[I].TotalIssued);
    S.arg("cycles", Results[I].TotalCycles);
  }
  if (!Results[0].Ok || !Results[1].Ok) {
    O.Error = "simulation failed: " + Results[0].Error + Results[1].Error;
    return O;
  }
  O.Cycles = Results[0].TotalCycles;
  O.Issued = Results[0].TotalIssued;
  bool LevelsAgree = Results[0].TotalCycles == Results[1].TotalCycles &&
                     Results[0].TotalIssued == Results[1].TotalIssued;
  {
    Scope S("kernels.verify", Req);
    O.Verified = LevelsAgree;
    for (size_t K = 0; K < Ws.size() && O.Verified; ++K)
      O.Verified = Ws[K]->verify(*Sim, L.GridDim * R.Dims[K], O.Error);
  }
  if (!LevelsAgree)
    O.Error = "Minimal and Full stats disagree on cycles or issued";

  // Store round trip of both results.
  for (int I = 0; I < 2; ++I) {
    std::string Key = R.Text + (I ? ":full" : ":minimal");
    std::string Payload = profile::encodeSimResult(Results[I]);
    Status Put;
    {
      Scope S("store.put", Req);
      S.arg("bytes", Payload.size());
      Put = Store.put(Key, Payload);
    }
    std::optional<std::string> Got;
    {
      Scope S("store.get", Req);
      Got = Store.get(Key);
    }
    if (!Put.ok() || !Got || *Got != Payload) {
      O.Error = "store round trip failed: " + Put.str();
      return O;
    }
  }
  O.Ok = true;
  return O;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string TracePath, StoreDir;
  std::vector<Request> Requests;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if ((Arg == "--trace" || Arg == "--store-dir") && I + 1 < Argc) {
      (Arg == "--trace" ? TracePath : StoreDir) = Argv[++I];
    } else if (std::optional<Request> R = parseRequest(Arg)) {
      Requests.push_back(std::move(*R));
    } else {
      std::fprintf(stderr, "error: bad argument '%s'\n", Arg.c_str());
      return 1;
    }
  }
  if (TracePath.empty() || StoreDir.empty() || Requests.empty()) {
    std::fprintf(stderr, "usage: hfuse_layers --trace FILE --store-dir DIR "
                         "kernels:dims:bound...\n");
    return 1;
  }
  Status StoreErr;
  std::shared_ptr<ResultStore> Store =
      ResultStore::open(StoreDir, profile::kStoreSchemaVersion, &StoreErr);
  if (!Store) {
    std::fprintf(stderr, "error: store: %s\n", StoreErr.str().c_str());
    return 1;
  }

  int RC = 0;
  for (size_t I = 0; I < Requests.size(); ++I) {
    Outcome O = replay(Requests[I], static_cast<int>(I), *Store);
    std::printf("{\"request\":\"%s\",\"ok\":%s,\"verified\":%s,"
                "\"cycles\":%llu,\"issued\":%llu,\"error\":\"%s\"}\n",
                Requests[I].Text.c_str(), O.Ok ? "true" : "false",
                O.Verified ? "true" : "false",
                static_cast<unsigned long long>(O.Cycles),
                static_cast<unsigned long long>(O.Issued),
                telemetry::jsonEscape(O.Error).c_str());
    if (!O.Ok)
      RC = 1;
    else if (!O.Verified && RC == 0)
      RC = 2;
  }
  if (!Log.write(TracePath)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", TracePath.c_str());
    return 1;
  }
  return RC;
}
