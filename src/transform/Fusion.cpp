//===-- transform/Fusion.cpp - Horizontal & vertical kernel fusion --------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "transform/Fusion.h"

#include "cudalang/ASTCloner.h"
#include "support/StringUtils.h"
#include "transform/ASTWalker.h"
#include "transform/BarrierReplacer.h"
#include "transform/BuiltinReplacer.h"
#include "transform/KernelInfo.h"
#include "transform/Renamer.h"

using namespace hfuse;
using namespace hfuse::cuda;
using namespace hfuse::transform;

namespace {

/// Rewrites `return;` inside a spliced kernel body into `goto EndLabel;`
/// so an early exit of one input kernel does not skip the other's
/// statements.
void lowerReturnsToGoto(ASTContext &Ctx, Stmt *Body,
                        const std::string &EndLabel) {
  rewriteStmts(Body, [&](Stmt *S) -> Stmt * {
    if (!isa<ReturnStmt>(S))
      return S;
    assert(!cast<ReturnStmt>(S)->value() && "kernels return void");
    return Ctx.create<GotoStmt>(S->loc(), EndLabel);
  });
}

/// Splits a preprocessed (decl-lifted) kernel body into its leading
/// declaration statements and the remaining non-declaration statements
/// (paper Figure 5, line 2).
void splitDeclsAndStmts(CompoundStmt *Body, std::vector<Stmt *> &Decls,
                        std::vector<Stmt *> &Stmts) {
  for (Stmt *S : Body->body()) {
    if (isa<DeclStmt>(S))
      Decls.push_back(S);
    else
      Stmts.push_back(S);
  }
}

/// Preconditions of the vertical fuser. Returns false after reporting.
bool checkFusible(const FunctionDecl *K1, const FunctionDecl *K2,
                  FusionResult &Res, DiagnosticEngine &Diags) {
  for (const FunctionDecl *K : {K1, K2}) {
    if (!K->isKernel()) {
      Diags.error(K->loc(), formatString("'%s' is not a __global__ kernel",
                                         K->name().c_str()));
      return false;
    }
  }
  KernelResources R1 = analyzeKernel(K1);
  KernelResources R2 = analyzeKernel(K2);
  Res.ExternShared1 = R1.UsesExternShared;
  Res.ExternShared2 = R2.UsesExternShared;
  if (R1.UsesExternShared && R2.UsesExternShared) {
    Diags.error(K2->loc(),
                "both kernels use extern __shared__ memory; fusing them "
                "would alias the dynamic shared region");
    return false;
  }
  return true;
}

/// Validates a (D, Y, Z) partition shape for one input kernel.
bool checkPartitionShape(int D, int Y, int Z, const char *Which,
                         DiagnosticEngine &Diags) {
  if (Y < 1 || Z < 1 || D % (Y * Z) != 0) {
    Diags.error(SourceLocation(),
                formatString("kernel %s: partition of %d threads cannot "
                             "form a block with .y extent %d and .z "
                             "extent %d",
                             Which, D, Y, Z));
    return false;
  }
  return true;
}

/// Reserves the prologue variable names buildThreadMap() may create for
/// the kernel with name suffix \p Suffix.
void reserveThreadMapNames(Renamer &Names, const std::string &Suffix) {
  for (const char *Prefix :
       {"tid_", "size_", "tidx_", "tidy_", "tidz_", "sizex_", "sizey_",
        "sizez_"})
    Names.reserve(Prefix + Suffix);
}

/// Creates the per-kernel threadIdx/blockDim stand-in variables for one
/// input kernel and appends their declarations via \p AppendDecl.
///
/// For a one-dimensional partition this is the paper's Figure 5
/// prologue: a single `size_<k> = D` variable next to the existing
/// linear `tid_<k>`. For a multi-dimensional partition it is the
/// Figure 4 prologue: `sizex/sizey/sizez_<k>` hold the original block
/// extents and `tidx/tidy/tidz_<k>` decompose the linear offset
/// (`threadIdx_x = global_tid % blockDim_x;
///   threadIdx_y = global_tid / blockDim_x % blockDim_y; ...`).
template <typename MakeVarFn, typename AppendFn>
KernelThreadMap buildThreadMap(ASTContext &Target, MakeVarFn &&MakeIntVar,
                               AppendFn &&AppendDecl,
                               const std::string &Suffix, VarDecl *TidLinear,
                               int D, int Y, int Z) {
  KernelThreadMap Map;
  if (Y == 1 && Z == 1) {
    VarDecl *Size = MakeIntVar("size_" + Suffix, Target.intLit(D));
    AppendDecl(Size);
    Map.Tid[0] = TidLinear;
    Map.Size[0] = Size;
    return Map;
  }
  int X = D / (Y * Z);
  VarDecl *SX = MakeIntVar("sizex_" + Suffix, Target.intLit(X));
  VarDecl *SY = MakeIntVar("sizey_" + Suffix, Target.intLit(Y));
  VarDecl *SZ = MakeIntVar("sizez_" + Suffix, Target.intLit(Z));
  VarDecl *TX = MakeIntVar(
      "tidx_" + Suffix,
      Target.binOp(BinaryOpKind::Rem, Target.ref(TidLinear),
                   Target.ref(SX)));
  VarDecl *TY = MakeIntVar(
      "tidy_" + Suffix,
      Target.binOp(BinaryOpKind::Rem,
                   Target.binOp(BinaryOpKind::Div, Target.ref(TidLinear),
                                Target.ref(SX)),
                   Target.ref(SY)));
  VarDecl *TZ = MakeIntVar(
      "tidz_" + Suffix,
      Target.binOp(BinaryOpKind::Div, Target.ref(TidLinear),
                   Target.binOp(BinaryOpKind::Mul, Target.ref(SX),
                                Target.ref(SY))));
  for (VarDecl *V : {SX, SY, SZ, TX, TY, TZ})
    AppendDecl(V);
  Map.Tid[0] = TX;
  Map.Tid[1] = TY;
  Map.Tid[2] = TZ;
  Map.Size[0] = SX;
  Map.Size[1] = SY;
  Map.Size[2] = SZ;
  return Map;
}

} // namespace

FusionResult hfuse::transform::fuseVertical(ASTContext &Target,
                                            const FunctionDecl *K1,
                                            const FunctionDecl *K2,
                                            const std::string &FusedName,
                                            DiagnosticEngine &Diags) {
  FusionResult Res;
  if (!checkFusible(K1, K2, Res, Diags))
    return Res;

  // The vertical baseline leaves builtins untouched, so both input
  // kernels must be meaningful under one shared launch shape; a kernel
  // indexing .y/.z constrains that shape in a way the other kernel
  // cannot generally satisfy.
  for (const FunctionDecl *K : {K1, K2}) {
    if (analyzeKernel(K).UsesMultiDimBuiltins) {
      Diags.error(K->loc(),
                  formatString("kernel '%s' uses .y/.z block dimensions; "
                               "vertical fusion requires one-dimensional "
                               "kernels",
                               K->name().c_str()));
      return Res;
    }
  }

  Renamer Names;
  std::string EndLabel1 = "vf_k1_end";
  std::string EndLabel2 = "vf_k2_end";
  Names.reserve(EndLabel1);
  Names.reserve(EndLabel2);

  ASTCloner Cloner1(Target);
  FunctionDecl *C1 = Cloner1.cloneFunction(K1);
  Names.renameFunction(C1, "_1");
  ASTCloner Cloner2(Target);
  FunctionDecl *C2 = Cloner2.cloneFunction(K2);
  Names.renameFunction(C2, "_2");

  std::vector<Stmt *> Decls1, Stmts1, Decls2, Stmts2;
  splitDeclsAndStmts(C1->body(), Decls1, Stmts1);
  splitDeclsAndStmts(C2->body(), Decls2, Stmts2);
  auto *Body1 = Target.create<CompoundStmt>(SourceLocation(),
                                            std::move(Stmts1));
  auto *Body2 = Target.create<CompoundStmt>(SourceLocation(),
                                            std::move(Stmts2));

  // threadIdx/blockDim keep their meaning: the same threads execute both
  // kernels. Barriers stay full-block barriers. Early returns from the
  // first kernel must still not skip the second.
  lowerReturnsToGoto(Target, Body1, EndLabel1);
  lowerReturnsToGoto(Target, Body2, EndLabel2);
  Res.NumBarriers1 = countSyncthreads(Body1);
  Res.NumBarriers2 = countSyncthreads(Body2);

  std::vector<Stmt *> Fused;
  for (Stmt *S : Decls1)
    Fused.push_back(S);
  for (Stmt *S : Decls2)
    Fused.push_back(S);
  for (Stmt *S : Body1->body())
    Fused.push_back(S);
  Fused.push_back(Target.create<LabelStmt>(SourceLocation(), EndLabel1,
                                           /*Sub=*/nullptr));
  for (Stmt *S : Body2->body())
    Fused.push_back(S);
  Fused.push_back(Target.create<LabelStmt>(SourceLocation(), EndLabel2,
                                           /*Sub=*/nullptr));

  std::vector<VarDecl *> Params;
  for (VarDecl *P : C1->params())
    Params.push_back(P);
  for (VarDecl *P : C2->params())
    Params.push_back(P);
  Res.NumParams1 = C1->params().size();
  Res.NumParams2 = C2->params().size();

  std::string Name = FusedName.empty()
                         ? K1->name() + "_" + K2->name() + "_vfused"
                         : FusedName;
  auto *BodyStmt = Target.create<CompoundStmt>(SourceLocation(),
                                               std::move(Fused));
  Res.Fused = Target.create<FunctionDecl>(
      SourceLocation(), std::move(Name), FunctionDecl::FnKind::Global,
      Target.types().voidTy(), std::move(Params), BodyStmt);
  Target.translationUnit().functions().push_back(Res.Fused);
  Res.Ok = true;
  return Res;
}

MultiFusionResult hfuse::transform::fuseHorizontalMany(
    ASTContext &Target, const std::vector<const FunctionDecl *> &Kernels,
    const std::vector<int> &Dims, const std::string &FusedName,
    DiagnosticEngine &Diags,
    const std::vector<std::pair<int, int>> &Shapes, bool UsePartialBarriers) {
  MultiFusionResult Res;
  Res.Dims = Dims;

  // Every rejection lands in both channels: the human-readable
  // DiagnosticEngine and the structured Res.Err, so a search sweep can
  // retire the candidate into its Failed ledger without parsing text.
  auto Reject = [&](SourceLocation Loc, const std::string &Msg) {
    Diags.error(Loc, Msg);
    Res.Err = Status(ErrorCode::FusionUnsupported, Msg);
  };

  const size_t N = Kernels.size();
  if (N < 2 || N != Dims.size()) {
    Reject(SourceLocation(),
           "fuseHorizontalMany needs >= 2 kernels with one partition "
           "size each");
    return Res;
  }
  if (!Shapes.empty() && Shapes.size() != N) {
    Reject(SourceLocation(),
           "fuseHorizontalMany: Shapes must be empty or give one "
           "(.y, .z) extent pair per kernel");
    return Res;
  }
  if (N > 15) {
    Reject(SourceLocation(), "PTX provides 16 named barriers; at most "
                             "15 kernels can be fused (id 0 is "
                             "reserved)");
    return Res;
  }

  int D0 = 0;
  for (size_t I = 0; I < N; ++I) {
    int D = Dims[I];
    if (D <= 0 || D % 32 != 0) {
      Reject(SourceLocation(),
             formatString("partition size %d is not a positive "
                          "multiple of the warp size",
                          D));
      return Res;
    }
    if (!Shapes.empty() &&
        !checkPartitionShape(D, Shapes[I].first, Shapes[I].second,
                             formatString("%zu", I + 1).c_str(), Diags)) {
      Res.Err = Status(ErrorCode::FusionUnsupported,
                       formatString("kernel %zu: partition size %d does "
                                    "not factor into its (%d, %d) block "
                                    "extents",
                                    I + 1, D, Shapes[I].first,
                                    Shapes[I].second));
      return Res;
    }
    D0 += D;
  }
  if (D0 > 1024) {
    Reject(SourceLocation(),
           formatString("fused block dimension %d exceeds the 1024 "
                        "threads-per-block hardware limit",
                        D0));
    return Res;
  }

  // Per-kernel preconditions, plus the single-extern-shared rule.
  for (size_t I = 0; I < N; ++I) {
    const FunctionDecl *K = Kernels[I];
    if (!K->isKernel()) {
      Reject(K->loc(), formatString("'%s' is not a __global__ kernel",
                                    K->name().c_str()));
      return Res;
    }
    KernelResources R = analyzeKernel(K);
    if (R.UsesExternShared) {
      if (Res.ExternSharedKernel >= 0) {
        Reject(K->loc(), "more than one input kernel uses extern "
                         "__shared__ memory");
        return Res;
      }
      Res.ExternSharedKernel = static_cast<int>(I);
    }
  }

  // Reserve prologue names, then clone and rename every kernel.
  Renamer Names;
  Names.reserve("tid");
  std::vector<std::string> EndLabels(N);
  for (size_t I = 0; I < N; ++I) {
    reserveThreadMapNames(Names, formatString("%zu", I + 1));
    EndLabels[I] = formatString("hf_k%zu_end", I + 1);
    Names.reserve(EndLabels[I]);
  }

  std::vector<FunctionDecl *> Clones(N);
  for (size_t I = 0; I < N; ++I) {
    ASTCloner Cloner(Target);
    Clones[I] = Cloner.cloneFunction(Kernels[I]);
    Names.renameFunction(Clones[I], formatString("_%zu", I + 1));
  }

  TypeContext &Types = Target.types();
  auto ThreadIdxX = [&]() -> Expr * {
    Expr *B = Target.create<BuiltinIdxExpr>(SourceLocation(),
                                            BuiltinIdxKind::ThreadIdx, 0);
    // Cast to int so tid_k can go negative for earlier kernels' threads.
    return Target.create<CastExpr>(SourceLocation(), Types.intTy(), B,
                                   /*IsImplicit=*/false);
  };
  auto MakeIntVar = [&](const std::string &Name, Expr *Init) {
    auto *V =
        Target.create<VarDecl>(SourceLocation(), Name, Types.intTy());
    V->setInit(Init);
    return V;
  };

  // Prologue (paper Figure 5, line 3): tid, and per kernel
  // tid_k = threadIdx.x - prefix_k and its thread map (size_k = Dims[k]
  // for a one-dimensional partition). A pair declares every tid_k before
  // the thread maps, as in Figure 5; more kernels interleave them.
  std::vector<Stmt *> Fused;
  auto AppendDecl = [&](VarDecl *V) {
    Fused.push_back(Target.create<DeclStmt>(SourceLocation(),
                                            std::vector<VarDecl *>{V}));
  };
  AppendDecl(MakeIntVar("tid", ThreadIdxX()));
  std::vector<VarDecl *> Tids(N);
  std::vector<std::vector<VarDecl *>> MapDecls(N);
  std::vector<KernelThreadMap> Maps(N);
  int Prefix = 0;
  for (size_t I = 0; I < N; ++I) {
    Expr *TidInit =
        Prefix == 0 ? ThreadIdxX()
                    : Target.binOp(BinaryOpKind::Sub, ThreadIdxX(),
                                   Target.intLit(Prefix));
    Tids[I] = MakeIntVar(formatString("tid_%zu", I + 1), TidInit);
    int Y = Shapes.empty() ? 1 : Shapes[I].first;
    int Z = Shapes.empty() ? 1 : Shapes[I].second;
    Maps[I] = buildThreadMap(
        Target, MakeIntVar, [&](VarDecl *V) { MapDecls[I].push_back(V); },
        formatString("%zu", I + 1), Tids[I], Dims[I], Y, Z);
    Prefix += Dims[I];
  }
  if (N == 2) {
    for (VarDecl *Tid : Tids)
      AppendDecl(Tid);
    for (const std::vector<VarDecl *> &Map : MapDecls)
      for (VarDecl *V : Map)
        AppendDecl(V);
  } else {
    for (size_t I = 0; I < N; ++I) {
      AppendDecl(Tids[I]);
      for (VarDecl *V : MapDecls[I])
        AppendDecl(V);
    }
  }

  // Per-kernel transformed bodies, then decls and guarded statements.
  std::vector<CompoundStmt *> Bodies(N);
  std::vector<std::vector<Stmt *>> Decls(N);
  for (size_t I = 0; I < N; ++I) {
    std::vector<Stmt *> Stmts;
    splitDeclsAndStmts(Clones[I]->body(), Decls[I], Stmts);
    Bodies[I] =
        Target.create<CompoundStmt>(SourceLocation(), std::move(Stmts));
    if (!replaceBuiltins(Target, Bodies[I], Maps[I], Diags)) {
      Res.Err = Status(ErrorCode::FusionUnsupported,
                       formatString("kernel %zu: builtin replacement "
                                    "failed:\n%s",
                                    I + 1, Diags.str().c_str()));
      return Res;
    }
    // Replace __syncthreads with partial barriers (Figure 5, lines 5-6).
    int NumBars = UsePartialBarriers
                      ? replaceBarriers(Target, Bodies[I],
                                        static_cast<int>(I + 1), Dims[I],
                                        Diags)
                      : static_cast<int>(countSyncthreads(Bodies[I]));
    if (NumBars < 0) {
      Res.Err = Status(ErrorCode::FusionUnsupported,
                       formatString("kernel %zu: barrier rewrite "
                                    "failed:\n%s",
                                    I + 1, Diags.str().c_str()));
      return Res;
    }
    Res.NumBarriers.push_back(static_cast<unsigned>(NumBars));
    // An early `return` of one kernel must not skip the others.
    lowerReturnsToGoto(Target, Bodies[I], EndLabels[I]);
  }

  for (size_t I = 0; I < N; ++I)
    for (Stmt *S : Decls[I])
      Fused.push_back(S);

  auto Guard = [&](BinaryOpKind Op, int Bound, const std::string &Label) {
    Expr *T = Target.create<BuiltinIdxExpr>(SourceLocation(),
                                            BuiltinIdxKind::ThreadIdx, 0);
    Expr *Cond = Target.binOp(Op, T, Target.intLit(Bound));
    return Target.create<IfStmt>(
        SourceLocation(), Cond,
        Target.create<GotoStmt>(SourceLocation(), Label), nullptr);
  };

  Prefix = 0;
  for (size_t I = 0; I < N; ++I) {
    // Kernel I runs on [Prefix, Prefix + Dims[I]) (Figure 5, lines 7-12):
    // if (threadIdx.x < prefix) goto end; if (threadIdx.x >= prefix + D)
    // goto end; the first kernel needs only the upper guard, the last
    // only the lower one.
    if (Prefix > 0)
      Fused.push_back(Guard(BinaryOpKind::Lt, Prefix, EndLabels[I]));
    if (I + 1 < N)
      Fused.push_back(
          Guard(BinaryOpKind::Ge, Prefix + Dims[I], EndLabels[I]));
    for (Stmt *S : Bodies[I]->body())
      Fused.push_back(S);
    Fused.push_back(Target.create<LabelStmt>(SourceLocation(),
                                             EndLabels[I], nullptr));
    Prefix += Dims[I];
  }

  std::vector<VarDecl *> Params;
  for (size_t I = 0; I < N; ++I) {
    Res.NumParams.push_back(
        static_cast<unsigned>(Clones[I]->params().size()));
    for (VarDecl *P : Clones[I]->params())
      Params.push_back(P);
  }

  std::string Name = FusedName;
  if (Name.empty()) {
    for (size_t I = 0; I < N; ++I) {
      if (I)
        Name += "_";
      Name += Kernels[I]->name();
    }
    Name += "_fused";
  }
  auto *BodyStmt =
      Target.create<CompoundStmt>(SourceLocation(), std::move(Fused));
  Res.Fused = Target.create<FunctionDecl>(
      SourceLocation(), std::move(Name), FunctionDecl::FnKind::Global,
      Types.voidTy(), std::move(Params), BodyStmt);
  Target.translationUnit().functions().push_back(Res.Fused);
  Res.Ok = true;
  return Res;
}
