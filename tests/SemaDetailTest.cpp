//===-- tests/SemaDetailTest.cpp - Type system details --------------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Detailed Sema tests: the usual-arithmetic-conversion matrix
/// (parameterized), pointer arithmetic typing, shift/ternary rules,
/// intrinsic signatures, and lvalue/const diagnostics.
///
//===----------------------------------------------------------------------===//

#include "cudalang/Parser.h"
#include "cudalang/Sema.h"

#include <gtest/gtest.h>

using namespace hfuse;
using namespace hfuse::cuda;

namespace {

/// Parses a kernel whose body declares `a` and `b` with the given types
/// and computes `a + b`; returns the Sema-computed result type name.
struct ConversionCase {
  const char *TypeA;
  const char *TypeB;
  const char *Expected;
};

/// Names each case by its operand types. Without this gtest prints the
/// raw bytes of the three pointers, so the ctest names that
/// gtest_discover_tests derives from the printed value would change with
/// every build's load address.
void PrintTo(const ConversionCase &C, std::ostream *OS) {
  *OS << C.TypeA << " + " << C.TypeB;
}

class UsualConversions : public testing::TestWithParam<ConversionCase> {};

TEST_P(UsualConversions, BinaryAddType) {
  const ConversionCase &C = GetParam();
  std::string Source = std::string("__global__ void k(float *out) {\n  ") +
                       C.TypeA + " a;\n  " + C.TypeB +
                       " b;\n  a; b;\n  out[0] = (float)(a + b);\n}\n";
  ASTContext Ctx;
  DiagnosticEngine Diags;
  Parser P(Source, Ctx, Diags);
  ASSERT_TRUE(P.parseTranslationUnit()) << Diags.str();
  ASSERT_TRUE(Sema(Ctx, Diags).run()) << Diags.str();

  // Find the a + b node inside the cast.
  auto *F = Ctx.translationUnit().findFunction("k");
  auto *Store = cast<ExprStmt>(F->body()->body().back());
  auto *Assign = cast<BinaryExpr>(Store->expr());
  auto *Cast =
      cast<CastExpr>(ignoreParensAndImplicitCasts(Assign->rhs()));
  const Expr *Sum = ignoreParensAndImplicitCasts(Cast->sub());
  EXPECT_EQ(Sum->type()->str(), C.Expected)
      << C.TypeA << " + " << C.TypeB;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, UsualConversions,
    testing::Values(
        ConversionCase{"int", "int", "int"},
        ConversionCase{"int", "unsigned int", "unsigned int"},
        ConversionCase{"unsigned int", "int", "unsigned int"},
        ConversionCase{"int", "long long", "long long"},
        ConversionCase{"unsigned int", "unsigned long long",
                       "unsigned long long"},
        ConversionCase{"long long", "unsigned long long",
                       "unsigned long long"},
        ConversionCase{"int", "float", "float"},
        ConversionCase{"unsigned long long", "float", "float"},
        ConversionCase{"float", "double", "double"},
        ConversionCase{"char", "char", "int"},          // promotion
        ConversionCase{"unsigned char", "char", "int"}, // promotion
        ConversionCase{"bool", "bool", "int"}));        // promotion

/// One-liner compile helper: returns diagnostics text ("" = success).
std::string tryCompile(const std::string &Body) {
  std::string Source =
      "__global__ void k(float *fp, int *ip, unsigned int *up, int n) {\n" +
      Body + "\n}\n";
  ASTContext Ctx;
  DiagnosticEngine Diags;
  Parser P(Source, Ctx, Diags);
  if (!P.parseTranslationUnit())
    return Diags.str();
  if (!Sema(Ctx, Diags).run())
    return Diags.str();
  return "";
}

TEST(SemaDetail, PointerArithmeticRules) {
  EXPECT_EQ(tryCompile("float *p = fp + n; p[0] = 1.0f;"), "");
  EXPECT_EQ(tryCompile("float *p = fp; p += n; p[0] = 1.0f;"), "");
  EXPECT_NE(tryCompile("float *p = fp + 0.5f; p[0] = 1.0f;"), "");
  EXPECT_NE(tryCompile("int x = fp + ip; (void)x;"), "")
      << "pointer + pointer must be rejected";
  EXPECT_NE(tryCompile("float *p = n - fp; p[0] = 1.0f;"), "")
      << "int - pointer must be rejected";
}

TEST(SemaDetail, ShiftTyping) {
  EXPECT_EQ(tryCompile("int x = n << 3; ip[0] = x;"), "");
  EXPECT_EQ(tryCompile("unsigned int x = up[0] >> n; up[1] = x;"), "");
  EXPECT_NE(tryCompile("int x = n << 1.5f; ip[0] = x;"), "")
      << "float shift amount must be rejected";
  EXPECT_NE(tryCompile("float x = fp[0] << 2; fp[1] = x;"), "")
      << "shifting a float must be rejected";
}

TEST(SemaDetail, TernaryUnifiesBranches) {
  EXPECT_EQ(tryCompile("float x = n > 0 ? 1 : 2.5f; fp[0] = x;"), "");
  EXPECT_EQ(tryCompile("float *p = n > 0 ? fp : fp + 4; p[0] = 1.0f;"), "");
  EXPECT_NE(tryCompile("float x = n > 0 ? fp : 1.0f; fp[0] = x;"), "")
      << "pointer/float branches must be rejected";
}

TEST(SemaDetail, IntrinsicSignatures) {
  EXPECT_EQ(tryCompile("__syncthreads();"), "");
  EXPECT_NE(tryCompile("__syncthreads(1);"), "");
  EXPECT_EQ(tryCompile("up[0] = atomicAdd(&up[1], 2u);"), "");
  EXPECT_NE(tryCompile("atomicAdd(up[1], 2u);"), "")
      << "atomicAdd needs a pointer";
  EXPECT_NE(tryCompile("int x = min(fp[0], 1); ip[0] = x;"), "")
      << "min() is the integer intrinsic";
  EXPECT_EQ(tryCompile("fp[0] = fminf(fp[1], 2.0f);"), "");
  EXPECT_EQ(tryCompile("fp[0] = __shfl_xor_sync(0xffffffffu, fp[1], 4);"),
            "");
  EXPECT_NE(tryCompile("fp[0] = nosuchfunc(1);"), "");
}

TEST(SemaDetail, LValueAndConstDiagnostics) {
  EXPECT_NE(tryCompile("5 = n;"), "");
  EXPECT_NE(tryCompile("(n + 1) = 2;"), "");
  EXPECT_NE(tryCompile("const int c = 1; c = 2; ip[0] = c;"), "");
  EXPECT_EQ(tryCompile("const int c = 1; ip[0] = c + n;"), "");
  EXPECT_NE(tryCompile("int x = 1; int *q = &(x + 1); q[0] = 1;"), "")
      << "address of rvalue must be rejected";
}

TEST(SemaDetail, ConditionsAcceptAnyScalar) {
  EXPECT_EQ(tryCompile("if (fp) ip[0] = 1;"), "") << "pointer condition";
  EXPECT_EQ(tryCompile("if (fp[0]) ip[0] = 1;"), "") << "float condition";
  EXPECT_EQ(tryCompile("while (n) { ip[0] = 1; break; }"), "");
  EXPECT_EQ(tryCompile("for (; n; ) { break; }"), "");
}

TEST(SemaDetail, ArrayDecayInCalls) {
  // A shared array passed where a pointer is expected decays.
  std::string Source =
      "__device__ float first(const float *p) { return p[0]; }\n"
      "__global__ void k(float *out) {\n"
      "  __shared__ float s[32];\n"
      "  s[threadIdx.x % 32u] = 1.0f;\n"
      "  __syncthreads();\n"
      "  out[0] = first(s);\n"
      "}\n";
  ASTContext Ctx;
  DiagnosticEngine Diags;
  Parser P(Source, Ctx, Diags);
  ASSERT_TRUE(P.parseTranslationUnit()) << Diags.str();
  EXPECT_TRUE(Sema(Ctx, Diags).run()) << Diags.str();
}

TEST(SemaDetail, VoidValueUseRejected) {
  EXPECT_NE(tryCompile("int x = __syncthreads(); ip[0] = x;"), "");
}

TEST(SemaDetail, SharedScalarInitRejected) {
  std::string Err = tryCompile("__shared__ int s[4];\n  s[0] = 1;");
  EXPECT_EQ(Err, "");
  // Initializers on shared variables are rejected.
  std::string Source = "__global__ void k(int *a) {\n"
                       "  __shared__ int s[4] = 0;\n"
                       "  a[0] = s[0];\n"
                       "}\n";
  ASTContext Ctx;
  DiagnosticEngine Diags;
  Parser P(Source, Ctx, Diags);
  bool ParsedAndChecked =
      P.parseTranslationUnit() && Sema(Ctx, Diags).run();
  EXPECT_FALSE(ParsedAndChecked);
}

} // namespace
