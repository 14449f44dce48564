//===-- tests/SupportTest.cpp - Support library tests ---------------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the support layer: string utilities, diagnostics
/// formatting, LLVM-style casting, and source locations.
///
//===----------------------------------------------------------------------===//

#include "cudalang/AST.h"
#include "support/BinaryCodec.h"
#include "support/BuildId.h"
#include "support/CancellationToken.h"
#include "support/Casting.h"
#include "support/Diagnostics.h"
#include "support/FaultInjector.h"
#include "support/Hashing.h"
#include "support/Retry.h"
#include "support/Status.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <iterator>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

using namespace hfuse;
using namespace hfuse::cuda;

namespace {

TEST(StringUtils, Split) {
  auto Parts = splitString("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(Parts[3], "c");
  EXPECT_EQ(splitString("", ',').size(), 1u);
  EXPECT_EQ(splitString("nosep", ',')[0], "nosep");
}

TEST(StringUtils, Trim) {
  EXPECT_EQ(trimString("  x y  "), "x y");
  EXPECT_EQ(trimString("\t\n"), "");
  EXPECT_EQ(trimString("solid"), "solid");
}

TEST(StringUtils, Format) {
  EXPECT_EQ(formatString("%d-%s", 42, "ok"), "42-ok");
  // Long output exceeding any small internal buffer.
  std::string Long = formatString("%0512d", 7);
  EXPECT_EQ(Long.size(), 512u);
  EXPECT_EQ(Long.back(), '7');
}

TEST(StringUtils, IdentifierValidation) {
  EXPECT_TRUE(isValidIdentifier("tid_1"));
  EXPECT_TRUE(isValidIdentifier("_x9"));
  EXPECT_FALSE(isValidIdentifier("9x"));
  EXPECT_FALSE(isValidIdentifier(""));
  EXPECT_FALSE(isValidIdentifier("a-b"));
}

TEST(BuildId, ReadsTheExecutablesGnuNote) {
  // Every target links with --build-id (CMakeLists.txt).
  const std::string &Id = executableBuildId();
  ASSERT_FALSE(Id.empty());
  EXPECT_EQ(Id.size() % 2, 0u);
  EXPECT_EQ(Id.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(&Id, &executableBuildId()); // read once per process
}

TEST(Diagnostics, FormattingAndCounts) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(Diags.hasErrors());
  Diags.warning(SourceLocation(1, 2), "something odd");
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error(SourceLocation(3, 7), "bad thing");
  Diags.note(SourceLocation(), "context");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 1u);

  std::string Text = Diags.str();
  EXPECT_NE(Text.find("warning: 1:2: something odd"), std::string::npos);
  EXPECT_NE(Text.find("error: 3:7: bad thing"), std::string::npos);
  EXPECT_NE(Text.find("note: context"), std::string::npos)
      << "invalid locations are omitted, not printed as 0:0";

  Diags.clear();
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Diags.str().empty());
}

TEST(Casting, IsaCastDynCast) {
  ASTContext Ctx;
  Stmt *S = Ctx.create<BreakStmt>(SourceLocation());
  EXPECT_TRUE(isa<BreakStmt>(S));
  EXPECT_FALSE(isa<ContinueStmt>(S));
  EXPECT_NE(cast<BreakStmt>(S), nullptr);
  EXPECT_EQ(dyn_cast<ContinueStmt>(S), nullptr);
  EXPECT_NE(dyn_cast<BreakStmt>(S), nullptr);

  Stmt *Null = nullptr;
  EXPECT_EQ(dyn_cast_or_null<BreakStmt>(Null), nullptr);

  // Expr is a Stmt subclass range check.
  Expr *E = Ctx.intLit(5);
  Stmt *AsStmt = E;
  EXPECT_TRUE(isa<Expr>(AsStmt));
  EXPECT_TRUE(isa<IntLiteralExpr>(AsStmt));
  EXPECT_FALSE(isa<FloatLiteralExpr>(AsStmt));
}

TEST(SourceLocationTest, Rendering) {
  EXPECT_EQ(SourceLocation().str(), "<unknown>");
  EXPECT_EQ(SourceLocation(12, 3).str(), "12:3");
  EXPECT_TRUE(SourceLocation(1, 1).isValid());
  EXPECT_FALSE(SourceLocation().isValid());
}

TEST(StatusTest, CodesTransienceAndRendering) {
  Status Ok;
  EXPECT_TRUE(Ok.ok());
  EXPECT_FALSE(Ok.transient());
  EXPECT_EQ(Ok.str(), "ok");
  EXPECT_STREQ(errorCodeName(ErrorCode::Ok), "Ok");

  Status S(ErrorCode::SimDeadlock, "no progress");
  EXPECT_FALSE(S.ok());
  EXPECT_FALSE(S.transient());
  EXPECT_EQ(S.code(), ErrorCode::SimDeadlock);
  EXPECT_EQ(S.str(), "SimDeadlock: no progress");

  Status T = Status::transient(ErrorCode::CacheCorrupt, "injected");
  EXPECT_TRUE(T.transient());
  EXPECT_EQ(T.str(), "CacheCorrupt: injected");

  // Every code renders to a distinct, non-empty name.
  std::set<std::string> Names;
  for (int C = 0; C <= static_cast<int>(ErrorCode::Internal); ++C)
    Names.insert(errorCodeName(static_cast<ErrorCode>(C)));
  EXPECT_EQ(Names.size(), static_cast<size_t>(ErrorCode::Internal) + 1);
  EXPECT_EQ(Names.count(""), 0u);
}

TEST(StatusTest, ExpectedValueAndError) {
  Expected<int> V(42);
  ASSERT_TRUE(bool(V));
  EXPECT_EQ(*V, 42);
  EXPECT_TRUE(V.status().ok());
  EXPECT_EQ(V.take(), 42);

  Expected<std::unique_ptr<int>> E(Status(ErrorCode::ParseError, "bad"));
  EXPECT_FALSE(bool(E));
  EXPECT_EQ(E.status().code(), ErrorCode::ParseError);

  // Building an "error" from an ok status is a caller bug and must not
  // produce a value-less success.
  Expected<int> Weird((Status()));
  EXPECT_FALSE(bool(Weird));
  EXPECT_EQ(Weird.status().code(), ErrorCode::Internal);
}

namespace {

/// Restores a disarmed process-wide injector when the test ends.
struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::instance().reset(); }
};

} // namespace

TEST(FaultInjectorTest, SpecParsing) {
  InjectorGuard G;
  FaultInjector &FI = FaultInjector::instance();
  std::string Err;
  EXPECT_TRUE(FI.configure("", &Err));
  EXPECT_FALSE(FI.armed());
  EXPECT_TRUE(FI.configure("compile:nth=2;sim-wedge:label=896/128", &Err))
      << Err;
  EXPECT_TRUE(FI.armed());
  // label= consumes the rest of the rule, so substrings may contain ':'.
  EXPECT_TRUE(FI.configure("lower:label=896/128:r40", &Err)) << Err;
  EXPECT_TRUE(FI.check(FaultSite::Lower, "x 896/128:r40 y").ok() == false);

  EXPECT_FALSE(FI.configure("frobnicate", &Err));
  EXPECT_NE(Err.find("frobnicate"), std::string::npos);
  EXPECT_FALSE(FI.configure("compile:nth=0", &Err));
  EXPECT_FALSE(FI.configure("compile:nth=abc", &Err));
  // A malformed spec disarms rather than half-applying.
  EXPECT_FALSE(FI.armed());
}

TEST(FaultInjectorTest, NthCountsLabelMatchingQueriesAndFiresOnce) {
  InjectorGuard G;
  FaultInjector &FI = FaultInjector::instance();
  ASSERT_TRUE(FI.configure("compile:nth=2:label=hist"));

  // Non-matching labels and other sites do not advance the counter.
  EXPECT_TRUE(FI.check(FaultSite::Compile, "batchnorm").ok());
  EXPECT_TRUE(FI.check(FaultSite::Fuse, "hist").ok());
  EXPECT_TRUE(FI.check(FaultSite::Compile, "hist").ok()); // match #1
  Status S = FI.check(FaultSite::Compile, "hist");        // match #2: fire
  ASSERT_FALSE(S.ok());
  EXPECT_TRUE(S.transient());
  EXPECT_EQ(S.code(), ErrorCode::CodegenError);
  EXPECT_NE(S.message().find("injected fault at compile #2"),
            std::string::npos)
      << S.message();
  // Spent: never fires again.
  EXPECT_TRUE(FI.check(FaultSite::Compile, "hist").ok());
  EXPECT_EQ(FI.firedCount(), 1u);
}

TEST(FaultInjectorTest, LabelOnlyRuleFiresOnEveryMatch) {
  InjectorGuard G;
  FaultInjector &FI = FaultInjector::instance();
  ASSERT_TRUE(FI.configure("sim-wedge:label=640/384"));
  for (int I = 0; I < 3; ++I) {
    Status S = FI.check(FaultSite::SimWedge, "HFuse(A+B,640/384)");
    EXPECT_FALSE(S.ok());
    EXPECT_EQ(S.code(), ErrorCode::SimDeadlock);
  }
  EXPECT_TRUE(FI.check(FaultSite::SimWedge, "HFuse(A+B,512/512)").ok());
  EXPECT_EQ(FI.firedCount(), 3u);

  FI.reset();
  EXPECT_FALSE(FI.armed());
  EXPECT_EQ(FI.firedCount(), 0u);
  EXPECT_TRUE(FI.check(FaultSite::SimWedge, "HFuse(A+B,640/384)").ok());
}

TEST(FaultInjectorTest, SiteCodesAndNames) {
  InjectorGuard G;
  FaultInjector &FI = FaultInjector::instance();
  EXPECT_STREQ(faultSiteName(FaultSite::Compile), "compile");
  struct {
    const char *Spec;
    FaultSite Site;
    ErrorCode Code;
  } Cases[] = {
      {"compile", FaultSite::Compile, ErrorCode::CodegenError},
      {"fuse", FaultSite::Fuse, ErrorCode::FusionUnsupported},
      {"lower", FaultSite::Lower, ErrorCode::RegAllocError},
      {"sim-wedge", FaultSite::SimWedge, ErrorCode::SimDeadlock},
      {"store-write-torn", FaultSite::StoreWriteTorn, ErrorCode::StoreError},
      {"store-corrupt", FaultSite::StoreCorrupt, ErrorCode::CacheCorrupt},
      {"store-lock-timeout", FaultSite::StoreLockTimeout,
       ErrorCode::StoreError},
      {"store-read-fail", FaultSite::StoreReadFail, ErrorCode::StoreError},
      {"cancel-compile", FaultSite::CancelCompile, ErrorCode::Cancelled},
      {"cancel-prune", FaultSite::CancelPrune, ErrorCode::Cancelled},
      {"cancel-simulate", FaultSite::CancelSimulate, ErrorCode::Cancelled},
  };
  for (const auto &C : Cases) {
    ASSERT_TRUE(FI.configure(C.Spec));
    Status S = FI.check(C.Site, "anything");
    ASSERT_FALSE(S.ok()) << C.Spec;
    EXPECT_EQ(S.code(), C.Code) << C.Spec;
    EXPECT_TRUE(S.transient());
  }
  // The site list used by `hfusec --fault list` covers exactly the
  // enum: every listed name parses, and every case above is listed.
  EXPECT_EQ(allFaultSites().size(), std::size(Cases));
  for (FaultSite S : allFaultSites()) {
    ASSERT_TRUE(FI.configure(faultSiteName(S))) << faultSiteName(S);
    EXPECT_FALSE(FI.check(S, "x").ok()) << faultSiteName(S);
  }
}

TEST(HashingTest, Fnv1a64KnownVectorsAndStreaming) {
  // Published FNV-1a 64 test vectors: the on-disk checksums must be
  // specified byte-for-byte, not merely self-consistent.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);

  // Chunking must not matter.
  Fnv1a64 H;
  H.str("foo").str("bar");
  EXPECT_EQ(H.digest(), fnv1a64("foobar"));

  // Embedded NULs are ordinary bytes.
  std::string WithNul("a\0b", 3);
  EXPECT_NE(fnv1a64(WithNul), fnv1a64("ab"));
}

TEST(BinaryCodecTest, RoundTripAllFieldTypes) {
  ByteWriter W;
  W.u8(0xfe);
  W.u32(0xdeadbeef);
  W.u64(0x0123456789abcdefull);
  W.f64(-0.1); // not exactly representable: bit-pattern fidelity matters
  W.str(std::string("k\0ey", 4));
  W.str("");
  W.raw("tail");

  ByteReader R(W.data());
  EXPECT_EQ(R.u8(), 0xfe);
  EXPECT_EQ(R.u32(), 0xdeadbeefu);
  EXPECT_EQ(R.u64(), 0x0123456789abcdefull);
  double Expect = -0.1, D = R.f64();
  EXPECT_EQ(std::memcmp(&D, &Expect, sizeof(double)), 0);
  EXPECT_EQ(R.str(), std::string("k\0ey", 4));
  EXPECT_EQ(R.str(), "");
  EXPECT_EQ(R.remaining(), 4u);
  EXPECT_TRUE(R.ok());
  EXPECT_FALSE(R.atEnd());
}

TEST(BinaryCodecTest, LittleEndianLayoutIsFixed) {
  ByteWriter W;
  W.u32(0x04030201);
  ASSERT_EQ(W.data().size(), 4u);
  EXPECT_EQ(W.data()[0], 1);
  EXPECT_EQ(W.data()[1], 2);
  EXPECT_EQ(W.data()[2], 3);
  EXPECT_EQ(W.data()[3], 4);
}

TEST(BinaryCodecTest, EveryPrefixTruncationFailsCleanly) {
  ByteWriter W;
  W.u32(7);
  W.str("payload");
  W.u64(42);
  W.f64(1.5);
  const std::string Full = W.data();

  auto ReadAll = [](ByteReader &R) {
    (void)R.u32();
    (void)R.str();
    (void)R.u64();
    (void)R.f64();
  };
  for (size_t Len = 0; Len < Full.size(); ++Len) {
    ByteReader R(std::string_view(Full).substr(0, Len));
    ReadAll(R);
    EXPECT_FALSE(R.ok()) << "prefix length " << Len;
    EXPECT_FALSE(R.atEnd()) << "prefix length " << Len;
    // The error is sticky: further reads stay zero, never crash.
    EXPECT_EQ(R.u64(), 0u);
  }
  ByteReader R(Full);
  ReadAll(R);
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.atEnd());
}

TEST(RetryTest, DeterministicBackoffScheduleAndBounds) {
  std::vector<uint64_t> Delays;
  RetryPolicy P;
  P.MaxAttempts = 4;
  P.BackoffBaseMs = 5;
  P.Sleep = [&](uint64_t Ms) { Delays.push_back(Ms); };

  int Calls = 0;
  uint64_t Retries = 0;
  Status S = retryTransient(
      P,
      [&]() {
        ++Calls;
        return Status::transient(ErrorCode::StoreError, "flaky");
      },
      &Retries);
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(Calls, 4);
  EXPECT_EQ(Retries, 3u);
  // Doubling schedule, pinned exactly: 5, 10, 20 (nothing before the
  // first attempt).
  ASSERT_EQ(Delays.size(), 3u);
  EXPECT_EQ(Delays[0], 5u);
  EXPECT_EQ(Delays[1], 10u);
  EXPECT_EQ(Delays[2], 20u);
}

TEST(RetryTest, PermanentFailuresAndSuccessesDoNotRetry) {
  RetryPolicy P;
  P.MaxAttempts = 5;
  P.Sleep = [](uint64_t) {};

  int Calls = 0;
  uint64_t Retries = 0;
  Status S = retryTransient(
      P,
      [&]() {
        ++Calls;
        return Status(ErrorCode::ParseError, "always");
      },
      &Retries);
  EXPECT_EQ(S.code(), ErrorCode::ParseError);
  EXPECT_EQ(Calls, 1);
  EXPECT_EQ(Retries, 0u);

  Calls = 0;
  int FailFirst = 2;
  S = retryTransient(P, [&]() {
    ++Calls;
    if (FailFirst-- > 0)
      return Status::transient(ErrorCode::StoreError, "flaky");
    return Status::success();
  });
  EXPECT_TRUE(S.ok());
  EXPECT_EQ(Calls, 3);

  // The default policy never retries.
  RetryPolicy Default;
  Calls = 0;
  S = retryTransient(Default, [&]() {
    ++Calls;
    return Status::transient(ErrorCode::StoreError, "flaky");
  });
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(Calls, 1);
}

TEST(TypesTest, InterningAndProperties) {
  TypeContext Types;
  EXPECT_EQ(Types.pointerTo(Types.floatTy()),
            Types.pointerTo(Types.floatTy()));
  EXPECT_EQ(Types.arrayOf(Types.intTy(), 8), Types.arrayOf(Types.intTy(), 8));
  EXPECT_NE(Types.arrayOf(Types.intTy(), 8), Types.arrayOf(Types.intTy(), 9));

  EXPECT_TRUE(Types.ulongTy()->isUnsignedInteger());
  EXPECT_TRUE(Types.charTy()->isSignedInteger());
  EXPECT_EQ(Types.doubleTy()->bitWidth(), 64u);
  EXPECT_EQ(Types.pointerTo(Types.intTy())->storeSize(), 8u);
  EXPECT_EQ(Types.arrayOf(Types.floatTy(), 10)->storeSize(), 40u);
  EXPECT_TRUE(Types.arrayOf(Types.ucharTy(), 0)->isUnsizedArray());
  EXPECT_EQ(Types.pointerTo(Types.floatTy())->str(), "float *");
  EXPECT_EQ(Types.arrayOf(Types.uintTy(), 4)->str(), "unsigned int [4]");
}

TEST(CancellationTokenTest, EmptyTokenIsInertAndFree) {
  CancellationToken T;
  EXPECT_FALSE(T.valid());
  EXPECT_FALSE(T.cancelled());
  T.cancel(); // no-op, no crash
  EXPECT_FALSE(T.cancelled());
  EXPECT_EQ(T.reason(), CancellationToken::Reason::None);
  EXPECT_TRUE(T.status().ok());
}

TEST(CancellationTokenTest, CancelLatchesAndCopiesShareState) {
  CancellationToken T = CancellationToken::make();
  CancellationToken Copy = T; // same shared state
  EXPECT_FALSE(T.cancelled());
  Copy.cancel();
  EXPECT_TRUE(T.cancelled());
  EXPECT_EQ(T.reason(), CancellationToken::Reason::Cancelled);
  EXPECT_EQ(T.status().code(), ErrorCode::Cancelled);
  EXPECT_TRUE(T.status().transient());
  // Idempotent; the first cause sticks.
  T.cancel();
  EXPECT_EQ(T.reason(), CancellationToken::Reason::Cancelled);
}

TEST(CancellationTokenTest, DeadlineLatchesWithStableReason) {
  // A deadline already in the past fires on first observation.
  CancellationToken T =
      CancellationToken::withDeadline(CancellationToken::Clock::now() -
                                      std::chrono::milliseconds(1));
  EXPECT_TRUE(T.cancelled());
  EXPECT_EQ(T.reason(), CancellationToken::Reason::Deadline);
  EXPECT_EQ(T.status().code(), ErrorCode::DeadlineExceeded);
  // A later explicit cancel cannot rewrite the cause.
  T.cancel();
  EXPECT_EQ(T.reason(), CancellationToken::Reason::Deadline);

  // A generous deadline does not fire.
  CancellationToken Far = CancellationToken::withDeadlineMs(600000);
  EXPECT_FALSE(Far.cancelled());
}

TEST(ThreadPoolTest, TaskExceptionsAreContainedAndCounted) {
  ThreadPool Pool(2);
  std::atomic<int> Ran{0};
  for (int I = 0; I < 4; ++I)
    Pool.submit([&Ran, I] {
      if (I % 2)
        throw std::runtime_error("task failure");
      ++Ran;
    });
  Pool.wait();
  // Throwing tasks never take down a worker: the healthy tasks all
  // ran, the pool still accepts work, and the count is observable.
  EXPECT_EQ(Ran.load(), 2);
  EXPECT_EQ(Pool.taskExceptions(), 2u);
  Pool.submit([&Ran] { ++Ran; });
  Pool.wait();
  EXPECT_EQ(Ran.load(), 3);
}

} // namespace
