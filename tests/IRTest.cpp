//===-- tests/IRTest.cpp - IR, register allocation, memory model ----------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the SASS-lite IR: instruction classification, kernel
/// linearization, liveness-driven register allocation (slot reuse, spill
/// behavior, parameter preservation, bound monotonicity), and the
/// memory-system building blocks (bandwidth bucket, MSHR tracker).
///
//===----------------------------------------------------------------------===//

#include "gpusim/MemorySystem.h"
#include "ir/IR.h"
#include "ir/RegAlloc.h"
#include "profile/Compile.h"

#include <gtest/gtest.h>

using namespace hfuse;
using namespace hfuse::ir;
using namespace hfuse::gpusim;

namespace {

Instruction movImm(Reg Dst, int64_t Imm, Width W = Width::W32) {
  Instruction I;
  I.Op = Opcode::MovImm;
  I.W = W;
  I.Dst = Dst;
  I.Imm = Imm;
  return I;
}

Instruction binOp(Opcode Op, Reg Dst, Reg A, Reg B, Width W = Width::W32) {
  Instruction I;
  I.Op = Op;
  I.W = W;
  I.Dst = Dst;
  I.Src[0] = A;
  I.Src[1] = B;
  return I;
}

Instruction exitInst() {
  Instruction I;
  I.Op = Opcode::Exit;
  return I;
}

/// Builds a straight-line kernel: Chain dependent adds after LiveCount
/// simultaneously live defs, all consumed at the end.
IRKernel makeStraightLine(unsigned LiveCount) {
  IRKernel K;
  K.Name = "straightline";
  K.addBlock();
  auto &B = K.Blocks[0].Insts;
  for (unsigned I = 0; I < LiveCount; ++I)
    B.push_back(movImm(static_cast<Reg>(I), I));
  // Consume all values pairwise so every def stays live until here.
  Reg Acc = 0;
  Reg Next = static_cast<Reg>(LiveCount);
  for (unsigned I = 1; I < LiveCount; ++I) {
    B.push_back(binOp(Opcode::IAdd, Next, Acc, static_cast<Reg>(I)));
    Acc = Next;
    ++Next;
  }
  B.push_back(exitInst());
  K.NumRegs = Next;
  K.RegWidths.assign(Next, Width::W32);
  K.linearize();
  return K;
}

//===----------------------------------------------------------------------===//
// Classification and printing
//===----------------------------------------------------------------------===//

TEST(IR, Classification) {
  Instruction I;
  I.Op = Opcode::IAdd;
  I.W = Width::W32;
  EXPECT_EQ(classify(I), InstrClass::IAlu32);
  I.W = Width::W64;
  EXPECT_EQ(classify(I), InstrClass::IAlu64);
  I.Op = Opcode::FMul;
  I.W = Width::W32;
  EXPECT_EQ(classify(I), InstrClass::FAlu32);
  I.Op = Opcode::FSqrt;
  EXPECT_EQ(classify(I), InstrClass::Sfu);
  I.Op = Opcode::LdGlobal;
  EXPECT_EQ(classify(I), InstrClass::GlobalMem);
  I.Op = Opcode::AtomAddS;
  EXPECT_EQ(classify(I), InstrClass::SharedAtomic);
  I.Op = Opcode::Bar;
  EXPECT_EQ(classify(I), InstrClass::Barrier);
  I.Op = Opcode::CBra;
  EXPECT_EQ(classify(I), InstrClass::Control);
  I.Op = Opcode::Shfl;
  EXPECT_EQ(classify(I), InstrClass::Shuffle);
}

TEST(IR, TerminatorsAndLinearize) {
  IRKernel K;
  unsigned B0 = K.addBlock();
  unsigned B1 = K.addBlock();
  K.Blocks[B0].Insts.push_back(movImm(0, 7));
  Instruction Br;
  Br.Op = Opcode::Bra;
  Br.Imm = B1;
  K.Blocks[B0].Insts.push_back(Br);
  K.Blocks[B1].Insts.push_back(exitInst());
  K.NumRegs = 1;
  K.RegWidths.assign(1, Width::W32);
  K.linearize();
  ASSERT_EQ(K.Flat.size(), 3u);
  ASSERT_EQ(K.BlockStart.size(), 2u);
  EXPECT_EQ(K.BlockStart[0], 0u);
  EXPECT_EQ(K.BlockStart[1], 2u);
  EXPECT_TRUE(K.Flat[1].isBranch());
  EXPECT_FALSE(K.Flat[0].isTerminator());
  EXPECT_NE(K.str().find("straight"), 0u); // str() does not crash
}

TEST(IR, InstructionToString) {
  Instruction I = binOp(Opcode::IAdd, 3, 1, 2);
  std::string S = instructionToString(I);
  EXPECT_NE(S.find("iadd"), std::string::npos);
  EXPECT_NE(S.find("r3"), std::string::npos);
  Instruction Bar;
  Bar.Op = Opcode::Bar;
  Bar.Imm = 1;
  Bar.Imm2 = 896;
  S = instructionToString(Bar);
  EXPECT_NE(S.find("bar.sync"), std::string::npos);
  EXPECT_NE(S.find("896"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Register allocation
//===----------------------------------------------------------------------===//

TEST(RegAllocUnit, SlotReuseForDisjointLifetimes) {
  // v0 and v1 have disjoint lifetimes: one slot suffices (plus the use).
  IRKernel K;
  K.addBlock();
  auto &B = K.Blocks[0].Insts;
  B.push_back(movImm(0, 1));
  B.push_back(binOp(Opcode::IAdd, 1, 0, 0)); // v1 = v0+v0; v0 dies
  B.push_back(binOp(Opcode::IAdd, 2, 1, 1)); // v2 = v1+v1; v1 dies
  B.push_back(exitInst());
  K.NumRegs = 3;
  K.RegWidths.assign(3, Width::W32);
  K.linearize();
  RegAllocResult R = allocateRegisters(K);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_LE(R.NumSlots, 2u);
  EXPECT_EQ(R.NumSpilled, 0u);
}

TEST(RegAllocUnit, PressureCountsW64AsTwo) {
  IRKernel K32 = makeStraightLine(20);
  RegAllocResult R32 = allocateRegisters(K32);
  ASSERT_TRUE(R32.Ok);

  IRKernel K64;
  K64.addBlock();
  auto &B = K64.Blocks[0].Insts;
  for (unsigned I = 0; I < 20; ++I)
    B.push_back(movImm(static_cast<Reg>(I), I, Width::W64));
  Reg Acc = 0;
  Reg Next = 20;
  for (unsigned I = 1; I < 20; ++I) {
    B.push_back(binOp(Opcode::IAdd, Next, Acc, static_cast<Reg>(I),
                      Width::W64));
    Acc = Next;
    ++Next;
  }
  B.push_back(exitInst());
  K64.NumRegs = Next;
  K64.RegWidths.assign(Next, Width::W64);
  K64.linearize();
  RegAllocResult R64 = allocateRegisters(K64);
  ASSERT_TRUE(R64.Ok);
  EXPECT_GT(R64.ArchRegs, R32.ArchRegs);
  EXPECT_GE(R64.ArchRegs, 2 * (R32.ArchRegs - RegOverhead));
}

TEST(RegAllocUnit, BoundForcesSpills) {
  IRKernel K = makeStraightLine(40);
  RegAllocResult Unbounded = allocateRegisters(K);
  ASSERT_TRUE(Unbounded.Ok);
  EXPECT_GE(Unbounded.ArchRegs, 40u);

  IRKernel K2 = makeStraightLine(40);
  RegAllocResult Bounded = allocateRegisters(K2, 30);
  ASSERT_TRUE(Bounded.Ok) << Bounded.Error;
  EXPECT_LE(Bounded.ArchRegs, 30u);
  EXPECT_GT(Bounded.NumSpilled, 0u);
  // Spill slots are shared between spills whose intervals do not
  // overlap, so the frame grows by at most one slot per spill.
  EXPECT_GT(Bounded.SpillBytes, 0u);
  EXPECT_LE(Bounded.SpillBytes, Bounded.NumSpilled * 8);
  EXPECT_EQ(K2.LocalBytes, Bounded.SpillBytes);

  // Spill code present: local loads/stores appear in the stream.
  unsigned NumLocal = 0;
  for (const Instruction &I : K2.Flat)
    if (I.Op == Opcode::LdLocal || I.Op == Opcode::StLocal)
      ++NumLocal;
  EXPECT_GT(NumLocal, 0u);
}

TEST(RegAllocUnit, TighterBoundsNeverRaiseArchRegs) {
  unsigned Last = UINT32_MAX;
  for (unsigned Bound : {0u, 64u, 48u, 40u, 32u, 28u}) {
    IRKernel K = makeStraightLine(48);
    RegAllocResult R = allocateRegisters(K, Bound);
    ASSERT_TRUE(R.Ok) << "bound " << Bound << ": " << R.Error;
    if (Bound != 0) {
      EXPECT_LE(R.ArchRegs, Bound);
    }
    EXPECT_LE(R.ArchRegs, Last);
    Last = R.ArchRegs;
  }
}

TEST(RegAllocUnit, ImpossibleBoundRejected) {
  IRKernel K = makeStraightLine(16);
  RegAllocResult R = allocateRegisters(K, 10);
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(R.Error.empty());
}

TEST(RegAllocUnit, ParamRegsRemapped) {
  IRKernel K;
  K.addBlock();
  auto &B = K.Blocks[0].Insts;
  // Params in v0, v1 (64-bit pointer + int).
  K.ParamRegs = {0, 1};
  B.push_back(binOp(Opcode::IAdd, 2, 0, 1, Width::W64));
  Instruction St;
  St.Op = Opcode::StGlobal;
  St.Src[0] = 2;
  St.Src[1] = 1;
  St.MemSize = 4;
  B.push_back(St);
  B.push_back(exitInst());
  K.NumRegs = 3;
  K.RegWidths = {Width::W64, Width::W32, Width::W64};
  K.linearize();
  RegAllocResult R = allocateRegisters(K);
  ASSERT_TRUE(R.Ok);
  ASSERT_EQ(K.ParamRegs.size(), 2u);
  EXPECT_LT(K.ParamRegs[0], R.NumSlots);
  EXPECT_LT(K.ParamRegs[1], R.NumSlots);
  EXPECT_NE(K.ParamRegs[0], K.ParamRegs[1]);
}

//===----------------------------------------------------------------------===//
// Memory system
//===----------------------------------------------------------------------===//

TEST(MemorySystemUnit, LatencyWithoutContention) {
  MemorySystem M(/*BytesPerCycle=*/32.0, /*BaseLatency=*/400,
                 /*SectorBytes=*/32);
  // One sector at an idle bus: ready after ~base latency.
  EXPECT_EQ(M.schedule(1000, 1), 1401u);
}

TEST(MemorySystemUnit, BandwidthQueuesRequests) {
  MemorySystem M(/*BytesPerCycle=*/32.0, /*BaseLatency=*/400,
                 /*SectorBytes=*/32);
  uint64_t First = M.schedule(0, 32); // 32 sectors back to back
  uint64_t Second = M.schedule(0, 32);
  EXPECT_EQ(First, 432u);
  EXPECT_EQ(Second, 464u) << "second warp must queue behind the first";
}

TEST(MemorySystemUnit, InflightTrackerBackpressure) {
  InflightTracker T(/*MaxSectors=*/8);
  EXPECT_TRUE(T.canIssue(0, 4));
  T.issue(/*CompletionCycle=*/100, 4);
  EXPECT_TRUE(T.canIssue(0, 4));
  T.issue(100, 4);
  EXPECT_FALSE(T.canIssue(0, 1)) << "8 sectors in flight is the cap";
  EXPECT_EQ(T.nextCompletion(), 100u);
  EXPECT_TRUE(T.canIssue(100, 4)) << "drained at completion time";
  // An idle tracker always accepts one access, however large.
  InflightTracker T2(8);
  EXPECT_TRUE(T2.canIssue(0, 32));
}

} // namespace

//===----------------------------------------------------------------------===//
// Content hash
//===----------------------------------------------------------------------===//

namespace {

std::unique_ptr<profile::CompiledKernel> compileOrFail(const std::string &Src) {
  DiagnosticEngine Diags;
  auto K = profile::compileSource(Src, "", /*RegBound=*/0, Diags);
  EXPECT_NE(K, nullptr) << Diags.str();
  return K;
}

} // namespace

TEST(IRContentHash, CoversFieldsStrOmits) {
  // Each pair lowers to the same printed text but simulates differently:
  // a sign- vs zero-extending byte load (MemSigned), and a float vs an
  // integer atomic add (AtomFloat). str() cannot key the store; the
  // content hash must tell them apart.
  const std::pair<const char *, const char *> Pairs[] = {
      {"__global__ void k(int *out, const char *in) {\n"
       "  int i = threadIdx.x;\n"
       "  out[i] = in[i];\n"
       "}\n",
       "__global__ void k(int *out, const unsigned char *in) {\n"
       "  int i = threadIdx.x;\n"
       "  out[i] = in[i];\n"
       "}\n"},
      {"__global__ void k(float *p, float v) { atomicAdd(&p[0], v); }\n",
       "__global__ void k(int *p, int v) { atomicAdd(&p[0], v); }\n"},
  };
  for (const auto &[A, B] : Pairs) {
    SCOPED_TRACE(A);
    auto KA = compileOrFail(A);
    auto KB = compileOrFail(B);
    ASSERT_TRUE(KA && KB);
    EXPECT_EQ(KA->IR->str(), KB->IR->str());
    EXPECT_NE(KA->IR->contentHash(), KB->IR->contentHash());
  }
}

TEST(IRContentHash, EqualForTwoCompilesOfOneSource) {
  const char *Src = "__global__ void k(float *a, int n) {\n"
                    "  int i = blockIdx.x * blockDim.x + threadIdx.x;\n"
                    "  if (i < n) a[i] = a[i] * 2.0f;\n"
                    "}\n";
  auto K1 = compileOrFail(Src);
  auto K2 = compileOrFail(Src);
  ASSERT_TRUE(K1 && K2);
  EXPECT_NE(K1->IR.get(), K2->IR.get());
  EXPECT_EQ(K1->IR->contentHash(), K2->IR->contentHash());
}
