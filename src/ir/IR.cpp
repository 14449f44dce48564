//===-- ir/IR.cpp - SASS-lite register IR ---------------------------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/IR.h"

#include "support/Hashing.h"
#include "support/StringUtils.h"

using namespace hfuse;
using namespace hfuse::ir;

static const char *opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Nop:
    return "nop";
  case Opcode::MovImm:
    return "movi";
  case Opcode::Mov:
    return "mov";
  case Opcode::SReg:
    return "sreg";
  case Opcode::IAdd:
    return "iadd";
  case Opcode::ISub:
    return "isub";
  case Opcode::IMul:
    return "imul";
  case Opcode::IDivS:
    return "idiv.s";
  case Opcode::IDivU:
    return "idiv.u";
  case Opcode::IRemS:
    return "irem.s";
  case Opcode::IRemU:
    return "irem.u";
  case Opcode::IMinS:
    return "imin.s";
  case Opcode::IMinU:
    return "imin.u";
  case Opcode::IMaxS:
    return "imax.s";
  case Opcode::IMaxU:
    return "imax.u";
  case Opcode::Shl:
    return "shl";
  case Opcode::ShrU:
    return "shr.u";
  case Opcode::ShrS:
    return "shr.s";
  case Opcode::And:
    return "and";
  case Opcode::Or:
    return "or";
  case Opcode::Xor:
    return "xor";
  case Opcode::Not:
    return "not";
  case Opcode::ICmpS:
    return "icmp.s";
  case Opcode::ICmpU:
    return "icmp.u";
  case Opcode::Sel:
    return "sel";
  case Opcode::FAdd:
    return "fadd";
  case Opcode::FSub:
    return "fsub";
  case Opcode::FMul:
    return "fmul";
  case Opcode::FDiv:
    return "fdiv";
  case Opcode::FSqrt:
    return "fsqrt";
  case Opcode::FRsqrt:
    return "frsqrt";
  case Opcode::FExp:
    return "fexp";
  case Opcode::FLog:
    return "flog";
  case Opcode::FMin:
    return "fmin";
  case Opcode::FMax:
    return "fmax";
  case Opcode::FNeg:
    return "fneg";
  case Opcode::FAbs:
    return "fabs";
  case Opcode::FFloor:
    return "ffloor";
  case Opcode::FCmp:
    return "fcmp";
  case Opcode::CvtSI2F:
    return "cvt.s2f";
  case Opcode::CvtUI2F:
    return "cvt.u2f";
  case Opcode::CvtF2SI:
    return "cvt.f2s";
  case Opcode::CvtF2UI:
    return "cvt.f2u";
  case Opcode::CvtF2F:
    return "cvt.f2f";
  case Opcode::CvtSExt:
    return "cvt.sext";
  case Opcode::CvtZExt:
    return "cvt.zext";
  case Opcode::LdGlobal:
    return "ld.global";
  case Opcode::StGlobal:
    return "st.global";
  case Opcode::LdShared:
    return "ld.shared";
  case Opcode::StShared:
    return "st.shared";
  case Opcode::LdLocal:
    return "ld.local";
  case Opcode::StLocal:
    return "st.local";
  case Opcode::AtomAddG:
    return "atom.add.global";
  case Opcode::AtomAddS:
    return "atom.add.shared";
  case Opcode::Shfl:
    return "shfl.xor";
  case Opcode::Bar:
    return "bar.sync";
  case Opcode::Bra:
    return "bra";
  case Opcode::CBra:
    return "cbra";
  case Opcode::Exit:
    return "exit";
  }
  return "?";
}

static const char *predName(CmpPred P) {
  switch (P) {
  case CmpPred::EQ:
    return "eq";
  case CmpPred::NE:
    return "ne";
  case CmpPred::LT:
    return "lt";
  case CmpPred::LE:
    return "le";
  case CmpPred::GT:
    return "gt";
  case CmpPred::GE:
    return "ge";
  }
  return "?";
}

std::string hfuse::ir::instructionToString(const Instruction &I) {
  std::string Out = opcodeName(I.Op);
  if (I.Op == Opcode::ICmpS || I.Op == Opcode::ICmpU || I.Op == Opcode::FCmp) {
    Out += '.';
    Out += predName(I.Pred);
  }
  Out += I.W == Width::W64 ? ".64" : ".32";
  auto AppendReg = [&](Reg R) {
    Out += formatString(" r%u", unsigned(R));
  };
  if (I.Dst != NoReg)
    AppendReg(I.Dst);
  for (Reg S : I.Src)
    if (S != NoReg)
      AppendReg(S);
  if (I.Op == Opcode::MovImm || I.Op == Opcode::Bra || I.Op == Opcode::CBra ||
      I.Op == Opcode::Bar || I.Op == Opcode::SReg || I.Imm != 0)
    Out += formatString(" imm=%lld", static_cast<long long>(I.Imm));
  if (I.Op == Opcode::CBra || I.Op == Opcode::Bar || I.Imm2 != 0)
    Out += formatString(" imm2=%d", I.Imm2);
  return Out;
}

uint64_t IRKernel::contentHash() const {
  // Fields go in one at a time at fixed widths (raw struct bytes would
  // hash padding), and every sequence is length-prefixed, so no two
  // layouts feed the same bytes.
  Fnv1a64 H;
  H.le(Name.size(), 4).str(Name);
  H.le(NumRegs, 4).le(ArchRegsPerThread, 4);
  H.le(StaticSharedBytes, 4).le(UsesDynamicShared, 1).le(LocalBytes, 4);
  H.le(ParamRegs.size(), 4);
  for (Reg R : ParamRegs)
    H.le(R, 2);
  H.le(SpilledParams.size(), 4);
  for (const ParamSpill &S : SpilledParams)
    H.le(S.ParamIndex, 4).le(S.LocalOffset, 4);
  H.le(Blocks.size(), 4);
  for (const BasicBlock &B : Blocks) {
    H.le(B.Insts.size(), 4);
    for (const Instruction &I : B.Insts) {
      // Binding every field stops compiling when Instruction gains one,
      // so a new field cannot be left out of the hash (a store schema
      // bump goes with it).
      const auto &[Op, W, SrcW, Pred, MemSize, MemSigned, AtomFloat, Dst,
                   Src, Imm, Imm2] = I;
      H.le(static_cast<uint8_t>(Op), 1)
          .le(static_cast<uint8_t>(W), 1)
          .le(static_cast<uint8_t>(SrcW), 1)
          .le(static_cast<uint8_t>(Pred), 1)
          .le(MemSize, 1)
          .le(MemSigned, 1)
          .le(AtomFloat, 1)
          .le(Dst, 2)
          .le(Src[0], 2)
          .le(Src[1], 2)
          .le(Src[2], 2)
          .le(static_cast<uint64_t>(Imm), 8)
          .le(static_cast<uint32_t>(Imm2), 4);
    }
  }
  return H.digest();
}

void IRKernel::linearize() {
  Flat.clear();
  BlockStart.clear();
  BlockStart.reserve(Blocks.size());
  for (const BasicBlock &B : Blocks) {
    BlockStart.push_back(static_cast<uint32_t>(Flat.size()));
    Flat.insert(Flat.end(), B.Insts.begin(), B.Insts.end());
  }
}

size_t IRKernel::numInstructions() const {
  size_t N = 0;
  for (const BasicBlock &B : Blocks)
    N += B.Insts.size();
  return N;
}

std::string IRKernel::str() const {
  std::string Out = formatString(
      "kernel %s: regs=%u archRegs=%u shared=%u local=%u\n", Name.c_str(),
      NumRegs, ArchRegsPerThread, StaticSharedBytes, LocalBytes);
  for (size_t B = 0; B < Blocks.size(); ++B) {
    Out += formatString("B%zu:\n", B);
    for (const Instruction &I : Blocks[B].Insts) {
      Out += "  ";
      Out += instructionToString(I);
      Out += '\n';
    }
  }
  return Out;
}
