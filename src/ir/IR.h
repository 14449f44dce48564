//===-- ir/IR.h - SASS-lite register IR -------------------------*- C++ -*-===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small register-transfer IR ("SASS-lite") that CuLite kernels are
/// lowered to for execution on the GPU timing simulator. The design
/// mirrors what matters for the paper's claims:
///
///  - virtual registers with explicit 32/64-bit widths, so register
///    pressure (and the paper's register-bound trade-off) is measurable;
///  - distinct opcodes per hardware resource class (32/64-bit integer
///    ALU, FP32/FP64 ALU, SFU, global/shared/local memory, shuffles,
///    named barriers), so the warp scheduler model can attribute
///    latencies and issue-port conflicts the way nvprof does;
///  - `Bar` carries the PTX barrier id and arrival count, implementing
///    `bar.sync id, count` partial-barrier semantics exactly.
///
/// Values are stored as raw uint64 bits; 32-bit results are kept
/// zero-extended. Floats are bit-cast into the low 32 bits.
///
//===----------------------------------------------------------------------===//

#ifndef HFUSE_IR_IR_H
#define HFUSE_IR_IR_H

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace hfuse::ir {

enum class Opcode : uint8_t {
  Nop,
  // Data movement.
  MovImm, // dst = Imm
  Mov,    // dst = src0
  SReg,   // dst = special register selected by Imm (SpecialReg)
  // Integer ALU (width via W; signedness in the opcode where it matters).
  IAdd,
  ISub,
  IMul,
  IDivS,
  IDivU,
  IRemS,
  IRemU,
  IMinS,
  IMinU,
  IMaxS,
  IMaxU,
  Shl,
  ShrU,
  ShrS,
  And,
  Or,
  Xor,
  Not,
  ICmpS, // dst = pred(src0, src1) as signed ints, result 0/1
  ICmpU,
  Sel, // dst = src0 != 0 ? src1 : src2
  // Floating point (W32 = float, W64 = double).
  FAdd,
  FSub,
  FMul,
  FDiv,   // SFU-class
  FSqrt,  // SFU-class
  FRsqrt, // SFU-class
  FExp,   // SFU-class
  FLog,   // SFU-class
  FMin,
  FMax,
  FNeg,
  FAbs,
  FFloor,
  FCmp, // dst = pred(src0, src1) on floats, result 0/1
  // Conversions. W = destination width; SrcW = source width.
  CvtSI2F, // signed int -> float
  CvtUI2F, // unsigned int -> float
  CvtF2SI, // float -> signed int (truncating)
  CvtF2UI,
  CvtF2F,  // float <-> double
  CvtSExt, // sign-extend SrcW -> W
  CvtZExt, // zero-extend / truncate SrcW -> W
  // Memory. Addresses are byte offsets in their address space.
  LdGlobal,  // dst = [src0 + Imm]
  StGlobal,  // [src0 + Imm] = src1
  LdShared,  // dst = shared[src0 + Imm]
  StShared,  // shared[src0 + Imm] = src1
  LdLocal,   // dst = local[src0? + Imm]    (src0 may be NoReg for spills)
  StLocal,   // local[src0? + Imm] = src1
  AtomAddG,  // dst = atomicAdd(&global[src0+Imm], src1)
  AtomAddS,  // dst = atomicAdd(&shared[src0+Imm], src1)
  // Warp-level data exchange: dst = value of src0 in lane (lane ^ src1).
  Shfl,
  // Named barrier: bar.sync Imm (barrier id), Imm2 (arrival count;
  // 0 means "all live threads of the block", i.e. __syncthreads()).
  Bar,
  // Control flow. Targets are block ids before linearization.
  Bra,  // unconditional, Imm = target
  CBra, // src0 != 0 ? Imm : Imm2
  Exit,
};

/// Comparison predicates for ICmp/FCmp.
enum class CmpPred : uint8_t { EQ, NE, LT, LE, GT, GE };

/// Operand width.
enum class Width : uint8_t { W32, W64 };

/// Special registers readable via SReg. Blocks may be up to
/// 3-dimensional (the thread id decomposes over NTidX/NTidY/NTidZ);
/// grids are one-dimensional in this reproduction.
enum class SpecialReg : uint8_t {
  TidX,
  CtaIdX,
  NTidX,   // blockDim.x
  NCtaIdX, // gridDim.x
  TidY,
  TidZ,
  NTidY, // blockDim.y
  NTidZ  // blockDim.z
};

/// Register id type; NoReg marks an unused operand slot.
using Reg = uint16_t;
inline constexpr Reg NoReg = 0xFFFF;

/// One IR instruction. Kept small: the simulator interprets millions.
struct Instruction {
  Opcode Op = Opcode::Nop;
  Width W = Width::W32;
  Width SrcW = Width::W32; // conversions only
  CmpPred Pred = CmpPred::EQ;
  uint8_t MemSize = 4;    // memory access size in bytes (1, 4, or 8)
  bool MemSigned = false; // sign-extend sub-word loads
  bool AtomFloat = false; // atomic add on float instead of integer
  Reg Dst = NoReg;
  Reg Src[3] = {NoReg, NoReg, NoReg};
  int64_t Imm = 0;  // immediate / branch target / barrier id
  int32_t Imm2 = 0; // false target / barrier count

  bool isBranch() const { return Op == Opcode::Bra || Op == Opcode::CBra; }
  bool isTerminator() const { return isBranch() || Op == Opcode::Exit; }
};

/// Hardware resource class of an instruction, used by the timing model.
enum class InstrClass : uint8_t {
  IAlu32,
  IAlu64,
  FAlu32,
  FAlu64,
  Sfu,
  GlobalMem,
  SharedMem,
  LocalMem,
  GlobalAtomic,
  SharedAtomic,
  Shuffle,
  Barrier,
  Control,
};

/// Classifies \p I for the timing model. Inline: the simulator calls
/// this for every instruction examination on the issue path.
inline InstrClass classify(const Instruction &I) {
  switch (I.Op) {
  case Opcode::Nop:
  case Opcode::MovImm:
  case Opcode::Mov:
  case Opcode::SReg:
  case Opcode::IAdd:
  case Opcode::ISub:
  case Opcode::IMul:
  case Opcode::IDivS:
  case Opcode::IDivU:
  case Opcode::IRemS:
  case Opcode::IRemU:
  case Opcode::IMinS:
  case Opcode::IMinU:
  case Opcode::IMaxS:
  case Opcode::IMaxU:
  case Opcode::Shl:
  case Opcode::ShrU:
  case Opcode::ShrS:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Not:
  case Opcode::ICmpS:
  case Opcode::ICmpU:
  case Opcode::Sel:
  case Opcode::CvtSExt:
  case Opcode::CvtZExt:
    return I.W == Width::W64 ? InstrClass::IAlu64 : InstrClass::IAlu32;
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FMin:
  case Opcode::FMax:
  case Opcode::FNeg:
  case Opcode::FAbs:
  case Opcode::FFloor:
  case Opcode::FCmp:
    return I.W == Width::W64 ? InstrClass::FAlu64 : InstrClass::FAlu32;
  case Opcode::FDiv:
  case Opcode::FSqrt:
  case Opcode::FRsqrt:
  case Opcode::FExp:
  case Opcode::FLog:
    return InstrClass::Sfu;
  case Opcode::CvtSI2F:
  case Opcode::CvtUI2F:
  case Opcode::CvtF2SI:
  case Opcode::CvtF2UI:
  case Opcode::CvtF2F:
    return InstrClass::FAlu32;
  case Opcode::LdGlobal:
  case Opcode::StGlobal:
    return InstrClass::GlobalMem;
  case Opcode::LdShared:
  case Opcode::StShared:
    return InstrClass::SharedMem;
  case Opcode::LdLocal:
  case Opcode::StLocal:
    return InstrClass::LocalMem;
  case Opcode::AtomAddG:
    return InstrClass::GlobalAtomic;
  case Opcode::AtomAddS:
    return InstrClass::SharedAtomic;
  case Opcode::Shfl:
    return InstrClass::Shuffle;
  case Opcode::Bar:
    return InstrClass::Barrier;
  case Opcode::Bra:
  case Opcode::CBra:
  case Opcode::Exit:
    return InstrClass::Control;
  }
  return InstrClass::IAlu32;
}

/// Returns a readable mnemonic for debugging and IR printing.
std::string instructionToString(const Instruction &I);

struct BasicBlock {
  std::vector<Instruction> Insts;
};

/// One lowered kernel.
class IRKernel {
public:
  std::string Name;

  /// Number of virtual registers before allocation, or physical register
  /// slots afterwards. Slot i of the per-thread register file stores a
  /// full uint64; 64-bit values consume two *architectural* registers
  /// when pressure is computed, but one slot of storage.
  unsigned NumRegs = 0;

  /// Widths per register (indexed by Reg), needed for pressure counting.
  std::vector<Width> RegWidths;

  /// Parameter registers, in declaration order. The launcher writes the
  /// i-th parameter value into ParamRegs[i] of every thread; NoReg means
  /// the parameter was spilled (see SpilledParams).
  std::vector<Reg> ParamRegs;

  /// Parameters the register allocator spilled to local memory (real
  /// CUDA keeps parameters in the constant bank, so spilling them under
  /// a tight register bound is legal). The launcher materializes the
  /// value at LocalOffset of every thread's local segment.
  struct ParamSpill {
    uint32_t ParamIndex;
    uint32_t LocalOffset;
  };
  std::vector<ParamSpill> SpilledParams;

  /// Static __shared__ bytes; `extern __shared__` starts at this offset.
  uint32_t StaticSharedBytes = 0;
  /// True when the kernel uses dynamic shared memory.
  bool UsesDynamicShared = false;

  /// Per-thread local memory (local arrays + register spills).
  uint32_t LocalBytes = 0;

  /// Architectural registers per thread (filled by the register
  /// allocator; includes a fixed overhead constant, like ptxas output).
  unsigned ArchRegsPerThread = 0;

  std::vector<BasicBlock> Blocks;

  /// Flattened instruction stream; BlockStart[b] is the flat index of
  /// block b. Branch targets in flat code still name block ids.
  std::vector<Instruction> Flat;
  std::vector<uint32_t> BlockStart;

  /// Builds Flat/BlockStart. Call after the kernel is complete (and
  /// again after spilling rewrote blocks).
  void linearize();

  /// Total dynamic size checks for debugging.
  size_t numInstructions() const;

  /// Readable dump of the whole kernel, for people. It omits fields the
  /// simulator reads (SrcW, MemSize, MemSigned, AtomFloat, ParamRegs,
  /// SpilledParams), so two kernels that simulate differently can print
  /// the same text: key on contentHash(), never on this.
  std::string str() const;

  /// Stable 64-bit FNV-1a hash of everything a simulation of this kernel
  /// reads: the header (name, register counts, shared and local bytes),
  /// ParamRegs, SpilledParams, and every field of every instruction,
  /// block by block (the blocks define Flat and BlockStart). Equal hashes
  /// simulate identically, so it keys the result store and the compile
  /// digest; it is the same in every process and on every host.
  uint64_t contentHash() const;

  /// Appends a new block, returning its id.
  unsigned addBlock() {
    Blocks.emplace_back();
    return static_cast<unsigned>(Blocks.size() - 1);
  }
};

} // namespace hfuse::ir

#endif // HFUSE_IR_IR_H
