//===-- ir/RegAlloc.cpp - Linear-scan register allocation -----------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/RegAlloc.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

using namespace hfuse;
using namespace hfuse::ir;

namespace {

/// Live interval of one virtual register over flat instruction indices.
struct Interval {
  Reg VReg = NoReg;
  uint32_t Start = UINT32_MAX;
  uint32_t End = 0;
  bool IsParam = false;
  Width W = Width::W32;

  uint32_t length() const { return End >= Start ? End - Start : 0; }
  unsigned units() const { return W == Width::W64 ? 2 : 1; }
};

/// Dense bitset over virtual registers.
class RegSet {
public:
  explicit RegSet(unsigned NumRegs) : Words((NumRegs + 63) / 64, 0) {}

  void insert(Reg R) { Words[R / 64] |= uint64_t(1) << (R % 64); }
  void erase(Reg R) { Words[R / 64] &= ~(uint64_t(1) << (R % 64)); }
  bool contains(Reg R) const {
    return (Words[R / 64] >> (R % 64)) & 1;
  }
  /// this |= RHS; returns true if anything changed.
  bool unionWith(const RegSet &RHS) {
    bool Changed = false;
    for (size_t I = 0; I < Words.size(); ++I) {
      uint64_t Merged = Words[I] | RHS.Words[I];
      Changed |= Merged != Words[I];
      Words[I] = Merged;
    }
    return Changed;
  }
  /// Iterates set members.
  template <typename FnT> void forEach(FnT Fn) const {
    for (size_t I = 0; I < Words.size(); ++I) {
      uint64_t W = Words[I];
      while (W) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(W));
        Fn(static_cast<Reg>(I * 64 + Bit));
        W &= W - 1;
      }
    }
  }

private:
  std::vector<uint64_t> Words;
};

void forEachUse(const Instruction &I, const std::function<void(Reg)> &Fn) {
  for (Reg S : I.Src)
    if (S != NoReg)
      Fn(S);
}

/// Successor block ids of the terminator of block \p B.
std::vector<unsigned> successors(const BasicBlock &B) {
  assert(!B.Insts.empty() && B.Insts.back().isTerminator() &&
         "block must end with a terminator");
  const Instruction &T = B.Insts.back();
  switch (T.Op) {
  case Opcode::Bra:
    return {static_cast<unsigned>(T.Imm)};
  case Opcode::CBra:
    return {static_cast<unsigned>(T.Imm), static_cast<unsigned>(T.Imm2)};
  default:
    return {};
  }
}

} // namespace

RegAllocResult hfuse::ir::allocateRegisters(IRKernel &K,
                                            unsigned MaxArchRegs) {
  RegAllocResult Res;
  const unsigned NumVRegs = K.NumRegs;
  const unsigned NumBlocks = static_cast<unsigned>(K.Blocks.size());

  // ---- Liveness ----------------------------------------------------------
  std::vector<RegSet> UseSet(NumBlocks, RegSet(NumVRegs));
  std::vector<RegSet> DefSet(NumBlocks, RegSet(NumVRegs));
  for (unsigned B = 0; B < NumBlocks; ++B) {
    for (const Instruction &I : K.Blocks[B].Insts) {
      forEachUse(I, [&](Reg R) {
        if (!DefSet[B].contains(R))
          UseSet[B].insert(R);
      });
      if (I.Dst != NoReg)
        DefSet[B].insert(I.Dst);
    }
  }

  std::vector<RegSet> LiveIn(NumBlocks, RegSet(NumVRegs));
  std::vector<RegSet> LiveOut(NumBlocks, RegSet(NumVRegs));
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B = NumBlocks; B-- > 0;) {
      for (unsigned S : successors(K.Blocks[B]))
        Changed |= LiveOut[B].unionWith(LiveIn[S]);
      RegSet NewIn = LiveOut[B];
      DefSet[B].forEach([&](Reg R) { NewIn.erase(R); });
      NewIn.unionWith(UseSet[B]);
      Changed |= LiveIn[B].unionWith(NewIn);
    }
  }

  // ---- Live intervals over flat positions --------------------------------
  std::vector<Interval> Intervals(NumVRegs);
  for (unsigned R = 0; R < NumVRegs; ++R) {
    Intervals[R].VReg = static_cast<Reg>(R);
    Intervals[R].W = K.RegWidths[R];
  }
  for (Reg P : K.ParamRegs) {
    Intervals[P].IsParam = true;
    Intervals[P].Start = 0; // live-in at kernel entry
  }

  uint32_t Pos = 0;
  std::vector<uint32_t> BlockBegin(NumBlocks), BlockEnd(NumBlocks);
  for (unsigned B = 0; B < NumBlocks; ++B) {
    BlockBegin[B] = Pos;
    for (const Instruction &I : K.Blocks[B].Insts) {
      forEachUse(I, [&](Reg R) {
        Intervals[R].Start = std::min(Intervals[R].Start, Pos);
        Intervals[R].End = std::max(Intervals[R].End, Pos);
      });
      if (I.Dst != NoReg) {
        Intervals[I.Dst].Start = std::min(Intervals[I.Dst].Start, Pos);
        Intervals[I.Dst].End = std::max(Intervals[I.Dst].End, Pos);
      }
      ++Pos;
    }
    BlockEnd[B] = Pos;
  }
  for (unsigned B = 0; B < NumBlocks; ++B) {
    LiveIn[B].forEach([&](Reg R) {
      Intervals[R].Start = std::min(Intervals[R].Start, BlockBegin[B]);
      Intervals[R].End = std::max(Intervals[R].End, BlockEnd[B]);
    });
    LiveOut[B].forEach([&](Reg R) {
      Intervals[R].Start = std::min(Intervals[R].Start, BlockBegin[B]);
      Intervals[R].End = std::max(Intervals[R].End, BlockEnd[B]);
    });
  }

  // ---- Loop-depth-weighted spill costs -----------------------------------
  // Blocks between a back-edge target and its source are "in the loop"
  // (codegen emits blocks in source order, so this span test is exact
  // for structured loops). Spilling a value used inside a loop pays on
  // every iteration; the cost model makes the allocator prefer cold,
  // long-lived values (e.g. parameters) instead — like ptxas does.
  std::vector<unsigned> DepthOfBlock(NumBlocks, 0);
  for (unsigned B = 0; B < NumBlocks; ++B)
    for (unsigned S : successors(K.Blocks[B]))
      if (S <= B) // back edge
        for (unsigned In = S; In <= B; ++In)
          ++DepthOfBlock[In];
  std::vector<uint64_t> SpillCost(NumVRegs, 0);
  {
    uint32_t P = 0;
    for (unsigned B = 0; B < NumBlocks; ++B) {
      uint64_t Weight = 1;
      for (unsigned D = 0; D < std::min(DepthOfBlock[B], 6u); ++D)
        Weight *= 10;
      for (const Instruction &I : K.Blocks[B].Insts) {
        forEachUse(I, [&](Reg R) { SpillCost[R] += Weight; });
        if (I.Dst != NoReg)
          SpillCost[I.Dst] += Weight;
        ++P;
      }
    }
    (void)P;
  }

  std::vector<const Interval *> Order;
  Order.reserve(NumVRegs);
  for (const Interval &I : Intervals)
    if (I.Start != UINT32_MAX) // skip never-used vregs
      Order.push_back(&I);
  std::sort(Order.begin(), Order.end(),
            [](const Interval *A, const Interval *B) {
              if (A->Start != B->Start)
                return A->Start < B->Start;
              return A->VReg < B->VReg;
            });

  // ---- Linear scan with optional spilling --------------------------------
  // UnitBudget limits the peak sum of interval units; 0 = unbounded.
  auto RunScan = [&](unsigned UnitBudget, std::set<Reg> &Spilled,
                     unsigned &PeakUnits) {
    PeakUnits = 0;
    unsigned CurUnits = 0;
    // Active intervals ordered by increasing End.
    std::multimap<uint32_t, const Interval *> Active;
    for (const Interval *I : Order) {
      if (Spilled.count(I->VReg))
        continue;
      while (!Active.empty() && Active.begin()->first < I->Start) {
        CurUnits -= Active.begin()->second->units();
        Active.erase(Active.begin());
      }
      CurUnits += I->units();
      Active.emplace(I->End, I);
      while (UnitBudget != 0 && CurUnits > UnitBudget) {
        // Spill the active interval with the lowest loop-depth-weighted
        // use cost (parameters carry a mild penalty: their reloads
        // approximate constant-bank accesses, still not free).
        auto Victim = Active.end();
        uint64_t BestCost = UINT64_MAX;
        for (auto It = Active.begin(); It != Active.end(); ++It) {
          uint64_t Cost = SpillCost[It->second->VReg] +
                          (It->second->IsParam ? 4 : 0);
          if (Cost < BestCost) {
            BestCost = Cost;
            Victim = It;
          }
        }
        if (Victim == Active.end())
          return false; // nothing left to spill
        CurUnits -= Victim->second->units();
        Spilled.insert(Victim->second->VReg);
        Active.erase(Victim);
      }
      PeakUnits = std::max(PeakUnits, CurUnits);
    }
    return true;
  };

  std::set<Reg> Spilled;
  unsigned PeakUnits = 0;
  RunScan(/*UnitBudget=*/0, Spilled, PeakUnits);

  unsigned ScratchUnits = 0;
  if (MaxArchRegs != 0 && PeakUnits + RegOverhead > MaxArchRegs) {
    ScratchUnits = SpillScratchRegs * 2; // scratch slots hold any width
    if (MaxArchRegs < RegOverhead + ScratchUnits + 8) {
      Res.Error = formatString("register bound %u is too small", MaxArchRegs);
      return Res;
    }
    unsigned Budget = MaxArchRegs - RegOverhead - ScratchUnits;
    if (!RunScan(Budget, Spilled, PeakUnits)) {
      Res.Error = "unable to satisfy register bound by spilling";
      return Res;
    }
  }

  // ---- Slot assignment ----------------------------------------------------
  // Assigns a slot to every vreg \p Want selects, reusing a slot once
  // its previous holder's interval has ended; returns the slot count.
  // Surviving vregs get register slots this way, and spilled vregs get
  // 8-byte local-memory slots the same way, so the spill frame holds
  // only the spills that are live at the same time.
  auto AssignSlots = [&](auto Want, std::vector<Reg> &SlotOf) {
    std::multimap<uint32_t, Reg> ActiveSlots; // End -> slot
    std::vector<Reg> FreeSlots;
    Reg NextSlot = 0;
    for (const Interval *I : Order) {
      if (!Want(I->VReg))
        continue;
      while (!ActiveSlots.empty() && ActiveSlots.begin()->first < I->Start) {
        FreeSlots.push_back(ActiveSlots.begin()->second);
        ActiveSlots.erase(ActiveSlots.begin());
      }
      Reg Slot;
      if (!FreeSlots.empty()) {
        Slot = FreeSlots.back();
        FreeSlots.pop_back();
      } else {
        Slot = NextSlot++;
      }
      SlotOf[I->VReg] = Slot;
      ActiveSlots.emplace(I->End, Slot);
    }
    return static_cast<unsigned>(NextSlot);
  };
  std::vector<Reg> SlotOf(NumVRegs, NoReg);
  Res.NumSlots = AssignSlots(
      [&](Reg R) { return !Spilled.count(R); }, SlotOf);

  // Spill slots in local memory, appended after existing local data.
  std::vector<Reg> SpillSlotOf(NumVRegs, NoReg);
  const unsigned SpillSlots = AssignSlots(
      [&](Reg R) { return Spilled.count(R) != 0; }, SpillSlotOf);
  std::map<Reg, uint32_t> SpillOffset;
  for (Reg R : Spilled)
    SpillOffset[R] = K.LocalBytes + SpillSlotOf[R] * 8;
  const uint32_t LocalTop = K.LocalBytes + SpillSlots * 8;

  // Scratch slots for spill reloads.
  Reg ScratchBase = static_cast<Reg>(Res.NumSlots);
  if (!Spilled.empty())
    Res.NumSlots += SpillScratchRegs;

  // ---- Rewrite instructions ----------------------------------------------
  for (BasicBlock &B : K.Blocks) {
    std::vector<Instruction> NewInsts;
    NewInsts.reserve(B.Insts.size());
    for (Instruction I : B.Insts) {
      unsigned NextScratch = 0;
      // Reload spilled sources.
      for (Reg &S : I.Src) {
        if (S == NoReg)
          continue;
        if (Spilled.count(S)) {
          assert(NextScratch < SpillScratchRegs - 1 && "scratch overflow");
          Reg Scratch = static_cast<Reg>(ScratchBase + NextScratch++);
          Instruction Ld;
          Ld.Op = Opcode::LdLocal;
          Ld.W = K.RegWidths[S];
          Ld.Dst = Scratch;
          Ld.Imm = SpillOffset[S];
          Ld.MemSize = 8;
          NewInsts.push_back(Ld);
          S = Scratch;
        } else {
          S = SlotOf[S];
        }
      }
      // Rewrite / spill the destination.
      bool StoreDst = false;
      uint32_t DstOffset = 0;
      Width DstW = Width::W32;
      if (I.Dst != NoReg) {
        if (Spilled.count(I.Dst)) {
          StoreDst = true;
          DstOffset = SpillOffset[I.Dst];
          DstW = K.RegWidths[I.Dst];
          I.Dst = static_cast<Reg>(ScratchBase + SpillScratchRegs - 1);
        } else {
          I.Dst = SlotOf[I.Dst];
        }
      }
      NewInsts.push_back(I);
      if (StoreDst) {
        Instruction St;
        St.Op = Opcode::StLocal;
        St.W = DstW;
        St.Src[1] = static_cast<Reg>(ScratchBase + SpillScratchRegs - 1);
        St.Imm = DstOffset;
        St.MemSize = 8;
        // A spill store must not land after the block terminator.
        if (NewInsts.back().isTerminator()) {
          Instruction Term = NewInsts.back();
          NewInsts.pop_back();
          NewInsts.push_back(St);
          NewInsts.push_back(Term);
        } else {
          NewInsts.push_back(St);
        }
      }
    }
    B.Insts = std::move(NewInsts);
  }

  // Parameter registers keep their mapping for the launcher; spilled
  // parameters are materialized in local memory instead.
  K.SpilledParams.clear();
  for (size_t PI = 0; PI < K.ParamRegs.size(); ++PI) {
    Reg P = K.ParamRegs[PI];
    if (Spilled.count(P)) {
      K.SpilledParams.push_back(
          {static_cast<uint32_t>(PI), SpillOffset[P]});
      K.ParamRegs[PI] = NoReg;
      continue;
    }
    assert(SlotOf[P] != NoReg && "parameter register was eliminated");
    K.ParamRegs[PI] = SlotOf[P];
  }

  K.NumRegs = Res.NumSlots;
  K.LocalBytes = LocalTop;
  K.ArchRegsPerThread = PeakUnits + ScratchUnits + RegOverhead;
  if (MaxArchRegs != 0)
    K.ArchRegsPerThread = std::min<unsigned>(K.ArchRegsPerThread, MaxArchRegs);
  K.RegWidths.clear(); // widths are meaningless for slots
  K.linearize();

  Res.Ok = true;
  Res.NumSpilled = static_cast<unsigned>(Spilled.size());
  Res.SpillBytes = SpillSlots * 8;
  Res.ArchRegs = K.ArchRegsPerThread;
  return Res;
}
