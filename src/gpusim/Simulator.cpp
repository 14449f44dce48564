//===-- gpusim/Simulator.cpp - Execution-driven GPU simulator -------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The simulator core is event-driven. Every profile-guided search
// candidate passes through here dozens of times, so the hot loop is
// built around four ideas:
//
//  - Ready masks + wake times instead of scan-every-warp: each
//    scheduler tracks which resident warps are examinable this cycle in
//    a bitmask over its compact live list. A warp that blocks (register
//    scoreboard, busy pipe, shared-atomic unit, memory throttle,
//    barrier) leaves the mask and carries a wake cycle; it costs
//    nothing until then. The main loop advances straight to the next
//    wake when no scheduler can issue. Wake cycles live in the
//    scheduler's own entries, and each warp caches its decoded
//    instruction and the latest ready cycle of its operands, so the
//    per-cycle examination of ready warps rarely leaves that state.
//
//  - Convergent-warp fast path: while all runnable lanes of a warp
//    share one PC (the overwhelmingly common case), the min-PC /
//    active-mask pair falls out of a flag instead of two 32-lane scans,
//    and ALU execution runs dense over all lanes with no per-lane mask
//    tests. Divergence flips the warp to the slow path; reconvergence
//    is re-detected by the next slow scan.
//
//  - Flat, pooled state: warp register files, scoreboards, and local
//    memory live in per-SM arenas; warp and block slots are recycled on
//    retire, so steady-state dispatch allocates nothing.
//
//  - StatsLevel::Minimal compiles the profiling bookkeeping out of the
//    issue path (stall-reason sampling, occupancy integration,
//    per-launch traffic accounting) for callers that only need
//    completion cycles.
//
// Scheduling decisions replicate the historical scan-based core
// bit-exactly — round-robin order is expressed over virtual append
// positions so warp-slot recycling cannot perturb it, and
// tests/GoldenSimTest.cpp pins cycle counts captured from the
// pre-refactor simulator.
//
// A RunBudget's cycle budget bolts branch-and-bound onto the loop for the
// profile-guided search: a run is abandoned (SimResult::BudgetExceeded)
// the moment some kernel is still live at the budget cycle, with idle
// fast-forward clamped to the budget so the abort point — and the
// issued-instruction count reported with it — is deterministic. Runs
// that finish within the budget are untouched, bit for bit.
//
//===----------------------------------------------------------------------===//

#include "gpusim/Simulator.h"

#include "gpusim/MemorySystem.h"
#include "gpusim/Occupancy.h"
#include "support/FaultInjector.h"
#include "support/Log.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>

using namespace hfuse;
using namespace hfuse::ir;
using namespace hfuse::gpusim;

namespace {

constexpr unsigned WarpSize = 32;
constexpr uint32_t FullMask = 0xFFFFFFFFu;

/// Zero source operand for dense ALU loops (NoReg reads as 0).
constexpr uint64_t ZeroLanes[WarpSize] = {};

/// Threads per block across all three block sub-dimensions.
int totalBlockThreads(const KernelLaunch &L) {
  return L.BlockDim * L.BlockDimY * L.BlockDimZ;
}

/// Issue pipes per scheduler.
enum Pipe : uint8_t { PipeFP, PipeInt, PipeSfu, PipeMem, PipeDP, NumPipes };

enum class Stall : uint8_t {
  None,        // eligible (issued or selectable)
  ExecDep,     // waiting on an ALU/SFU-produced register
  MemDep,      // waiting on a global/local-memory-produced register
  Barrier,     // all runnable lanes wait at bar.sync
  PipeBusy,    // issue pipe occupied
  MemThrottle, // MSHR / bandwidth back-pressure
  NotSelected, // eligible but another warp was issued
  NumStallKinds
};
constexpr size_t NumStalls = size_t(Stall::NumStallKinds);

struct WarpState {
  uint16_t KernelIdx = 0;
  uint32_t BlockSlot = 0;
  uint32_t WarpInBlock = 0; // index into the block's warp list
  uint8_t SchedIdx = 0;
  bool Done = false;
  uint32_t LiveMask = 0; // not exited
  uint32_t WaitMask = 0; // waiting at a named barrier
  int8_t PendingBarId = -1;
  int PendingBarCount = 0; // explicit arrival count of that barrier
  std::array<uint32_t, WarpSize> PC{};

  // Arena-backed storage; pointers are stable for the whole run (the
  // per-SM arenas are sized up front and never reallocate mid-run).
  uint64_t *Regs = nullptr;     // slot-major: Regs[slot*32+lane]
  uint64_t *RegReady = nullptr; // per slot
  uint8_t *RegMemSrc = nullptr; // per slot: producer was DRAM
  uint8_t *Local = nullptr;     // 32 lane frames of LocalBytes each
  // Extent bookkeeping for slot recycling (offsets into the arenas).
  size_t U64Off = 0, U64Cap = 0;
  size_t U8Off = 0, U8Cap = 0;

  // Decode state of the warp's current instruction, valid while
  // CacheValid: its lane mask, the instruction and its class,
  // and the latest RegReady over its operands. Only this warp's own
  // execute() writes its scoreboard, and every execute invalidates the
  // cache first, so the cached maximum stays exact while valid.
  bool CacheValid = false;
  /// All runnable lanes share one PC; minPC/mask need no lane scan.
  bool Uniform = true;
  uint32_t CachedMask = 0;
  const Instruction *CachedInst = nullptr;
  InstrClass CachedCls = InstrClass::Control;
  uint64_t CachedMaxReady = 0;

  void invalidateSchedCache() { CacheValid = false; }

  uint64_t &reg(Reg Slot, unsigned Lane) {
    return Regs[size_t(Slot) * WarpSize + Lane];
  }
  uint64_t regv(Reg Slot, unsigned Lane) const {
    return Regs[size_t(Slot) * WarpSize + Lane];
  }
};

struct BlockState {
  bool Active = false;
  uint16_t KernelIdx = 0;
  uint32_t BlockId = 0;
  int LiveThreads = 0;
  int WarpsDone = 0;
  int NumWarps = 0;
  std::array<int, 16> BarArrived{};
  /// Bit b set while BarArrived[b] > 0 — warp exits probe only these.
  uint16_t BarPendingMask = 0;
  std::vector<uint8_t> Shared;
  std::vector<uint32_t> WarpIds; // warp slots in SM.Warps
  // Resources to release on completion.
  int Threads = 0;
  int RegUnits = 0;
  uint32_t SharedBytes = 0;
};

/// One resident warp on a scheduler. Pos is the warp's virtual append
/// index — the position it would occupy in an append-only warp list —
/// which is what the historical round-robin order was defined over.
/// Keeping Pos explicit makes slot recycling invisible to scheduling.
/// While the entry is blocked (its ready bit clear), WakeAt is the
/// earliest cycle at which it should be re-examined and Reason the
/// stall it samples until then; keeping both here lets the wake scans
/// stay inside the compact Live array.
struct SchedEntry {
  uint64_t Pos = 0;
  uint64_t WakeAt = 0;
  uint32_t WarpSlot = 0;
  Stall Reason = Stall::ExecDep;
};

struct SchedState {
  std::array<uint64_t, NumPipes> PipeFree{};
  /// Round-robin cursor in virtual-position space (always < NAppended).
  uint64_t RRNext = 0;
  /// Likely Live index of the entry at RRNext (greedy-then-oldest keeps
  /// re-issuing one warp); validated by Pos equality before use.
  uint32_t StartHint = 0;
  /// Warps ever assigned to this scheduler (the virtual list length the
  /// round-robin cursor wraps over).
  uint64_t NAppended = 0;
  /// Live (not Done) warps, sorted by Pos ascending.
  std::vector<SchedEntry> Live;
  /// Bit i set when Live[i] is examinable this cycle (WakeAt elapsed).
  uint64_t ReadyMask = 0;
  /// Earliest WakeAt among blocked entries (exact, recomputed on wake).
  uint64_t NextWake = UINT64_MAX;
  /// Blocked warps per stall reason; lets Full-stats sampling charge
  /// every blocked warp each cycle without touching it.
  uint32_t BlockedCounts[NumStalls] = {};
};

struct SMState {
  std::vector<WarpState> Warps; // slot-recycled, bounded by resident cap
  std::vector<uint32_t> FreeWarpSlots;
  std::vector<BlockState> Blocks;
  std::vector<SchedState> Scheds;
  std::unique_ptr<InflightTracker> Inflight;
  /// The SM's shared-memory atomic unit: conflicting atomics replay
  /// inside it without occupying scheduler issue slots, but the next
  /// shared atomic (from any warp) waits until it drains.
  uint64_t AtomUnitFree = 0;
  /// Warps ever created on this SM; scheduler assignment round-robins
  /// over it (the historical WId % NumScheds with an append-only list).
  uint64_t WarpSeq = 0;
  // Storage arenas for warp register files / scoreboards / local
  // memory; sized once per run, extents recycled with warp slots. Left
  // uninitialized: allocWarpStorage zeroes every extent it hands out,
  // so pages no warp ever uses are never touched.
  std::unique_ptr<uint64_t[]> ArenaU64;
  size_t ArenaU64Top = 0;
  std::unique_ptr<uint8_t[]> ArenaU8;
  size_t ArenaU8Top = 0;
  int UsedThreads = 0;
  int UsedRegs = 0;
  uint32_t UsedShared = 0;
  int NumBlocks = 0;
  int ActiveWarps = 0;
};

struct LaunchState {
  const KernelLaunch *L = nullptr;
  int NextBlock = 0;
  int BlocksDone = 0;
  uint64_t CompletionCycle = 0;
  uint64_t Issued = 0;
  int RegUnitsPerBlock = 0;
  uint32_t SharedPerBlock = 0;
  // Global-memory sector traffic (L2 stats are zero without ModelL2;
  // both stay zero under StatsLevel::Minimal).
  uint64_t GlobalSectors = 0;
  uint64_t L2HitSectors = 0;
};

uint32_t popcount(uint32_t V) { return static_cast<uint32_t>(std::popcount(V)); }

/// Removes bit \p I from \p M, shifting higher bits down (mirrors an
/// erase from the Live vector).
inline uint64_t eraseMaskBit(uint64_t M, unsigned I) {
  uint64_t Low = M & ((uint64_t(1) << I) - 1);
  if (I >= 63)
    return Low; // no higher bits to shift down
  return Low | ((M >> (I + 1)) << I);
}

} // namespace

struct Simulator::Impl {
  SimConfig Config;
  std::vector<uint8_t> Global;
  size_t GlobalTop = 0;

  // Per-run state.
  std::vector<SMState> SMs;
  std::vector<LaunchState> Launches;
  std::unique_ptr<MemorySystem> Mem;
  std::unique_ptr<SectorCache> L2;
  uint64_t Cycle = 0;
  /// Active cycle budget of the current run (0 = unlimited).
  uint64_t Budget = 0;
  /// Incumbent fence of the current run: the seed publishes its progress
  /// into Publish; a follower is gated by Gate until the fence settles
  /// (Gate is cleared once the run adopts the resolved budget).
  IncumbentFence *Publish = nullptr;
  IncumbentFence *Gate = nullptr;
  /// Host time the current run spent blocked on Gate.
  double GateWaitMs = 0.0;
  /// Cycle of the last scheduler macro progress (block dispatch/retire,
  /// barrier release, warp exit); drives the watchdog.
  uint64_t ProgressCycle = 0;
  /// Active watchdog window of the current run (0 = disabled).
  uint64_t Watchdog = 0;
  /// Injected fault: suppress every barrier release this run, wedging
  /// any kernel that synchronizes — the watchdog (or the instant
  /// detector, once all warps block) must rescue the simulation.
  bool Wedged = false;
  /// Host deadline of the current run (0 = no wall-clock timeout).
  std::chrono::steady_clock::time_point WallDeadline{};
  bool WallTimed = false;
  uint64_t LoopIters = 0;
  /// Cooperative cancellation of the current run. CancelOn is resolved
  /// once per run (token installed and live); CancelIters is its own
  /// counter, separate from LoopIters, so installing a token shifts no
  /// cadence a golden test pins.
  bool CancelOn = false;
  uint64_t CancelIters = 0;
  bool StatsFull = true;
  std::string Error;
  // Stats.
  uint64_t IssuedSlots = 0;
  uint64_t StallSamples[NumStalls] = {};
  uint64_t ActiveWarpIntegral = 0;
  uint64_t ActiveCycleSlots = 0; // scheduler-cycles with resident warps
  /// Same-address replay factor of the last executed atomic; atomics
  /// occupy the LSU pipe once per replay, modelling the serialization
  /// of conflicting atomic operations.
  unsigned LastAtomicReplay = 1;
  /// Sector scratch: the issue pass computes each candidate access's
  /// sector set once for the throttle check and hands it to execute()
  /// for pricing, so no access collects its sectors twice.
  uint64_t ScratchSectors[WarpSize * 2];
  uint64_t CandSectors[WarpSize * 2];
  unsigned CandSectorCount = 0;
  bool CandSectorsValid = false;

  explicit Impl(SimConfig C) : Config(std::move(C)) {}

  //===--------------------------------------------------------------------===//
  // Timing helpers
  //===--------------------------------------------------------------------===//

  Pipe pipeOf(InstrClass C) const {
    switch (C) {
    case InstrClass::IAlu32:
    case InstrClass::IAlu64:
      return Config.Arch.SplitIntFpPipes ? PipeInt : PipeFP;
    case InstrClass::FAlu32:
      return PipeFP;
    case InstrClass::FAlu64:
      return PipeDP;
    case InstrClass::Sfu:
      return PipeSfu;
    case InstrClass::GlobalMem:
    case InstrClass::SharedMem:
    case InstrClass::LocalMem:
    case InstrClass::GlobalAtomic:
    case InstrClass::SharedAtomic:
    case InstrClass::Shuffle:
      return PipeMem;
    case InstrClass::Barrier:
    case InstrClass::Control:
      return PipeFP; // control issues on the main pipe, II=1
    }
    return PipeFP;
  }

  int issueInterval(InstrClass C) const {
    const GpuArch &A = Config.Arch;
    switch (C) {
    case InstrClass::IAlu32:
      return A.IIAlu32;
    case InstrClass::IAlu64:
      return A.IIAlu64;
    case InstrClass::FAlu32:
      return A.IIFAlu32;
    case InstrClass::FAlu64:
      return A.IIFAlu64;
    case InstrClass::Sfu:
      return A.IISfu;
    case InstrClass::GlobalMem:
    case InstrClass::SharedMem:
    case InstrClass::LocalMem:
    case InstrClass::GlobalAtomic:
    case InstrClass::SharedAtomic:
    case InstrClass::Shuffle:
      return A.IIMem;
    case InstrClass::Barrier:
    case InstrClass::Control:
      return 1;
    }
    return 1;
  }

  int latencyOf(InstrClass C) const {
    const GpuArch &A = Config.Arch;
    switch (C) {
    case InstrClass::IAlu32:
      return A.LatAlu32;
    case InstrClass::IAlu64:
      return A.LatAlu64;
    case InstrClass::FAlu32:
      return A.LatFAlu32;
    case InstrClass::FAlu64:
      return A.LatSfu;
    case InstrClass::Sfu:
      return A.LatSfu;
    case InstrClass::SharedMem:
      return A.LatShared;
    case InstrClass::LocalMem:
      return A.LatLocal;
    case InstrClass::Shuffle:
      return A.LatShuffle;
    case InstrClass::SharedAtomic:
      return A.LatAtomShared;
    default:
      return A.LatAlu32;
    }
  }

  //===--------------------------------------------------------------------===//
  // Memory access helpers (functional)
  //===--------------------------------------------------------------------===//

  /// Whether an \p AccessSize-byte access at \p Addr fits in \p Size
  /// bytes (an address that wrapped below zero is out of bounds too).
  static bool inBounds(size_t Size, uint64_t Addr, uint8_t AccessSize) {
    return AccessSize <= Size && Addr <= Size - AccessSize;
  }

  /// Loads \p AccessSize bytes at \p P (no bounds check).
  static uint64_t loadRaw(const uint8_t *P, uint8_t AccessSize,
                          bool Signed) {
    // Fixed-size copies compile to single loads; this runs per lane of
    // every memory instruction.
    uint64_t V;
    switch (AccessSize) {
    case 4: {
      uint32_t T;
      std::memcpy(&T, P, 4);
      V = T;
      break;
    }
    case 8:
      std::memcpy(&V, P, 8);
      break;
    case 1:
      V = *P;
      break;
    case 2: {
      uint16_t T;
      std::memcpy(&T, P, 2);
      V = T;
      break;
    }
    default:
      V = 0;
      std::memcpy(&V, P, AccessSize);
      break;
    }
    if (Signed && AccessSize < 8) {
      unsigned Shift = 64 - AccessSize * 8;
      V = static_cast<uint64_t>(static_cast<int64_t>(V << Shift) >> Shift);
    }
    return V;
  }

  /// Stores the low \p AccessSize bytes of \p V at \p P (no bounds
  /// check).
  static void storeRaw(uint8_t *P, uint8_t AccessSize, uint64_t V) {
    switch (AccessSize) {
    case 4: {
      uint32_t T = static_cast<uint32_t>(V);
      std::memcpy(P, &T, 4);
      break;
    }
    case 8:
      std::memcpy(P, &V, 8);
      break;
    case 1:
      *P = static_cast<uint8_t>(V);
      break;
    case 2: {
      uint16_t T = static_cast<uint16_t>(V);
      std::memcpy(P, &T, 2);
      break;
    }
    default:
      std::memcpy(P, &V, AccessSize);
      break;
    }
  }

  bool loadBytes(const uint8_t *Base, size_t Size, uint64_t Addr,
                 uint8_t AccessSize, bool Signed, uint64_t &Out) {
    if (!inBounds(Size, Addr, AccessSize))
      return false;
    Out = loadRaw(Base + Addr, AccessSize, Signed);
    return true;
  }

  bool storeBytes(uint8_t *Base, size_t Size, uint64_t Addr,
                  uint8_t AccessSize, uint64_t V) {
    if (!inBounds(Size, Addr, AccessSize))
      return false;
    storeRaw(Base + Addr, AccessSize, V);
    return true;
  }

  /// Collects the distinct 32B sector addresses touched by the masked
  /// lanes into \p Out (capacity WarpSize * 2) in first-touch order and
  /// returns their count (at least 1, so an access is never free).
  /// First-touch order is what the L2 model sees, so it must match the
  /// historical lane-order walk. Dedup runs over a sorted shadow copy:
  /// repeats of the previous sector (coalesced neighbours) are caught by
  /// a one-compare fast path, ascending streams append without a
  /// search, and everything else binary-searches the shadow.
  unsigned collectSectors(const WarpState &W, Reg AddrReg, int64_t Imm,
                          uint8_t AccessSize, uint32_t Mask,
                          uint64_t *Out) {
    uint64_t Sorted[WarpSize * 2];
    unsigned N = 0;
    uint64_t Prev = 0;
    bool HasPrev = false;
    constexpr unsigned SectorShift = 5; // 32B sectors
    for (uint32_t Rem = Mask; Rem;) {
      unsigned Lane = static_cast<unsigned>(std::countr_zero(Rem));
      Rem &= Rem - 1;
      uint64_t Addr = W.regv(AddrReg, Lane) + Imm;
      uint64_t S = Addr >> SectorShift;
      uint64_t E = (Addr + AccessSize - 1) >> SectorShift;
      for (; S <= E; ++S) {
        if (HasPrev && S == Prev)
          continue; // coalesced neighbour: same sector as last touch
        Prev = S;
        HasPrev = true;
        if (N > 0 && S > Sorted[N - 1]) {
          // Ascending stream: strictly above everything seen.
          if (N < WarpSize * 2) {
            Sorted[N] = S;
            Out[N++] = S;
          }
          continue;
        }
        uint64_t *P = std::lower_bound(Sorted, Sorted + N, S);
        if (P != Sorted + N && *P == S)
          continue; // seen before
        if (N < WarpSize * 2) {
          std::memmove(P + 1, P, (Sorted + N - P) * sizeof(uint64_t));
          *P = S;
          Out[N++] = S;
        }
      }
    }
    if (N == 0)
      Out[N++] = 0;
    return N;
  }

  /// Prices a global access through the memory system (L2 + DRAM),
  /// charges the in-flight tracker with the DRAM-bound sectors, and
  /// accounts per-launch traffic. Returns the completion cycle.
  uint64_t priceGlobalAccess(SMState &SM, WarpState &W, uint64_t Cycle,
                             const uint64_t *Sectors, unsigned N) {
    unsigned NumMisses = 0;
    uint64_t Completion = Mem->schedule(Cycle, Sectors, N, NumMisses);
    // L2 hits occupy an MSHR too, but only for the (short) hit latency;
    // modelling only miss traffic keeps the tracker a DRAM-pressure
    // valve, which is its role.
    SM.Inflight->issue(Completion, NumMisses > 0 ? NumMisses : 1);
    if (StatsFull) {
      LaunchState &LS = Launches[W.KernelIdx];
      LS.GlobalSectors += N;
      LS.L2HitSectors += N - NumMisses;
    }
    return Completion;
  }

  //===--------------------------------------------------------------------===//
  // Scheduler bookkeeping
  //===--------------------------------------------------------------------===//

  /// Marks Live[Idx] blocked until \p WakeAt with \p Reason.
  void blockEntry(SchedState &S, unsigned Idx, uint64_t WakeAt,
                  Stall Reason) {
    S.ReadyMask &= ~(uint64_t(1) << Idx);
    S.Live[Idx].WakeAt = WakeAt;
    S.Live[Idx].Reason = Reason;
    if (StatsFull)
      ++S.BlockedCounts[size_t(Reason)];
    if (WakeAt < S.NextWake)
      S.NextWake = WakeAt;
  }

  /// Live indices whose ready bit is clear.
  static uint64_t blockedMask(const SchedState &S) {
    const size_t L = S.Live.size();
    return ~S.ReadyMask & (L >= 64 ? ~uint64_t(0) : (uint64_t(1) << L) - 1);
  }

  /// Moves entries whose wake cycle has arrived back into the ready
  /// mask. O(1) until the scheduler's earliest wake is due.
  void popDue(SchedState &S) {
    if (S.NextWake > Cycle)
      return;
    uint64_t NewNext = UINT64_MAX;
    for (uint64_t Rem = blockedMask(S); Rem; Rem &= Rem - 1) {
      unsigned I = static_cast<unsigned>(std::countr_zero(Rem));
      const SchedEntry &E = S.Live[I];
      if (E.WakeAt <= Cycle) {
        S.ReadyMask |= uint64_t(1) << I;
        if (StatsFull)
          --S.BlockedCounts[size_t(E.Reason)];
      } else if (E.WakeAt < NewNext) {
        NewNext = E.WakeAt;
      }
    }
    S.NextWake = NewNext;
  }

  static void recomputeNextWake(SchedState &S) {
    uint64_t NewNext = UINT64_MAX;
    for (uint64_t Rem = blockedMask(S); Rem; Rem &= Rem - 1)
      NewNext = std::min(NewNext, S.Live[std::countr_zero(Rem)].WakeAt);
    S.NextWake = NewNext;
  }

  /// Makes \p Slot's warp examinable now (barrier release or any other
  /// asynchronous state change) and invalidates its instruction cache.
  void wakeWarp(SMState &SM, uint32_t Slot) {
    WarpState &W = SM.Warps[Slot];
    W.invalidateSchedCache();
    SchedState &S = SM.Scheds[W.SchedIdx];
    for (size_t I = 0, L = S.Live.size(); I < L; ++I) {
      if (S.Live[I].WarpSlot != Slot)
        continue;
      if (!(S.ReadyMask & (uint64_t(1) << I))) {
        S.ReadyMask |= uint64_t(1) << I;
        if (StatsFull)
          --S.BlockedCounts[size_t(S.Live[I].Reason)];
        if (S.Live[I].WakeAt != UINT64_MAX)
          recomputeNextWake(S); // its wake may have been NextWake
      }
      return;
    }
  }

  /// Removes \p Slot's (Done) warp from its scheduler's live list.
  void dropWarp(SMState &SM, uint32_t Slot) {
    WarpState &W = SM.Warps[Slot];
    SchedState &S = SM.Scheds[W.SchedIdx];
    for (size_t I = 0, L = S.Live.size(); I < L; ++I) {
      if (S.Live[I].WarpSlot != Slot)
        continue;
      S.Live.erase(S.Live.begin() + static_cast<long>(I));
      S.ReadyMask = eraseMaskBit(S.ReadyMask, static_cast<unsigned>(I));
      return;
    }
  }

  //===--------------------------------------------------------------------===//
  // Barriers
  //===--------------------------------------------------------------------===//

  void checkBarrierRelease(SMState &SM, BlockState &B, int Id) {
    int Target = 0;
    // A pending barrier stores its explicit count in the first waiting
    // warp we find; count 0 means "all live threads".
    for (uint32_t WId : B.WarpIds) {
      WarpState &W = SM.Warps[WId];
      if (W.WaitMask && W.PendingBarId == Id && W.PendingBarCount > 0) {
        Target = W.PendingBarCount;
        break;
      }
    }
    if (Target == 0)
      Target = B.LiveThreads;
    if (Target <= 0 || B.BarArrived[Id] < Target)
      return;
    if (Wedged)
      return; // injected wedge: the barrier never opens
    ProgressCycle = Cycle;
    B.BarArrived[Id] = 0;
    B.BarPendingMask &= static_cast<uint16_t>(~(1u << Id));
    for (uint32_t WId : B.WarpIds) {
      WarpState &W = SM.Warps[WId];
      if (W.WaitMask && W.PendingBarId == Id) {
        // Released lanes may rejoin at PCs different from each other
        // (the same barrier id can be reached from several program
        // points) or from lanes that kept running; the next min-PC scan
        // re-detects convergence.
        W.Uniform = false;
        W.WaitMask = 0;
        W.PendingBarId = -1;
        wakeWarp(SM, WId);
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Block dispatch
  //===--------------------------------------------------------------------===//

  bool blockFits(const SMState &SM, const LaunchState &LS) const {
    const GpuArch &A = Config.Arch;
    const KernelLaunch &L = *LS.L;
    if (SM.NumBlocks >= A.MaxBlocksPerSM)
      return false;
    if (SM.UsedThreads + totalBlockThreads(L) > A.MaxThreadsPerSM)
      return false;
    if (SM.UsedRegs + LS.RegUnitsPerBlock > A.RegsPerSM)
      return false;
    if (SM.UsedShared + LS.SharedPerBlock >
        static_cast<uint32_t>(A.SharedMemPerSM))
      return false;
    return true;
  }

  /// Assigns arena extents to \p W for kernel \p K, recycling the
  /// slot's previous extent when it is large enough.
  void allocWarpStorage(SMState &SM, WarpState &W, const IRKernel *K) {
    size_t Need64 = size_t(K->NumRegs) * (WarpSize + 1);
    size_t Need8 = size_t(K->NumRegs) + size_t(K->LocalBytes) * WarpSize;
    if (W.U64Cap < Need64) {
      W.U64Off = SM.ArenaU64Top;
      SM.ArenaU64Top += Need64;
      W.U64Cap = Need64;
    }
    if (W.U8Cap < Need8) {
      W.U8Off = SM.ArenaU8Top;
      SM.ArenaU8Top += Need8;
      W.U8Cap = Need8;
    }
    W.Regs = SM.ArenaU64.get() + W.U64Off;
    W.RegReady = W.Regs + size_t(K->NumRegs) * WarpSize;
    W.RegMemSrc = SM.ArenaU8.get() + W.U8Off;
    W.Local = W.RegMemSrc + K->NumRegs;
    std::memset(W.Regs, 0, Need64 * sizeof(uint64_t));
    std::memset(W.RegMemSrc, 0, Need8);
  }

  void placeBlock(SMState &SM, unsigned SMIdx, uint16_t KernelIdx) {
    LaunchState &LS = Launches[KernelIdx];
    const KernelLaunch &L = *LS.L;
    const IRKernel *K = L.Kernel;
    ProgressCycle = Cycle;

    // Find or create a block slot.
    uint32_t Slot = UINT32_MAX;
    for (uint32_t I = 0; I < SM.Blocks.size(); ++I) {
      if (!SM.Blocks[I].Active) {
        Slot = I;
        break;
      }
    }
    if (Slot == UINT32_MAX) {
      Slot = static_cast<uint32_t>(SM.Blocks.size());
      SM.Blocks.emplace_back();
    }
    BlockState &B = SM.Blocks[Slot];
    B.Active = true;
    B.KernelIdx = KernelIdx;
    B.BlockId = static_cast<uint32_t>(LS.NextBlock++);
    B.LiveThreads = totalBlockThreads(L);
    B.WarpsDone = 0;
    B.NumWarps = totalBlockThreads(L) / int(WarpSize);
    B.BarArrived.fill(0);
    B.BarPendingMask = 0;
    B.Threads = totalBlockThreads(L);
    B.RegUnits = LS.RegUnitsPerBlock;
    B.SharedBytes = LS.SharedPerBlock;
    B.Shared.assign(K->StaticSharedBytes + L.DynSharedBytes, 0);
    B.WarpIds.clear();

    SM.UsedThreads += B.Threads;
    SM.UsedRegs += B.RegUnits;
    SM.UsedShared += B.SharedBytes;
    ++SM.NumBlocks;

    // Create warps on recycled slots.
    for (int WIdx = 0; WIdx < B.NumWarps; ++WIdx) {
      uint32_t WId;
      if (!SM.FreeWarpSlots.empty()) {
        WId = SM.FreeWarpSlots.back();
        SM.FreeWarpSlots.pop_back();
      } else {
        WId = static_cast<uint32_t>(SM.Warps.size());
        SM.Warps.emplace_back();
      }
      WarpState &W = SM.Warps[WId];
      W.KernelIdx = KernelIdx;
      W.BlockSlot = Slot;
      W.WarpInBlock = static_cast<uint32_t>(WIdx);
      W.Done = false;
      W.LiveMask = FullMask;
      W.WaitMask = 0;
      W.PendingBarId = -1;
      W.PendingBarCount = 0;
      W.CacheValid = false;
      W.Uniform = true;
      allocWarpStorage(SM, W, K);
      W.PC.fill(K->BlockStart.empty() ? 0 : K->BlockStart[0]);
      // Parameters: registers, plus local memory for spilled ones.
      for (size_t P = 0; P < K->ParamRegs.size(); ++P) {
        if (K->ParamRegs[P] == NoReg)
          continue;
        for (unsigned Lane = 0; Lane < WarpSize; ++Lane)
          W.reg(K->ParamRegs[P], Lane) = L.Params[P];
      }
      for (const IRKernel::ParamSpill &PS : K->SpilledParams)
        for (unsigned Lane = 0; Lane < WarpSize; ++Lane)
          std::memcpy(W.Local + size_t(K->LocalBytes) * Lane +
                          PS.LocalOffset,
                      &L.Params[PS.ParamIndex], 8);
      B.WarpIds.push_back(WId);

      // Scheduler assignment round-robins over creation order.
      unsigned SchedIdx =
          static_cast<unsigned>(SM.WarpSeq++ % SM.Scheds.size());
      W.SchedIdx = static_cast<uint8_t>(SchedIdx);
      SchedState &S = SM.Scheds[SchedIdx];
      S.Live.push_back({.Pos = S.NAppended++, .WarpSlot = WId});
      S.ReadyMask |= uint64_t(1) << (S.Live.size() - 1);
      ++SM.ActiveWarps;
    }
    (void)SMIdx;
  }

  void dispatchBlocks(SMState &SM, unsigned SMIdx) {
    // Grid-management-unit policy: grids dispatch in launch order — a
    // later launch's blocks become eligible only once every earlier
    // launch has no blocks left to dispatch. Equal-priority CUDA
    // streams behave this way in practice: overlap happens only in the
    // tail, while the earlier kernel's resident blocks drain. (This is
    // what makes the paper's "native" baseline nearly serial.)
    bool Placed = true;
    while (Placed) {
      Placed = false;
      for (uint16_t K = 0; K < Launches.size(); ++K) {
        LaunchState &LS = Launches[K];
        if (LS.NextBlock >= LS.L->GridDim)
          continue; // fully dispatched; the next launch may proceed
        if (blockFits(SM, LS)) {
          placeBlock(SM, SMIdx, K);
          Placed = true;
        }
        break; // earlier launch still has queued blocks: stop here
      }
    }
  }

  void retireBlock(SMState &SM, unsigned SMIdx, BlockState &B) {
    ProgressCycle = Cycle;
    SM.UsedThreads -= B.Threads;
    SM.UsedRegs -= B.RegUnits;
    SM.UsedShared -= B.SharedBytes;
    --SM.NumBlocks;
    B.Active = false;
    // Recycle warp slots (their sched entries were dropped on exit);
    // storage extents stay with the slots for reuse.
    for (uint32_t WId : B.WarpIds)
      SM.FreeWarpSlots.push_back(WId);

    LaunchState &LS = Launches[B.KernelIdx];
    ++LS.BlocksDone;
    if (LS.BlocksDone == LS.L->GridDim)
      LS.CompletionCycle = Cycle + 1;
    dispatchBlocks(SM, SMIdx);
  }

  //===--------------------------------------------------------------------===//
  // Instruction execution (functional + timing)
  //===--------------------------------------------------------------------===//

  /// Executes \p I for \p Mask lanes of \p W. Returns false on a fatal
  /// error (Error is set). Advances lane PCs.
  bool execute(SMState &SM, unsigned SMIdx, uint32_t WId, WarpState &W,
               const Instruction &I, uint32_t Mask);

  /// Attempts to issue one instruction on scheduler \p Sched, examining
  /// only ready warps; blocked warps are sampled in bulk through the
  /// scheduler's per-reason counters. Returns true if an instruction
  /// was issued.
  template <bool FullStats>
  bool tryIssue(SMState &SM, unsigned SMIdx, SchedState &Sched,
                uint64_t *ReasonSamples);

  template <bool FullStats> bool runLoop(SimResult &Res);

  /// Holds a gated run at the loop top until the seed has passed Cycle
  /// or the fence settles; adopts the resolved budget. False (with Res
  /// filled in) when the run must abort: its fence failed, or the
  /// request was cancelled while it waited.
  bool passGate(SimResult &Res);

  /// Sizes the arena to cover every allocGlobal reservation. Growth
  /// reserves twice the size, so the small buffers a later workload
  /// reserves never move a filled multi-MB arena; capacity beyond the
  /// size is never written and so never becomes resident.
  void sizeGlobal() {
    if (Global.size() >= GlobalTop)
      return;
    if (Global.capacity() < GlobalTop)
      Global.reserve(2 * GlobalTop);
    Global.resize(GlobalTop);
  }

  SimResult run(const std::vector<KernelLaunch> &Launches, StatsLevel S,
                const RunBudget &B);
};

//===----------------------------------------------------------------------===//
// Functional execution
//===----------------------------------------------------------------------===//

namespace {

inline uint32_t lo32(uint64_t V) { return static_cast<uint32_t>(V); }

inline float asF32(uint64_t V) { return std::bit_cast<float>(lo32(V)); }
inline uint64_t fromF32(float F) {
  return std::bit_cast<uint32_t>(F);
}
inline double asF64(uint64_t V) { return std::bit_cast<double>(V); }
inline uint64_t fromF64(double D) { return std::bit_cast<uint64_t>(D); }

/// Calls \p Fn with the comparison \p P selects.
template <typename FnT> void withPred(CmpPred P, FnT &&Fn) {
  switch (P) {
  case CmpPred::EQ:
    return Fn(std::equal_to<>());
  case CmpPred::NE:
    return Fn(std::not_equal_to<>());
  case CmpPred::LT:
    return Fn(std::less<>());
  case CmpPred::LE:
    return Fn(std::less_equal<>());
  case CmpPred::GT:
    return Fn(std::greater<>());
  case CmpPred::GE:
    return Fn(std::greater_equal<>());
  }
  Fn([](auto, auto) { return false; });
}

/// The single definition of every ALU opcode's semantics: calls
/// \p Apply once with a functor (a, b, c) -> result that computes one
/// lane of \p I from that lane's source operands (NoReg reads as 0).
/// Opcode, width, predicate and source-width dispatch happen here, once
/// per instruction, so the lane loops inside \p Apply are branch-free.
template <bool W64, typename ApplyT>
void withAluOpW(const Instruction &I, ApplyT &&Apply) {
  using U = uint64_t;
  static constexpr auto Wrap = [](U V) -> U { return W64 ? V : U(lo32(V)); };
  static constexpr auto SExt = [](U V) -> int64_t {
    return W64 ? static_cast<int64_t>(V)
               : static_cast<int64_t>(static_cast<int32_t>(lo32(V)));
  };
  static constexpr U ShiftMask = W64 ? 63 : 31;
  switch (I.Op) {
  case Opcode::MovImm: {
    const U V = Wrap(static_cast<U>(I.Imm));
    return Apply([V](U, U, U) { return V; });
  }
  case Opcode::Mov:
    return Apply([](U A, U, U) { return Wrap(A); });
  case Opcode::IAdd:
    return Apply([](U A, U B, U) { return Wrap(A + B); });
  case Opcode::ISub:
    return Apply([](U A, U B, U) { return Wrap(A - B); });
  case Opcode::IMul:
    return Apply([](U A, U B, U) { return Wrap(A * B); });
  case Opcode::IDivS:
    return Apply([](U A, U B, U) -> U {
      int64_t D = SExt(B);
      return D == 0 ? 0 : Wrap(static_cast<U>(SExt(A) / D));
    });
  case Opcode::IDivU:
    return Apply([](U A, U B, U) -> U {
      U D = Wrap(B);
      return D == 0 ? 0 : Wrap(Wrap(A) / D);
    });
  case Opcode::IRemS:
    return Apply([](U A, U B, U) -> U {
      int64_t D = SExt(B);
      return D == 0 ? 0 : Wrap(static_cast<U>(SExt(A) % D));
    });
  case Opcode::IRemU:
    return Apply([](U A, U B, U) -> U {
      U D = Wrap(B);
      return D == 0 ? 0 : Wrap(Wrap(A) % D);
    });
  case Opcode::IMinS:
    return Apply([](U A, U B, U) { return Wrap(SExt(A) < SExt(B) ? A : B); });
  case Opcode::IMinU:
    return Apply([](U A, U B, U) { return Wrap(std::min(Wrap(A), Wrap(B))); });
  case Opcode::IMaxS:
    return Apply([](U A, U B, U) { return Wrap(SExt(A) > SExt(B) ? A : B); });
  case Opcode::IMaxU:
    return Apply([](U A, U B, U) { return Wrap(std::max(Wrap(A), Wrap(B))); });
  case Opcode::Shl:
    return Apply([](U A, U B, U) { return Wrap(Wrap(A) << (B & ShiftMask)); });
  case Opcode::ShrU:
    return Apply([](U A, U B, U) { return Wrap(Wrap(A) >> (B & ShiftMask)); });
  case Opcode::ShrS:
    return Apply([](U A, U B, U) {
      return Wrap(static_cast<U>(SExt(A) >> (B & ShiftMask)));
    });
  case Opcode::And:
    return Apply([](U A, U B, U) { return Wrap(A & B); });
  case Opcode::Or:
    return Apply([](U A, U B, U) { return Wrap(A | B); });
  case Opcode::Xor:
    return Apply([](U A, U B, U) { return Wrap(A ^ B); });
  case Opcode::Not:
    return Apply([](U A, U, U) { return Wrap(~A); });
  case Opcode::ICmpS:
    return withPred(I.Pred, [&](auto Cmp) {
      Apply([Cmp](U A, U B, U) { return U(Cmp(SExt(A), SExt(B))); });
    });
  case Opcode::ICmpU:
    return withPred(I.Pred, [&](auto Cmp) {
      Apply([Cmp](U A, U B, U) { return U(Cmp(Wrap(A), Wrap(B))); });
    });
  case Opcode::Sel:
    return Apply([](U A, U B, U C) { return Wrap(A != 0 ? B : C); });
  // Float.
  case Opcode::FAdd:
    return Apply([](U A, U B, U) {
      return W64 ? fromF64(asF64(A) + asF64(B)) : fromF32(asF32(A) + asF32(B));
    });
  case Opcode::FSub:
    return Apply([](U A, U B, U) {
      return W64 ? fromF64(asF64(A) - asF64(B)) : fromF32(asF32(A) - asF32(B));
    });
  case Opcode::FMul:
    return Apply([](U A, U B, U) {
      return W64 ? fromF64(asF64(A) * asF64(B)) : fromF32(asF32(A) * asF32(B));
    });
  case Opcode::FDiv:
    return Apply([](U A, U B, U) {
      return W64 ? fromF64(asF64(A) / asF64(B)) : fromF32(asF32(A) / asF32(B));
    });
  case Opcode::FSqrt:
    return Apply([](U A, U, U) {
      return W64 ? fromF64(std::sqrt(asF64(A))) : fromF32(std::sqrt(asF32(A)));
    });
  case Opcode::FRsqrt:
    return Apply(
        [](U A, U, U) { return fromF32(1.0f / std::sqrt(asF32(A))); });
  case Opcode::FExp:
    return Apply([](U A, U, U) { return fromF32(std::exp(asF32(A))); });
  case Opcode::FLog:
    return Apply([](U A, U, U) { return fromF32(std::log(asF32(A))); });
  case Opcode::FMin:
    return Apply([](U A, U B, U) {
      return W64 ? fromF64(std::fmin(asF64(A), asF64(B)))
                 : fromF32(std::fmin(asF32(A), asF32(B)));
    });
  case Opcode::FMax:
    return Apply([](U A, U B, U) {
      return W64 ? fromF64(std::fmax(asF64(A), asF64(B)))
                 : fromF32(std::fmax(asF32(A), asF32(B)));
    });
  case Opcode::FNeg:
    return Apply([](U A, U, U) {
      return W64 ? fromF64(-asF64(A)) : fromF32(-asF32(A));
    });
  case Opcode::FAbs:
    return Apply([](U A, U, U) {
      return W64 ? fromF64(std::fabs(asF64(A))) : fromF32(std::fabs(asF32(A)));
    });
  case Opcode::FFloor:
    return Apply([](U A, U, U) {
      return W64 ? fromF64(std::floor(asF64(A)))
                 : fromF32(std::floor(asF32(A)));
    });
  case Opcode::FCmp:
    return withPred(I.Pred, [&](auto Cmp) {
      Apply([Cmp](U A, U B, U) {
        double X = W64 ? asF64(A) : double(asF32(A));
        double Y = W64 ? asF64(B) : double(asF32(B));
        return U(Cmp(X, Y));
      });
    });
  // Conversions; the source width is dispatched here too.
  case Opcode::CvtSI2F:
    if (I.SrcW == Width::W64)
      return Apply([](U A, U, U) {
        int64_t V = static_cast<int64_t>(A);
        return W64 ? fromF64(static_cast<double>(V))
                   : fromF32(static_cast<float>(V));
      });
    return Apply([](U A, U, U) {
      int64_t V = static_cast<int32_t>(lo32(A));
      return W64 ? fromF64(static_cast<double>(V))
                 : fromF32(static_cast<float>(V));
    });
  case Opcode::CvtUI2F:
    if (I.SrcW == Width::W64)
      return Apply([](U A, U, U) {
        return W64 ? fromF64(static_cast<double>(A))
                   : fromF32(static_cast<float>(A));
      });
    return Apply([](U A, U, U) {
      U V = lo32(A);
      return W64 ? fromF64(static_cast<double>(V))
                 : fromF32(static_cast<float>(V));
    });
  case Opcode::CvtF2SI:
    if (I.SrcW == Width::W64)
      return Apply([](U A, U, U) {
        return Wrap(static_cast<U>(static_cast<int64_t>(asF64(A))));
      });
    return Apply([](U A, U, U) {
      return Wrap(static_cast<U>(static_cast<int64_t>(double(asF32(A)))));
    });
  case Opcode::CvtF2UI:
    if (I.SrcW == Width::W64)
      return Apply([](U A, U, U) {
        double V = asF64(A);
        return Wrap(V <= 0 ? 0 : static_cast<U>(V));
      });
    return Apply([](U A, U, U) {
      double V = asF32(A);
      return Wrap(V <= 0 ? 0 : static_cast<U>(V));
    });
  case Opcode::CvtF2F:
    return Apply([](U A, U, U) {
      return W64 ? fromF64(static_cast<double>(asF32(A)))
                 : fromF32(static_cast<float>(asF64(A)));
    });
  case Opcode::CvtSExt:
    return Apply([](U A, U, U) {
      return static_cast<U>(static_cast<int64_t>(static_cast<int32_t>(lo32(A))));
    });
  case Opcode::CvtZExt:
    return Apply([](U A, U, U) { return U(lo32(A)); });
  default:
    return Apply([](U, U, U) { return U(0); });
  }
}

/// Computes ALU instruction \p I into \p D for the \p Mask lanes:
/// dense over all 32 lanes for a convergent warp (vectorizable, no bit
/// tests), lane by lane otherwise — both from withAluOpW's functor.
void execAlu(const Instruction &I, uint32_t Mask, const uint64_t *A,
             const uint64_t *B, const uint64_t *C, uint64_t *D) {
  auto Apply = [&](auto Op) {
    if (Mask == FullMask) {
      for (unsigned Lane = 0; Lane < WarpSize; ++Lane)
        D[Lane] = Op(A[Lane], B[Lane], C[Lane]);
      return;
    }
    for (uint32_t Rem = Mask; Rem; Rem &= Rem - 1) {
      unsigned Lane = static_cast<unsigned>(std::countr_zero(Rem));
      D[Lane] = Op(A[Lane], B[Lane], C[Lane]);
    }
  };
  if (I.W == Width::W64)
    withAluOpW<true>(I, Apply);
  else
    withAluOpW<false>(I, Apply);
}

} // namespace

bool Simulator::Impl::execute(SMState &SM, unsigned SMIdx, uint32_t WId,
                              WarpState &W, const Instruction &I,
                              uint32_t Mask) {
  const IRKernel *K = Launches[W.KernelIdx].L->Kernel;
  BlockState &B = SM.Blocks[W.BlockSlot];
  InstrClass Cls = classify(I);
  const GpuArch &A = Config.Arch;

  auto AdvancePC = [&]() {
    if (Mask == FullMask) {
      for (unsigned Lane = 0; Lane < WarpSize; ++Lane)
        ++W.PC[Lane];
      return;
    }
    for (uint32_t Rem = Mask; Rem;) {
      unsigned Lane = static_cast<unsigned>(std::countr_zero(Rem));
      Rem &= Rem - 1;
      ++W.PC[Lane];
    }
  };
  auto SetDstReady = [&](uint64_t ReadyCycle, bool FromMem) {
    if (I.Dst == NoReg)
      return;
    W.RegReady[I.Dst] = ReadyCycle;
    W.RegMemSrc[I.Dst] = FromMem ? 1 : 0;
  };
  auto Fatal = [&](const std::string &Msg) {
    Error = formatString("%s (kernel '%s', SM %u, block %u, pc area %u)",
                         Msg.c_str(), K->Name.c_str(), SMIdx, B.BlockId,
                         W.PC[std::countr_zero(Mask)]);
    return false;
  };

  switch (I.Op) {
  //===---------------- Control flow ----------------===//
  case Opcode::Bra: {
    uint32_t Target = K->BlockStart[static_cast<size_t>(I.Imm)];
    for (uint32_t Rem = Mask; Rem;) {
      unsigned Lane = static_cast<unsigned>(std::countr_zero(Rem));
      Rem &= Rem - 1;
      W.PC[Lane] = Target;
    }
    return true;
  }
  case Opcode::CBra: {
    uint32_t TrueT = K->BlockStart[static_cast<size_t>(I.Imm)];
    uint32_t FalseT = K->BlockStart[static_cast<size_t>(I.Imm2)];
    const uint64_t *P = W.Regs + size_t(I.Src[0]) * WarpSize;
    uint32_t TakenMask = 0;
    if (Mask == FullMask) {
      for (unsigned Lane = 0; Lane < WarpSize; ++Lane) {
        bool T = P[Lane] != 0;
        W.PC[Lane] = T ? TrueT : FalseT;
        TakenMask |= uint32_t(T) << Lane;
      }
    } else {
      for (uint32_t Rem = Mask; Rem;) {
        unsigned Lane = static_cast<unsigned>(std::countr_zero(Rem));
        Rem &= Rem - 1;
        bool T = P[Lane] != 0;
        W.PC[Lane] = T ? TrueT : FalseT;
        TakenMask |= uint32_t(T) << Lane;
      }
    }
    // A split vote diverges the warp; uniform warps re-converge only
    // when the slow min-PC scan observes it.
    if (TakenMask != 0 && TakenMask != Mask)
      W.Uniform = false;
    return true;
  }
  case Opcode::Exit: {
    W.LiveMask &= ~Mask;
    B.LiveThreads -= static_cast<int>(popcount(Mask));
    if (W.LiveMask == 0 && !W.Done) {
      W.Done = true;
      ProgressCycle = Cycle;
      --SM.ActiveWarps;
      ++B.WarpsDone;
      dropWarp(SM, WId);
    }
    // Exits may satisfy a pending full-block barrier; only barriers
    // with outstanding arrivals need a look.
    for (uint16_t Pending = B.BarPendingMask; Pending;) {
      int Id = std::countr_zero(Pending);
      Pending &= static_cast<uint16_t>(Pending - 1);
      checkBarrierRelease(SM, B, Id);
    }
    if (B.LiveThreads == 0 && B.WarpsDone == B.NumWarps)
      retireBlock(SM, SMIdx, B);
    return true;
  }
  case Opcode::Bar: {
    int Id = static_cast<int>(I.Imm);
    if (W.WaitMask != 0 && W.PendingBarId != Id)
      return Fatal("warp waits at two different barriers");
    W.WaitMask |= Mask;
    W.PendingBarId = static_cast<int8_t>(Id);
    W.PendingBarCount = I.Imm2;
    B.BarArrived[Id] += static_cast<int>(popcount(Mask));
    B.BarPendingMask |= static_cast<uint16_t>(1u << Id);
    AdvancePC();
    checkBarrierRelease(SM, B, Id);
    return true;
  }

  //===---------------- Special registers ----------------===//
  case Opcode::SReg: {
    const KernelLaunch &L = *Launches[W.KernelIdx].L;
    uint32_t WarpInBlock = W.WarpInBlock;
    for (uint32_t Rem = Mask; Rem;) {
      unsigned Lane = static_cast<unsigned>(std::countr_zero(Rem));
      Rem &= Rem - 1;
      // CUDA's linear layout: tid = x + y*ntid.x + z*ntid.x*ntid.y.
      uint64_t Linear = WarpInBlock * WarpSize + Lane;
      uint64_t V = 0;
      switch (static_cast<SpecialReg>(I.Imm)) {
      case SpecialReg::TidX:
        V = Linear % static_cast<uint64_t>(L.BlockDim);
        break;
      case SpecialReg::TidY:
        V = Linear / static_cast<uint64_t>(L.BlockDim) %
            static_cast<uint64_t>(L.BlockDimY);
        break;
      case SpecialReg::TidZ:
        V = Linear /
            (static_cast<uint64_t>(L.BlockDim) *
             static_cast<uint64_t>(L.BlockDimY));
        break;
      case SpecialReg::CtaIdX:
        V = B.BlockId;
        break;
      case SpecialReg::NTidX:
        V = static_cast<uint64_t>(L.BlockDim);
        break;
      case SpecialReg::NTidY:
        V = static_cast<uint64_t>(L.BlockDimY);
        break;
      case SpecialReg::NTidZ:
        V = static_cast<uint64_t>(L.BlockDimZ);
        break;
      case SpecialReg::NCtaIdX:
        V = static_cast<uint64_t>(L.GridDim);
        break;
      }
      W.reg(I.Dst, Lane) = V;
    }
    SetDstReady(Cycle + A.LatAlu32, false);
    AdvancePC();
    return true;
  }

  //===---------------- Shuffle ----------------===//
  case Opcode::Shfl: {
    uint64_t Vals[WarpSize];
    for (unsigned Lane = 0; Lane < WarpSize; ++Lane)
      Vals[Lane] = W.reg(I.Src[0], Lane);
    for (uint32_t Rem = Mask; Rem;) {
      unsigned Lane = static_cast<unsigned>(std::countr_zero(Rem));
      Rem &= Rem - 1;
      uint32_t Operand = lo32(W.reg(I.Src[1], Lane));
      unsigned SrcLane =
          I.Imm == 0 ? (Lane ^ Operand) : (Lane + Operand); // xor / down
      if (SrcLane >= WarpSize)
        SrcLane = Lane;
      W.reg(I.Dst, Lane) = Vals[SrcLane];
    }
    SetDstReady(Cycle + A.LatShuffle, false);
    AdvancePC();
    return true;
  }

  //===---------------- Memory ----------------===//
  case Opcode::LdGlobal:
  case Opcode::StGlobal: {
    uint64_t LocalSectors[WarpSize * 2];
    const uint64_t *Sectors;
    unsigned N;
    if (CandSectorsValid) {
      // Collected once by the issue pass's throttle check.
      Sectors = CandSectors;
      N = CandSectorCount;
      CandSectorsValid = false;
    } else {
      N = collectSectors(W, I.Src[0], I.Imm, I.MemSize, Mask,
                         LocalSectors);
      Sectors = LocalSectors;
    }
    uint64_t Completion = priceGlobalAccess(SM, W, Cycle, Sectors, N);
    const uint64_t *AddrR = W.Regs + size_t(I.Src[0]) * WarpSize;
    if (I.Op == Opcode::LdGlobal) {
      uint64_t *Dst = W.Regs + size_t(I.Dst) * WarpSize;
      for (uint32_t Rem = Mask; Rem;) {
        unsigned Lane = static_cast<unsigned>(std::countr_zero(Rem));
        Rem &= Rem - 1;
        uint64_t Addr = AddrR[Lane] + I.Imm;
        uint64_t V;
        if (!loadBytes(Global.data(), GlobalTop, Addr, I.MemSize,
                       I.MemSigned, V))
          return Fatal(formatString("global load out of bounds at 0x%llx",
                                    static_cast<unsigned long long>(Addr)));
        Dst[Lane] = V;
      }
      SetDstReady(Completion, true);
    } else {
      const uint64_t *Val = W.Regs + size_t(I.Src[1]) * WarpSize;
      for (uint32_t Rem = Mask; Rem;) {
        unsigned Lane = static_cast<unsigned>(std::countr_zero(Rem));
        Rem &= Rem - 1;
        uint64_t Addr = AddrR[Lane] + I.Imm;
        if (!storeBytes(Global.data(), GlobalTop, Addr, I.MemSize,
                        Val[Lane]))
          return Fatal(formatString("global store out of bounds at 0x%llx",
                                    static_cast<unsigned long long>(Addr)));
      }
    }
    AdvancePC();
    return true;
  }
  case Opcode::LdShared:
  case Opcode::StShared: {
    const uint64_t *AddrR = W.Regs + size_t(I.Src[0]) * WarpSize;
    if (I.Op == Opcode::LdShared) {
      uint64_t *Dst = W.Regs + size_t(I.Dst) * WarpSize;
      for (uint32_t Rem = Mask; Rem;) {
        unsigned Lane = static_cast<unsigned>(std::countr_zero(Rem));
        Rem &= Rem - 1;
        uint64_t V;
        if (!loadBytes(B.Shared.data(), B.Shared.size(),
                       AddrR[Lane] + I.Imm, I.MemSize, I.MemSigned, V))
          return Fatal("shared load out of bounds");
        Dst[Lane] = V;
      }
      SetDstReady(Cycle + A.LatShared, false);
    } else {
      const uint64_t *Val = W.Regs + size_t(I.Src[1]) * WarpSize;
      for (uint32_t Rem = Mask; Rem;) {
        unsigned Lane = static_cast<unsigned>(std::countr_zero(Rem));
        Rem &= Rem - 1;
        if (!storeBytes(B.Shared.data(), B.Shared.size(),
                        AddrR[Lane] + I.Imm, I.MemSize, Val[Lane]))
          return Fatal("shared store out of bounds");
      }
    }
    AdvancePC();
    return true;
  }
  case Opcode::LdLocal:
  case Opcode::StLocal: {
    // Local memory (spills, local arrays) is interleaved per lane and
    // L1-resident at spill-sized footprints: fixed short latency, no
    // DRAM bandwidth or MSHR pressure. Each lane owns a LocalBytes frame
    // and is bounds-checked against its own frame, so an overrun never
    // lands in a neighbouring lane's data.
    const size_t Frame = K->LocalBytes;
    if (I.Src[0] == NoReg && Mask == FullMask) {
      // Spill traffic (the register allocator's fixed offsets)
      // dominates: every lane uses the same offset, so one check covers
      // all 32 frames.
      const uint64_t Off = static_cast<uint64_t>(I.Imm);
      if (!inBounds(Frame, Off, I.MemSize))
        return Fatal(I.Op == Opcode::LdLocal ? "local load out of bounds"
                                             : "local store out of bounds");
      uint8_t *Slot = W.Local + Off;
      if (I.Op == Opcode::LdLocal) {
        uint64_t *Dst = W.Regs + size_t(I.Dst) * WarpSize;
        for (unsigned Lane = 0; Lane < WarpSize; ++Lane)
          Dst[Lane] = loadRaw(Slot + Frame * Lane, I.MemSize, I.MemSigned);
        SetDstReady(Cycle + A.LatLocal, false);
      } else {
        const uint64_t *Val = W.Regs + size_t(I.Src[1]) * WarpSize;
        for (unsigned Lane = 0; Lane < WarpSize; ++Lane)
          storeRaw(Slot + Frame * Lane, I.MemSize, Val[Lane]);
      }
      AdvancePC();
      return true;
    }
    const uint64_t *BaseR =
        I.Src[0] == NoReg ? ZeroLanes : W.Regs + size_t(I.Src[0]) * WarpSize;
    if (I.Op == Opcode::LdLocal) {
      uint64_t *Dst = W.Regs + size_t(I.Dst) * WarpSize;
      for (uint32_t Rem = Mask; Rem;) {
        unsigned Lane = static_cast<unsigned>(std::countr_zero(Rem));
        Rem &= Rem - 1;
        uint64_t V;
        if (!loadBytes(W.Local + Frame * Lane, Frame, BaseR[Lane] + I.Imm,
                       I.MemSize, I.MemSigned, V))
          return Fatal("local load out of bounds");
        Dst[Lane] = V;
      }
      SetDstReady(Cycle + A.LatLocal, false);
    } else {
      const uint64_t *Val = W.Regs + size_t(I.Src[1]) * WarpSize;
      for (uint32_t Rem = Mask; Rem;) {
        unsigned Lane = static_cast<unsigned>(std::countr_zero(Rem));
        Rem &= Rem - 1;
        if (!storeBytes(W.Local + Frame * Lane, Frame, BaseR[Lane] + I.Imm,
                        I.MemSize, Val[Lane]))
          return Fatal("local store out of bounds");
      }
    }
    AdvancePC();
    return true;
  }
  case Opcode::AtomAddG:
  case Opcode::AtomAddS: {
    bool IsGlobal = I.Op == Opcode::AtomAddG;
    uint8_t *Base = IsGlobal ? Global.data() : B.Shared.data();
    size_t Size = IsGlobal ? GlobalTop : B.Shared.size();
    // Same-address serialization factor.
    unsigned MaxMult = 1;
    {
      uint64_t Addrs[WarpSize];
      unsigned N = 0;
      for (uint32_t Rem = Mask; Rem;) {
        unsigned Lane = static_cast<unsigned>(std::countr_zero(Rem));
        Rem &= Rem - 1;
        Addrs[N++] = W.reg(I.Src[0], Lane) + I.Imm;
      }
      for (unsigned X = 0; X < N; ++X) {
        unsigned Mult = 0;
        for (unsigned Y = 0; Y < N; ++Y)
          if (Addrs[Y] == Addrs[X])
            ++Mult;
        MaxMult = std::max(MaxMult, Mult);
      }
    }
    for (uint32_t Rem = Mask; Rem;) {
      unsigned Lane = static_cast<unsigned>(std::countr_zero(Rem));
      Rem &= Rem - 1;
      uint64_t Addr = W.reg(I.Src[0], Lane) + I.Imm;
      uint64_t Old;
      if (!loadBytes(Base, Size, Addr, I.MemSize, false, Old))
        return Fatal("atomic out of bounds");
      uint64_t Add = W.reg(I.Src[1], Lane);
      uint64_t New;
      if (I.AtomFloat) {
        New = I.MemSize == 8 ? fromF64(asF64(Old) + asF64(Add))
                             : fromF32(asF32(Old) + asF32(Add));
      } else {
        New = Old + Add;
      }
      if (!storeBytes(Base, Size, Addr, I.MemSize, New))
        return Fatal("atomic out of bounds");
      if (I.Dst != NoReg)
        W.reg(I.Dst, Lane) = Old;
    }
    uint64_t Ready;
    if (IsGlobal) {
      uint64_t LocalSectors[WarpSize * 2];
      const uint64_t *Sectors;
      unsigned N;
      if (CandSectorsValid) {
        Sectors = CandSectors;
        N = CandSectorCount;
        CandSectorsValid = false;
      } else {
        N = collectSectors(W, I.Src[0], I.Imm, I.MemSize, Mask,
                           LocalSectors);
        Sectors = LocalSectors;
      }
      uint64_t Completion = priceGlobalAccess(SM, W, Cycle, Sectors, N);
      Ready = Completion + (A.LatAtomGlobal - A.LatGlobal) +
              (MaxMult - 1) * 4;
    } else {
      Ready = Cycle + A.LatAtomShared + (MaxMult - 1) * 2;
    }
    LastAtomicReplay = MaxMult;
    SetDstReady(Ready, IsGlobal);
    AdvancePC();
    return true;
  }

  //===---------------- ALU ----------------===//
  default: {
    const uint64_t *SrcA =
        I.Src[0] != NoReg ? W.Regs + size_t(I.Src[0]) * WarpSize
                          : ZeroLanes;
    const uint64_t *SrcB =
        I.Src[1] != NoReg ? W.Regs + size_t(I.Src[1]) * WarpSize
                          : ZeroLanes;
    const uint64_t *SrcC =
        I.Src[2] != NoReg ? W.Regs + size_t(I.Src[2]) * WarpSize
                          : ZeroLanes;
    if (I.Dst != NoReg)
      execAlu(I, Mask, SrcA, SrcB, SrcC, W.Regs + size_t(I.Dst) * WarpSize);
    SetDstReady(Cycle + latencyOf(Cls), false);
    AdvancePC();
    return true;
  }
  }
}

//===----------------------------------------------------------------------===//
// Issue
//===----------------------------------------------------------------------===//

template <bool FullStats>
bool Simulator::Impl::tryIssue(SMState &SM, unsigned SMIdx,
                               SchedState &Sched,
                               uint64_t *ReasonSamples) {
  const uint64_t N = Sched.NAppended;
  const size_t L = Sched.Live.size();

  // Round-robin start: first live warp at or after the cursor's virtual
  // position (the cursor may point at a since-retired warp). The hint
  // from the previous issue usually answers directly.
  size_t StartIdx;
  if (Sched.StartHint < L && Sched.Live[Sched.StartHint].Pos == Sched.RRNext) {
    StartIdx = Sched.StartHint;
  } else {
    StartIdx = 0;
    while (StartIdx < L && Sched.Live[StartIdx].Pos < Sched.RRNext)
      ++StartIdx;
    if (StartIdx >= L)
      StartIdx = 0;
  }

  int CandIdx = -1;
  uint32_t CandMask = 0;
  uint64_t CandPos = 0;
  CandSectorsValid = false;

  // Examine ready warps in round-robin order: indices >= StartIdx
  // ascending, then the wrap. Blocked warps never enter the loop.
  const uint64_t Snapshot = Sched.ReadyMask;
  uint64_t Parts[2] = {
      StartIdx ? Snapshot & ~((uint64_t(1) << StartIdx) - 1) : Snapshot,
      StartIdx ? Snapshot & ((uint64_t(1) << StartIdx) - 1) : 0};
  for (uint64_t Part : Parts) {
    for (uint64_t Rem = Part; Rem;) {
      unsigned Idx = static_cast<unsigned>(std::countr_zero(Rem));
      Rem &= Rem - 1;
      WarpState &W = SM.Warps[Sched.Live[Idx].WarpSlot];

      uint32_t Runnable = W.LiveMask & ~W.WaitMask;
      if (Runnable == 0) {
        // Waiting at a barrier; woken explicitly by checkBarrierRelease.
        blockEntry(Sched, Idx, UINT64_MAX, Stall::Barrier);
        if constexpr (FullStats)
          ++ReasonSamples[size_t(Stall::Barrier)];
        continue;
      }

      // The warp's current instruction only changes when it executes or
      // a barrier releases lanes, both of which invalidate the cache.
      if (!W.CacheValid) {
        uint32_t MinPC;
        uint32_t Mask;
        if (W.Uniform) {
          // Convergent fast path: every runnable lane shares one PC.
          MinPC = W.PC[std::countr_zero(Runnable)];
          Mask = Runnable;
        } else {
          MinPC = UINT32_MAX;
          for (uint32_t Scan = Runnable; Scan;) {
            unsigned Lane = static_cast<unsigned>(std::countr_zero(Scan));
            Scan &= Scan - 1;
            if (W.PC[Lane] < MinPC)
              MinPC = W.PC[Lane];
          }
          Mask = 0;
          for (uint32_t Scan = Runnable; Scan;) {
            unsigned Lane = static_cast<unsigned>(std::countr_zero(Scan));
            Scan &= Scan - 1;
            if (W.PC[Lane] == MinPC)
              Mask |= 1u << Lane;
          }
          if (Mask == Runnable)
            W.Uniform = true; // reconverged
        }
        const Instruction &I = Launches[W.KernelIdx].L->Kernel->Flat[MinPC];
        uint64_t MaxReady = I.Dst != NoReg ? W.RegReady[I.Dst] : 0;
        for (Reg S : I.Src)
          if (S != NoReg)
            MaxReady = std::max(MaxReady, W.RegReady[S]);
        W.CacheValid = true;
        W.CachedMask = Mask;
        W.CachedInst = &I;
        W.CachedCls = classify(I);
        W.CachedMaxReady = MaxReady;
      }
      const uint32_t Mask = W.CachedMask;
      const Instruction &I = *W.CachedInst;
      const InstrClass Cls = W.CachedCls;

      // Scoreboard: blocked until the latest operand is ready. Only a
      // blocked warp pays the per-operand walk, to tell memory from
      // execution dependencies.
      if (W.CachedMaxReady > Cycle) {
        bool BlockedByMem = false;
        auto CheckReg = [&](Reg R) {
          if (R != NoReg && W.RegReady[R] > Cycle)
            BlockedByMem |= W.RegMemSrc[R] != 0;
        };
        for (Reg S : I.Src)
          CheckReg(S);
        CheckReg(I.Dst);
        const Stall Reason = BlockedByMem ? Stall::MemDep : Stall::ExecDep;
        blockEntry(Sched, Idx, W.CachedMaxReady, Reason);
        if constexpr (FullStats)
          ++ReasonSamples[size_t(Reason)];
        continue;
      }

      // Pipe availability. The pipe frees at a known cycle and nothing
      // can issue on it before then, so parking until PipeFree is
      // equivalent to re-checking every cycle.
      Pipe P = pipeOf(Cls);
      if (Cls != InstrClass::Barrier && Cls != InstrClass::Control &&
          Sched.PipeFree[P] > Cycle) {
        blockEntry(Sched, Idx, Sched.PipeFree[P], Stall::PipeBusy);
        if constexpr (FullStats)
          ++ReasonSamples[size_t(Stall::PipeBusy)];
        continue;
      }

      // Shared-memory atomic unit back-pressure.
      if (Cls == InstrClass::SharedAtomic && SM.AtomUnitFree > Cycle) {
        blockEntry(Sched, Idx, SM.AtomUnitFree, Stall::PipeBusy);
        if constexpr (FullStats)
          ++ReasonSamples[size_t(Stall::PipeBusy)];
        continue;
      }

      // Memory back-pressure (local memory is L1-resident; exempt).
      bool IsGlobalAccess =
          Cls == InstrClass::GlobalMem || Cls == InstrClass::GlobalAtomic;
      unsigned NumSectors = 0;
      if (IsGlobalAccess) {
        NumSectors = collectSectors(W, I.Src[0], I.Imm, I.MemSize, Mask,
                                    ScratchSectors);
        if (!SM.Inflight->canIssue(Cycle, NumSectors)) {
          blockEntry(Sched, Idx, SM.Inflight->nextCompletion(),
                     Stall::MemThrottle);
          if constexpr (FullStats)
            ++ReasonSamples[size_t(Stall::MemThrottle)];
          continue;
        }
      }

      if (CandIdx < 0) {
        CandIdx = static_cast<int>(Idx);
        CandMask = Mask;
        CandPos = Sched.Live[Idx].Pos;
        if (IsGlobalAccess) {
          // Hand the collected sector set to execute() for pricing.
          std::memcpy(CandSectors, ScratchSectors,
                      NumSectors * sizeof(uint64_t));
          CandSectorCount = NumSectors;
          CandSectorsValid = true;
        }
        // Note: the pass must keep examining (and parking) the
        // remaining ready warps even when it already has its candidate
        // and stats are off — a warp parked later is parked against
        // *changed* pipe/queue state, so its wake time (and with it the
        // idle fast-forward's iteration cycles, which step the
        // round-robin cursor) would drift from the reference schedule.
      } else if constexpr (FullStats) {
        ++ReasonSamples[size_t(Stall::NotSelected)];
      }
    }
  }

  if (CandIdx < 0) {
    Sched.RRNext = (Sched.RRNext + 1) % N;
    return false;
  }

  uint32_t WId = Sched.Live[CandIdx].WarpSlot;
  WarpState &W = SM.Warps[WId];
  const Instruction &I = *W.CachedInst;
  const InstrClass Cls = W.CachedCls;
  Pipe P = pipeOf(Cls);

  // Issue! Note: execute() may retire the block and dispatch a new one,
  // recycling warp slots — W must not be used afterwards.
  uint16_t KernelIdx = W.KernelIdx;
  W.invalidateSchedCache();
  LastAtomicReplay = 1;
  if (!execute(SM, SMIdx, WId, W, I, CandMask))
    return false; // fatal error recorded; run() aborts
  if (Cls != InstrClass::Barrier && Cls != InstrClass::Control)
    Sched.PipeFree[P] = Cycle + issueInterval(Cls);
  if (Cls == InstrClass::SharedAtomic)
    SM.AtomUnitFree =
        Cycle + uint64_t(LastAtomicReplay) * Config.Arch.IIAtomShared;
  ++Launches[KernelIdx].Issued;
  ++IssuedSlots;
  if (Config.Arch.Scheduler == SchedPolicy::GreedyThenOldest) {
    // Stay on this warp next cycle (greedy-then-oldest).
    Sched.RRNext = CandPos;
    Sched.StartHint = static_cast<uint32_t>(CandIdx);
  } else {
    // Strict round robin: move past the issued warp.
    Sched.RRNext = (CandPos + 1) % N;
    Sched.StartHint = static_cast<uint32_t>(CandIdx) + 1;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Main loop
//===----------------------------------------------------------------------===//

bool Simulator::Impl::passGate(SimResult &Res) {
  if (!Gate->clears(Cycle)) {
    double Ms = Gate->waitFor(Cycle, Config.Cancel);
    GateWaitMs += Ms;
    // Waiting is not running: keep it off the wall-clock allowance.
    if (WallTimed)
      WallDeadline += std::chrono::duration_cast<
          std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(Ms));
  }
  switch (Gate->state()) {
  case IncumbentFence::State::Open:
    if (Gate->clears(Cycle))
      return true;
    // Cancelled while waiting.
    Res.Cancelled = true;
    Res.Error = Config.Cancel.status().message();
    break;
  case IncumbentFence::State::Failed:
    Res.Cancelled = true;
    Res.Error = "incumbent seed failed";
    break;
  case IncumbentFence::State::Resolved:
    // From here on this is a run under a fixed budget. Only an idle
    // fast-forward can have carried it past the budget (every issuing
    // iteration ran at a cycle the seed outlasted); a fixed-budget run
    // would have clamped that fast-forward to the budget, so clamp back.
    Budget = Gate->budget();
    Gate = nullptr;
    if (Cycle > Budget)
      Cycle = Budget;
    return true;
  }
  Res.TotalCycles = Cycle;
  Res.TotalIssued = IssuedSlots;
  return false;
}

template <bool FullStats> bool Simulator::Impl::runLoop(SimResult &Res) {
  auto AllDone = [&]() {
    for (const LaunchState &LS : Launches)
      if (LS.BlocksDone < LS.L->GridDim)
        return false;
    return true;
  };

  while (!AllDone()) {
    // Seed: some kernel is still running at Cycle. Follower: wait until
    // the seed is known to outlast Cycle (or its budget is known).
    if (Publish)
      Publish->publish(Cycle);
    if (Gate && !passGate(Res))
      return false;
    if (Cycle >= Config.MaxCycles) {
      Res.Error = "simulation exceeded the cycle limit (deadlock or "
                  "runaway kernel?)";
      return false;
    }
    if (Budget != 0 && Cycle >= Budget) {
      // Some kernel is still running at the budget cycle, so the final
      // TotalCycles would come out strictly greater than the budget:
      // abandon the run. The fast-forward clamp below guarantees this
      // fires at exactly the budget cycle, so the abort point — and the
      // issued-instruction count reported with it — is deterministic.
      Res.BudgetExceeded = true;
      Res.Error = "cycle budget exceeded";
      Res.TotalCycles = Cycle;
      Res.TotalIssued = IssuedSlots;
      return false;
    }
    if (Watchdog != 0 && Cycle >= ProgressCycle + Watchdog) {
      // Warps may still be issuing (a spin-poll livelock), but the
      // scheduler made no macro progress for a whole window. The
      // fast-forward clamp below guarantees this fires at exactly
      // ProgressCycle + Watchdog, so the abort point is deterministic.
      Res.Deadlock = true;
      Res.Error = formatString(
          "watchdog: no scheduler progress for %llu cycles (deadlock or "
          "livelocked kernel?)",
          static_cast<unsigned long long>(Watchdog));
      Res.TotalCycles = Cycle;
      Res.TotalIssued = IssuedSlots;
      logInfo("sim: %s at cycle %llu", Res.Error.c_str(),
              static_cast<unsigned long long>(Cycle));
      return false;
    }
    if (WallTimed && (++LoopIters & 0x1FFF) == 0 &&
        std::chrono::steady_clock::now() >= WallDeadline) {
      Res.TimedOut = true;
      Res.Error = "wall-clock timeout exceeded";
      Res.TotalCycles = Cycle;
      Res.TotalIssued = IssuedSlots;
      logInfo("sim: wall-clock timeout at cycle %llu",
              static_cast<unsigned long long>(Cycle));
      return false;
    }
    // Cooperative cancellation, polled at the same coarse cadence as
    // the wall timeout but on its own counter (installing a token must
    // not shift the pinned wall-timeout cadence). A cancelled run is a
    // lifecycle abort like TimedOut: the partial counters only say how
    // far it got.
    if (CancelOn && (++CancelIters & 0x1FFF) == 0 &&
        Config.Cancel.cancelled()) {
      Res.Cancelled = true;
      Res.Error = Config.Cancel.status().message();
      Res.TotalCycles = Cycle;
      Res.TotalIssued = IssuedSlots;
      logInfo("sim: run cancelled at cycle %llu (%s)",
              static_cast<unsigned long long>(Cycle),
              Res.Error.c_str());
      return false;
    }

    bool AnyIssued = false;
    uint64_t CycleSamples[NumStalls] = {};
    uint64_t ActiveWarps = 0;
    uint64_t ActiveScheds = 0;

    for (unsigned S = 0; S < SMs.size(); ++S) {
      SMState &SM = SMs[S];
      if constexpr (FullStats)
        ActiveWarps += static_cast<uint64_t>(SM.ActiveWarps);
      for (SchedState &Sched : SM.Scheds) {
        if (Sched.Live.empty())
          continue;
        if constexpr (FullStats)
          ++ActiveScheds;
        popDue(Sched);
        if constexpr (FullStats)
          for (size_t R = 0; R < NumStalls; ++R)
            CycleSamples[R] += Sched.BlockedCounts[R];
        if (Sched.ReadyMask) {
          AnyIssued |= tryIssue<FullStats>(SM, S, Sched, CycleSamples);
          if (!Error.empty()) {
            Res.Error = Error;
            return false;
          }
        } else {
          // No warp is examinable: the classify pass degenerates to a
          // cursor bump (kept for bit-exact round-robin state).
          Sched.RRNext = (Sched.RRNext + 1) % Sched.NAppended;
        }
      }
    }

    uint64_t Delta = 1;
    if (!AnyIssued) {
      // Fast-forward to the earliest wake anywhere.
      uint64_t NextEvent = UINT64_MAX;
      for (SMState &SM : SMs)
        for (SchedState &Sched : SM.Scheds)
          if (!Sched.Live.empty() && Sched.NextWake < NextEvent)
            NextEvent = Sched.NextWake;
      if (NextEvent == UINT64_MAX) {
        Res.Deadlock = true;
        Res.Error = "deadlock: no eligible warps and no pending events";
        Res.TotalCycles = Cycle;
        Res.TotalIssued = IssuedSlots;
        return false;
      }
      Delta = std::max<uint64_t>(1, NextEvent - Cycle);
      // Never fast-forward past the budget: the next iteration must
      // observe Cycle == Budget and abort there, not at whatever event
      // happened to be scheduled beyond it. Cycle < Budget here (the
      // loop top would have aborted otherwise), so Delta stays >= 1.
      // Runs that finish within the budget never reach a wake beyond
      // it with work outstanding, so their schedules are untouched.
      if (Budget != 0 && Cycle + Delta > Budget)
        Delta = Budget - Cycle;
      // Same argument for the watchdog deadline: only a run that is
      // about to be declared dead can have its fast-forward clamped
      // (healthy runs always make macro progress before the window
      // expires), so abort cycles are pinned and schedules untouched.
      if (Watchdog != 0 && Cycle + Delta > ProgressCycle + Watchdog)
        Delta = ProgressCycle + Watchdog - Cycle;
    }
    if constexpr (FullStats) {
      for (size_t R = 0; R < NumStalls; ++R)
        StallSamples[R] += CycleSamples[R] * Delta;
      ActiveWarpIntegral += ActiveWarps * Delta;
      ActiveCycleSlots += ActiveScheds * Delta;
    }
    Cycle += Delta;
  }
  return true;
}

SimResult Simulator::Impl::run(const std::vector<KernelLaunch> &Ls,
                               StatsLevel Stats, const RunBudget &B) {
  SimResult Res;
  const GpuArch &A = Config.Arch;
  StatsFull = Stats == StatsLevel::Full;
  sizeGlobal();

  // Reset machine state.
  SMs.clear();
  Launches.clear();
  Cycle = 0;
  Budget = B.Fence ? 0 : B.Cycles;
  Publish = B.Seed ? B.Fence : nullptr;
  Gate = B.isGated() ? B.Fence : nullptr;
  GateWaitMs = 0.0;
  ProgressCycle = 0;
  Watchdog = Config.WatchdogCycles;
  LoopIters = 0;
  WallTimed = Config.WallTimeoutMs != 0;
  if (WallTimed)
    WallDeadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(Config.WallTimeoutMs);
  CancelOn = Config.Cancel.valid();
  CancelIters = 0;
  if (CancelOn && Config.Cancel.cancelled()) {
    // Already-cancelled requests never start simulating; report the
    // abort at cycle 0 rather than paying the launch setup.
    Res.Cancelled = true;
    Res.Error = Config.Cancel.status().message();
    HFUSE_METRIC_ADD("sim.cancelled", 1);
    return Res;
  }
  Wedged = false;
  {
    FaultInjector &FI = FaultInjector::instance();
    if (FI.armed() && !Ls.empty())
      Wedged = !FI.check(FaultSite::SimWedge, Ls.front().Label).ok();
  }
  Error.clear();
  IssuedSlots = 0;
  std::fill(std::begin(StallSamples), std::end(StallSamples), 0);
  ActiveWarpIntegral = 0;
  ActiveCycleSlots = 0;
  CandSectorsValid = false;
  double BW = A.BytesPerCycleDevice * Config.SimSMs / A.NumSMs;
  Mem = std::make_unique<MemorySystem>(BW, A.LatGlobal, A.SectorBytes);
  L2.reset();
  if (Config.ModelL2 && A.L2Bytes > 0) {
    // The simulated-SM subset sees a proportional slice of the L2, the
    // same scaling applied to DRAM bandwidth.
    long Scaled = A.L2Bytes * Config.SimSMs / A.NumSMs;
    L2 = std::make_unique<SectorCache>(Scaled, A.L2Assoc, A.SectorBytes);
    Mem->setL2(L2.get(), A.LatL2Hit);
  }

  // Validate launches and precompute per-block resources.
  for (const KernelLaunch &L : Ls) {
    if (!L.Kernel) {
      Res.Error = "null kernel in launch";
      return Res;
    }
    if (L.BlockDim <= 0 || L.BlockDimY <= 0 || L.BlockDimZ <= 0 ||
        totalBlockThreads(L) % A.WarpSize != 0 ||
        totalBlockThreads(L) > A.MaxThreadsPerBlock) {
      Res.Error = formatString(
          "kernel '%s': block shape %dx%dx%d is not a warp multiple in "
          "(0, %d]",
          L.Kernel->Name.c_str(), L.BlockDim, L.BlockDimY, L.BlockDimZ,
          A.MaxThreadsPerBlock);
      return Res;
    }
    if (L.Params.size() != L.Kernel->ParamRegs.size()) {
      Res.Error = formatString("kernel '%s': expected %zu parameters, got "
                               "%zu",
                               L.Kernel->Name.c_str(),
                               L.Kernel->ParamRegs.size(), L.Params.size());
      return Res;
    }
    if (L.Kernel->ArchRegsPerThread == 0) {
      Res.Error = formatString("kernel '%s' was not register-allocated",
                               L.Kernel->Name.c_str());
      return Res;
    }
    uint32_t SharedBytes = L.Kernel->StaticSharedBytes + L.DynSharedBytes;
    OccupancyResult Occ =
        computeOccupancy(A, totalBlockThreads(L),
                         static_cast<int>(L.Kernel->ArchRegsPerThread),
                         SharedBytes);
    if (Occ.BlocksPerSM < 1) {
      Res.Error = formatString("kernel '%s' cannot launch: resources "
                               "exceed one SM",
                               L.Kernel->Name.c_str());
      return Res;
    }
    LaunchState LS;
    LS.L = &L;
    LS.RegUnitsPerBlock =
        regsPerWarpAllocated(A, static_cast<int>(
                                    L.Kernel->ArchRegsPerThread)) *
        (totalBlockThreads(L) / A.WarpSize);
    uint32_t Unit = A.SharedAllocUnit;
    LS.SharedPerBlock = (SharedBytes + Unit - 1) / Unit * Unit;
    Launches.push_back(LS);
  }

  // Arena capacity: each of the at most MaxThreadsPerSM/32 resident
  // warp slots holds at most one extent per launch's kernel (extents
  // only grow, and a slot allocates a given size at most once).
  size_t WarpSlotCap = size_t(A.MaxThreadsPerSM / A.WarpSize) + 1;
  size_t NeedU64 = 0, NeedU8 = 0;
  for (const LaunchState &LS : Launches) {
    const IRKernel *K = LS.L->Kernel;
    NeedU64 += size_t(K->NumRegs) * (WarpSize + 1);
    NeedU8 += size_t(K->NumRegs) + size_t(K->LocalBytes) * WarpSize;
  }

  SMs.resize(Config.SimSMs);
  for (int S = 0; S < Config.SimSMs; ++S) {
    SMs[S].Scheds.resize(A.SchedulersPerSM);
    SMs[S].Inflight =
        std::make_unique<InflightTracker>(A.MaxInflightSectorsPerSM);
    SMs[S].Warps.reserve(WarpSlotCap);
    SMs[S].ArenaU64 =
        std::make_unique_for_overwrite<uint64_t[]>(WarpSlotCap * NeedU64);
    SMs[S].ArenaU8 =
        std::make_unique_for_overwrite<uint8_t[]>(WarpSlotCap * NeedU8);
    dispatchBlocks(SMs[S], static_cast<unsigned>(S));
  }

  const uint64_t TotalScheds =
      uint64_t(Config.SimSMs) * A.SchedulersPerSM;

  telemetry::TraceSpan RunSpan;
  if (telemetry::traceOn() && !Ls.empty()) {
    const std::string &Label =
        Ls.front().Label.empty() ? Ls.front().Kernel->Name : Ls.front().Label;
    RunSpan.beginSpan("sim", "run:" + Label,
                      formatString("{\"launches\":%zu,\"budget\":%llu,"
                                   "\"stats\":\"%s\"}",
                                   Ls.size(),
                                   static_cast<unsigned long long>(Budget),
                                   StatsFull ? "full" : "minimal"));
  }

  bool Ok = StatsFull ? runLoop<true>(Res) : runLoop<false>(Res);
  if (telemetry::metricsOn()) {
    HFUSE_METRIC_ADD("sim.runs", 1);
    HFUSE_METRIC_ADD("sim.insts", IssuedSlots);
    HFUSE_METRIC_ADD("sim.cycles", Cycle);
    if (Res.BudgetExceeded)
      HFUSE_METRIC_ADD("sim.budget_aborts", 1);
    if (Res.Deadlock)
      HFUSE_METRIC_ADD("sim.deadlocks", 1);
    if (Res.TimedOut)
      HFUSE_METRIC_ADD("sim.timeouts", 1);
    if (Res.Cancelled)
      HFUSE_METRIC_ADD("sim.cancelled", 1);
  }
  if (!Ok) {
    Res.FaultInjected = Wedged;
    return Res;
  }

  // ---- Metrics -------------------------------------------------------------
  Res.Ok = true;
  Res.TotalCycles = 0;
  for (const LaunchState &LS : Launches)
    Res.TotalCycles = std::max(Res.TotalCycles, LS.CompletionCycle);
  Res.TotalMs =
      static_cast<double>(Res.TotalCycles) / (A.ClockGHz * 1e9) * 1e3;
  Res.TotalIssued = IssuedSlots;

  uint64_t TotalSlots = Res.TotalCycles * TotalScheds;
  uint64_t TotalStalls = 0;
  for (size_t R = 1; R < NumStalls; ++R) // skip Stall::None
    TotalStalls += StallSamples[R];
  Res.DeviceIssueSlotUtilPct =
      TotalSlots ? 100.0 * IssuedSlots / TotalSlots : 0.0;
  Res.DeviceMemStallPct =
      TotalStalls ? 100.0 *
                        (StallSamples[size_t(Stall::MemDep)] +
                         StallSamples[size_t(Stall::MemThrottle)]) /
                        TotalStalls
                  : 0.0;
  Res.DeviceOccupancyPct =
      Res.TotalCycles && StatsFull
          ? 100.0 * ActiveWarpIntegral /
                (double(Res.TotalCycles) * Config.SimSMs * A.maxWarpsPerSM())
          : 0.0;
  if (TotalStalls)
    for (size_t R = 1; R < NumStalls; ++R)
      Res.StallSharePct[R - 1] =
          100.0 * StallSamples[R] / static_cast<double>(TotalStalls);

  for (const LaunchState &LS : Launches) {
    KernelMetrics M;
    M.Label = LS.L->Label.empty() ? LS.L->Kernel->Name : LS.L->Label;
    M.ElapsedCycles = LS.CompletionCycle;
    M.TimeMs =
        static_cast<double>(LS.CompletionCycle) / (A.ClockGHz * 1e9) * 1e3;
    M.IssuedInsts = LS.Issued;
    // Export measured issue counts (the paper's Figure 8 data) for
    // profiled runs only; Minimal runs leave the registry alone.
    if (StatsFull && telemetry::metricsOn())
      telemetry::MetricsRegistry::instance()
          .gauge("sim.issued." + M.Label)
          .set(LS.Issued);
    uint64_t Slots = LS.CompletionCycle * TotalScheds;
    M.IssueSlotUtilPct = Slots ? 100.0 * LS.Issued / Slots : 0.0;
    M.MemStallPct = Res.DeviceMemStallPct;
    M.AchievedOccupancyPct = Res.DeviceOccupancyPct;
    M.RegsPerThread = LS.L->Kernel->ArchRegsPerThread;
    M.GlobalSectors = LS.GlobalSectors;
    M.L2HitRatePct = LS.GlobalSectors
                         ? 100.0 * static_cast<double>(LS.L2HitSectors) /
                               static_cast<double>(LS.GlobalSectors)
                         : 0.0;
    M.SharedBytesPerBlock =
        LS.L->Kernel->StaticSharedBytes + LS.L->DynSharedBytes;
    OccupancyResult Occ = computeOccupancy(
        A, totalBlockThreads(*LS.L), static_cast<int>(M.RegsPerThread),
        M.SharedBytesPerBlock);
    M.TheoreticalBlocksPerSM = Occ.BlocksPerSM;
    Res.Kernels.push_back(std::move(M));
  }
  return Res;
}

//===----------------------------------------------------------------------===//
// Public interface
//===----------------------------------------------------------------------===//

Simulator::Simulator(SimConfig Config)
    : P(std::make_unique<Impl>(std::move(Config))) {}

Simulator::~Simulator() = default;

uint64_t Simulator::allocGlobal(size_t Bytes) {
  uint64_t Base = (P->GlobalTop + 63) & ~size_t(63);
  P->GlobalTop = Base + Bytes;
  return Base;
}

std::vector<uint8_t> &Simulator::globalMem() {
  P->sizeGlobal();
  return P->Global;
}

SimResult Simulator::run(const std::vector<KernelLaunch> &Launches) {
  return run(Launches, StatsLevel::Full);
}

SimResult Simulator::run(const std::vector<KernelLaunch> &Launches,
                         StatsLevel Stats) {
  return P->run(Launches, Stats, RunBudget());
}

SimResult Simulator::run(const std::vector<KernelLaunch> &Launches,
                         StatsLevel Stats, const RunBudget &Budget,
                         double *FenceWaitMs) {
  SimResult R = P->run(Launches, Stats, Budget);
  if (FenceWaitMs)
    *FenceWaitMs += P->GateWaitMs;
  return R;
}
