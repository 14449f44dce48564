//===-- gpusim/Simulator.h - Execution-driven GPU simulator -----*- C++ -*-===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An execution-driven SM timing simulator for SASS-lite kernels. It
/// stands in for the physical GTX 1080 Ti / V100 + nvprof used in the
/// paper (we have no GPU; see DESIGN.md §2). Modelled mechanisms — the
/// ones the paper's analysis hinges on:
///
///  - per-SM warp schedulers issuing at most one warp instruction per
///    cycle each, with a register scoreboard and per-pipe issue
///    intervals (split INT/FP pipes on Volta);
///  - a latency + bandwidth + MSHR global-memory model with per-warp
///    sector coalescing;
///  - 16 named block-level barriers with arrival counts — the exact
///    `bar.sync id, count` semantics HFuse's partial barriers rely on;
///  - occupancy-limited block dispatch, including concurrent kernels
///    (parallel CUDA streams) for the paper's "native" baseline;
///  - nvprof-style metrics: elapsed cycles, issue-slot utilization,
///    memory-dependency stall share, achieved occupancy.
///
/// Threads have independent PCs with min-PC reconvergence (Volta-style
/// independent thread scheduling, also a sound approximation for the
/// warp-uniform benchmark kernels on Pascal).
///
/// Scale note: simulating every SM of a V100 is wastefully slow when all
/// SMs do identical work, so SimConfig::SimSMs (default 4) SMs are
/// simulated and device bandwidth is scaled by SimSMs/NumSMs. Grids
/// should be sized relative to SimSMs.
///
/// The core is event-driven: each scheduler keeps a ready mask over its
/// resident warps plus per-warp wake times, so a warp blocked on the
/// scoreboard, a busy pipe, the shared-atomic unit, or memory
/// back-pressure costs nothing until its wake cycle, and the main loop
/// fast-forwards to the next event when no scheduler can issue. Cycle
/// counts are bit-identical to the historical scan-every-warp loop
/// (tests/GoldenSimTest.cpp pins them). StatsLevel selects how much
/// profiling work rides along: Full (default) keeps nvprof-style
/// stall-reason sampling, occupancy integration, and per-launch traffic
/// accounting; Minimal skips all of it and reports timing only.
///
//===----------------------------------------------------------------------===//

#ifndef HFUSE_GPUSIM_SIMULATOR_H
#define HFUSE_GPUSIM_SIMULATOR_H

#include "gpusim/GpuArch.h"
#include "gpusim/IncumbentFence.h"
#include "ir/IR.h"
#include "support/CancellationToken.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace hfuse::gpusim {

/// One kernel launch (grid, block, dynamic shared bytes, parameters).
/// Blocks may be up to 3-dimensional; the linear thread id inside a
/// block is x + y*BlockDim + z*BlockDim*BlockDimY (CUDA's layout), and
/// warps are formed over linear ids. Grids are 1-dimensional.
struct KernelLaunch {
  const ir::IRKernel *Kernel = nullptr;
  int GridDim = 1;
  int BlockDim = 32; ///< blockDim.x
  int BlockDimY = 1;
  int BlockDimZ = 1;
  uint32_t DynSharedBytes = 0;
  /// Raw parameter bits, one per kernel parameter (pointers are arena
  /// offsets from Simulator::allocGlobal).
  std::vector<uint64_t> Params;
  std::string Label;
};

/// nvprof-style metrics for one kernel of a run.
struct KernelMetrics {
  std::string Label;
  uint64_t ElapsedCycles = 0; ///< launch (cycle 0) to last block done
  double TimeMs = 0.0;
  uint64_t IssuedInsts = 0;
  double IssueSlotUtilPct = 0.0;
  double MemStallPct = 0.0;
  double AchievedOccupancyPct = 0.0;
  unsigned RegsPerThread = 0;
  uint32_t SharedBytesPerBlock = 0;
  int TheoreticalBlocksPerSM = 0;
  /// Distinct 32B sectors this kernel requested from global memory.
  uint64_t GlobalSectors = 0;
  /// Share of those sectors served by the L2 model (0 without
  /// SimConfig::ModelL2).
  double L2HitRatePct = 0.0;
};

struct SimResult {
  bool Ok = false;
  std::string Error;
  /// The run was abandoned because its elapsed cycles provably exceeded
  /// its cycle budget (Ok is false; TotalCycles holds the
  /// abort cycle — always exactly the budget — and TotalIssued the
  /// instructions issued before abandoning). Distinct from a genuine
  /// simulation error: the kernel was healthy, just slower than the
  /// caller cared to measure.
  bool BudgetExceeded = false;
  /// The run was abandoned as dead- or live-locked (Ok is false). Set
  /// either by the instant detector (no eligible warps and no pending
  /// events) or by the watchdog (warps still issuing, but no scheduler
  /// macro progress — block dispatch/retire, barrier release, warp exit
  /// — for SimConfig::WatchdogCycles). TotalCycles holds the
  /// deterministic abort cycle: for the watchdog, exactly the cycle of
  /// the last macro progress plus the watchdog window.
  bool Deadlock = false;
  /// The run was abandoned because it exceeded SimConfig::WallTimeoutMs
  /// of host wall-clock time (Ok is false). Inherently
  /// non-deterministic; meant as a last-resort fence around untrusted
  /// inputs, not for measurement paths.
  bool TimedOut = false;
  /// The failure was provoked by the process-wide FaultInjector (a
  /// wedged run). Such a result is transient: caches must not memoize
  /// it, since a retry without the injected fault would succeed.
  bool FaultInjected = false;
  /// The run was abandoned because the request's CancellationToken
  /// fired (Ok is false). Like TimedOut this is a lifecycle abort, not
  /// a property of the kernel — transient by nature, never memoized or
  /// persisted, and the partial TotalCycles/TotalIssued only say how
  /// far the run got before it noticed. A run gated by an
  /// IncumbentFence whose seed failed ends the same way.
  bool Cancelled = false;
  /// Makespan: cycle when the last kernel finished ("elapsed time after
  /// the first kernel launches and before the second kernel finishes").
  uint64_t TotalCycles = 0;
  double TotalMs = 0.0;
  std::vector<KernelMetrics> Kernels;
  // Device-wide aggregates over the whole run.
  double DeviceIssueSlotUtilPct = 0.0;
  double DeviceMemStallPct = 0.0;
  double DeviceOccupancyPct = 0.0;
  uint64_t TotalIssued = 0;
  /// Per-warp stall-reason sample shares (percent of all stall samples):
  /// exec-dependency, memory-dependency, barrier, pipe-busy,
  /// memory-throttle, not-selected.
  double StallSharePct[6] = {0, 0, 0, 0, 0, 0};
};

/// How much profiling bookkeeping a run performs. Timing (cycle counts,
/// issued instructions) is bit-identical across levels.
enum class StatsLevel : uint8_t {
  /// Completion cycles and issue counts only: no stall-reason sampling,
  /// no active-warp/occupancy integration, no per-launch memory-traffic
  /// accounting. The cheap mode for callers that only need
  /// TotalCycles.
  Minimal,
  /// Everything: nvprof-style stall shares, achieved occupancy,
  /// issue-slot utilization, per-launch sector traffic and L2 hit rate.
  Full,
};

struct SimConfig {
  GpuArch Arch;
  /// SMs actually simulated; bandwidth is scaled accordingly.
  int SimSMs = 4;
  /// Model the device-wide L2 data cache (GpuArch::L2Bytes, scaled by
  /// SimSMs/NumSMs like bandwidth). Off by default: the paper's shapes
  /// were calibrated against the DRAM-only model, and the
  /// `bench_ablation_cache` study quantifies what the cache changes.
  bool ModelL2 = false;
  /// Safety valve against runaway/deadlocked simulations.
  uint64_t MaxCycles = 400ull * 1000 * 1000;
  /// Watchdog window in cycles; 0 = disabled. The run is abandoned with
  /// SimResult::Deadlock when no scheduler macro progress (block
  /// dispatch/retire, barrier release, warp exit) happens for this many
  /// cycles — catching livelocks (e.g. spin loops polling a value a
  /// wedged producer never writes) that the instant no-pending-events
  /// detector cannot see and that would otherwise burn MaxCycles. The
  /// abort point is deterministic: exactly the last-progress cycle plus
  /// the window (idle fast-forward clamps to it, as to a cycle budget).
  /// Healthy runs make macro progress orders of magnitude more often
  /// than any sane window, so schedules are untouched; when idle the
  /// watchdog costs one compare per simulated cycle.
  uint64_t WatchdogCycles = 0;
  /// Wall-clock timeout in milliseconds; 0 = disabled. Checked every
  /// few thousand scheduler iterations; aborts the run with
  /// SimResult::TimedOut. Non-deterministic by nature — a fence for
  /// untrusted inputs, never for measurement.
  uint64_t WallTimeoutMs = 0;
  /// Cooperative cancellation for the request this run belongs to.
  /// Polled at the loop top on its own iteration counter (so installing
  /// a token never shifts the wall-timeout/heartbeat cadences golden
  /// tests pin), at the same coarse cadence as WallTimeoutMs. A fired
  /// token aborts the run with SimResult::Cancelled at the next check.
  /// An empty token (the default) is one branch per run and can never
  /// fire.
  CancellationToken Cancel;
};

/// The cycle budget of one run: a fixed number of cycles, or an
/// IncumbentFence the run either publishes its progress into (the
/// seed, which runs unbudgeted) or is gated by (a follower, whose
/// budget is the cycle count the fence resolves to).
struct RunBudget {
  /// Fixed cycle budget for branch-and-bound search sweeps; 0 =
  /// unlimited. Ignored when Fence is set. The simulator abandons a run
  /// the moment its elapsed cycles provably exceed the budget — i.e.
  /// some kernel is still running at the budget cycle, so TotalCycles
  /// would come out strictly greater — and reports
  /// SimResult::BudgetExceeded instead of a full result. A run whose
  /// true TotalCycles is <= the budget completes normally and is
  /// bit-identical to an unbudgeted run: idle fast-forward clamps to the
  /// budget (making the abort point deterministic at exactly the budget
  /// cycle) but never alters the schedule of a run that finishes in
  /// time.
  uint64_t Cycles = 0;
  IncumbentFence *Fence = nullptr;
  /// Publish into Fence instead of being gated by it.
  bool Seed = false;

  static RunBudget fixed(uint64_t Cycles) { return {Cycles, nullptr, false}; }
  static RunBudget seed(IncumbentFence &F) { return {0, &F, true}; }
  static RunBudget gated(IncumbentFence &F) { return {0, &F, false}; }
  bool isGated() const { return Fence && !Seed; }
};

/// Owns the global-memory arena and runs kernel launches to completion.
/// Allocate buffers, fill them via globalMem(), run(), read results.
class Simulator {
public:
  explicit Simulator(SimConfig Config);
  ~Simulator();

  /// Reserves \p Bytes of device memory (64-byte aligned); returns the
  /// arena offset to pass as a pointer parameter. The arena is sized to
  /// cover every reservation by the next globalMem() or run(), so a
  /// set-up that reserves all its buffers before filling them never
  /// copies a filled buffer into a larger one.
  uint64_t allocGlobal(size_t Bytes);

  /// The arena, zero-filled up to the last reservation.
  std::vector<uint8_t> &globalMem();

  /// Runs all launches concurrently (one stream per launch), to
  /// completion, at StatsLevel::Full. May be called repeatedly; the
  /// arena persists, the machine state resets each run.
  SimResult run(const std::vector<KernelLaunch> &Launches);

  /// Same, at stats level \p Stats. Cycle counts do not depend on the
  /// level.
  SimResult run(const std::vector<KernelLaunch> &Launches, StatsLevel Stats);

  /// Same, under \p Budget. A gated run returns exactly what run() under
  /// the fixed budget the fence resolves to would return; one whose
  /// fence fails aborts as Cancelled ("incumbent seed failed"). Host
  /// time a gated run spends blocked on its fence is added to
  /// \p FenceWaitMs (when non-null) and is not charged to
  /// SimConfig::WallTimeoutMs.
  SimResult run(const std::vector<KernelLaunch> &Launches, StatsLevel Stats,
                const RunBudget &Budget, double *FenceWaitMs = nullptr);

private:
  struct Impl;
  std::unique_ptr<Impl> P;
};

} // namespace hfuse::gpusim

#endif // HFUSE_GPUSIM_SIMULATOR_H
