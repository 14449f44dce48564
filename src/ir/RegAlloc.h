//===-- ir/RegAlloc.h - Linear-scan register allocation ---------*- C++ -*-===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Register allocation for SASS-lite kernels: block-level liveness, live
/// intervals, linear scan, and spill-code insertion under a register
/// bound. This models what `ptxas -maxrregcount` does in the paper: a
/// bound below the kernel's natural register demand trades register
/// pressure (and therefore occupancy, see gpusim/Occupancy.h) for local-
/// memory spill traffic — the exact trade-off HFuse's configuration
/// search explores (paper §III-B, "Limit Register Usage for Occupancy").
///
/// 64-bit virtual registers count as two architectural registers, like
/// real register pairs. The reported per-thread register count includes
/// a fixed overhead constant, mimicking ptxas bookkeeping registers.
///
//===----------------------------------------------------------------------===//

#ifndef HFUSE_IR_REGALLOC_H
#define HFUSE_IR_REGALLOC_H

#include "ir/IR.h"

#include <string>

namespace hfuse::ir {

/// Architectural registers reported on top of allocated ones (system /
/// bookkeeping registers that ptxas also reserves).
inline constexpr unsigned RegOverhead = 8;

/// Scratch registers reserved for spill reloads (3 sources + 1 dest).
inline constexpr unsigned SpillScratchRegs = 4;

struct RegAllocResult {
  bool Ok = false;
  std::string Error;
  /// Storage slots in the per-thread register file after allocation.
  unsigned NumSlots = 0;
  /// Architectural 32-bit registers per thread (incl. RegOverhead).
  unsigned ArchRegs = 0;
  /// Virtual registers spilled to local memory.
  unsigned NumSpilled = 0;
  /// Bytes of local memory added for spills. Spills whose live
  /// intervals do not overlap share an 8-byte slot, so this can be far
  /// below NumSpilled * 8.
  unsigned SpillBytes = 0;
};

/// Allocates registers for \p K in place: rewrites all register operands
/// from virtual registers to storage slots, inserts spill code if
/// \p MaxArchRegs (0 = unbounded) is below the kernel's demand, updates
/// K.NumRegs / K.ArchRegsPerThread / K.LocalBytes, and re-linearizes.
/// Parameter registers are never spilled.
RegAllocResult allocateRegisters(IRKernel &K, unsigned MaxArchRegs = 0);

} // namespace hfuse::ir

#endif // HFUSE_IR_REGALLOC_H
