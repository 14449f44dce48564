//===-- transform/Fusion.h - Horizontal & vertical kernel fusion -*- C++ -*-===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The HFuse transformations. `fuseHorizontalMany` implements the
/// paper's Generate() algorithm (Figure 5) for N >= 2 kernels: the fused
/// kernel partitions its thread space into consecutive ranges, one per
/// input kernel ([0,D1) for kernel 1, [D1,D1+D2) for kernel 2, ...),
/// recomputes per-kernel threadIdx/blockDim in a prologue, replaces
/// __syncthreads() with partial `bar.sync` barriers, and guards each
/// input kernel's statements with thread-range branches. A pair is the
/// paper's case. `fuseVertical` implements the standard baseline: one
/// thread executes both kernels' statements back to back, barriers
/// untouched.
///
/// Inputs must be *preprocessed* kernels (see Pipeline.h): device calls
/// inlined and local declarations lifted to the top of the body.
///
//===----------------------------------------------------------------------===//

#ifndef HFUSE_TRANSFORM_FUSION_H
#define HFUSE_TRANSFORM_FUSION_H

#include "cudalang/AST.h"
#include "support/Diagnostics.h"
#include "support/Status.h"

#include <string>

namespace hfuse::transform {

/// Result of the vertical fusion baseline. The fused function lives in
/// the target ASTContext passed to the fuser and is appended to its
/// translation unit. Parameters are the two input kernels' parameters
/// concatenated (kernel 1 first), renamed where they collided.
struct FusionResult {
  cuda::FunctionDecl *Fused = nullptr;
  bool Ok = false;
  unsigned NumParams1 = 0;
  unsigned NumParams2 = 0;
  /// Which input kernels use extern (dynamic) shared memory. At most one
  /// may; the fused kernel forwards its whole dynamic allocation to it.
  bool ExternShared1 = false;
  bool ExternShared2 = false;
  /// Full barriers of each input kernel (0 when none were present).
  unsigned NumBarriers1 = 0;
  unsigned NumBarriers2 = 0;
};

/// Vertically fuses two preprocessed kernels (the standard baseline):
/// thread t runs K1's statements, then K2's. Both kernels must be
/// launched with identical grid/block dimensions for this to be
/// meaningful; barrier semantics are preserved because all threads of
/// the block participate in every barrier.
FusionResult fuseVertical(cuda::ASTContext &Target,
                          const cuda::FunctionDecl *K1,
                          const cuda::FunctionDecl *K2,
                          const std::string &FusedName,
                          DiagnosticEngine &Diags);

/// Result of a horizontal fusion. The paper fuses pairs; the PTX
/// barrier-id space allows up to 15 thread partitions per block. The
/// fused function lives in the target ASTContext and is appended to its
/// translation unit. Parameters are the input kernels' parameters
/// concatenated in kernel order, renamed where they collided.
struct MultiFusionResult {
  cuda::FunctionDecl *Fused = nullptr;
  bool Ok = false;
  /// Structured form of the failure when !Ok (ok() on success), so
  /// search pipelines can retire a bad candidate into their Failed
  /// ledger instead of parsing diagnostics: validation rejections
  /// (too many kernels for the PTX barrier-id space, block > 1024,
  /// non-warp-multiple partition, shape mismatch) and codegen
  /// problems all carry ErrorCode::FusionUnsupported.
  Status Err;
  /// Partition sizes, in kernel order.
  std::vector<int> Dims;
  /// Parameter count contributed by each input kernel, in order.
  std::vector<unsigned> NumParams;
  /// Barriers of each input kernel, in order (0 when none were
  /// present): rewritten to partial barriers, or kept as full ones.
  std::vector<unsigned> NumBarriers;
  /// Which input kernel (if any) uses extern shared memory.
  int ExternSharedKernel = -1;
};

/// Horizontally fuses N >= 2 preprocessed kernels: kernel k's threads
/// occupy [prefix_k, prefix_k + Dims[k]) of the fused block and its
/// barriers become `bar.sync k+1, Dims[k]`. Each kernel's statements are
/// guarded by one-sided thread-range branches: skip past the kernel when
/// `threadIdx.x >= prefix_k + Dims[k]` (all but the last kernel) and when
/// `threadIdx.x < prefix_k` (all but the first). The prologue declares
/// `tid` and, per kernel, `tid_k = threadIdx.x - prefix_k` and its
/// thread map (`size_k`, or the Figure 4 multi-dimensional variables). A
/// pair keeps the Figure 5 order, every `tid_k` before the thread maps
/// (`tid, tid_1, tid_2, size_1, size_2`); three or more kernels
/// interleave them (`tid, tid_1, size_1, tid_2, size_2, ...`).
/// \p Shapes optionally gives each kernel's (.y, .z) block extents: kernel
/// k's partition of Dims[k] threads then forms a
/// Dims[k]/(Y*Z) x Y x Z block, as in the paper's Figure 4 prologue,
/// where kernel 1's 896 threads form a 56x16 block. Empty means every
/// kernel is one-dimensional. \p UsePartialBarriers = false is an
/// ablation: __syncthreads() stays a full barrier, which is what a naive
/// fusion without the paper's section III-A treatment would do.
/// Functionally unsafe in general; measured by bench_ablation_barrier.
MultiFusionResult fuseHorizontalMany(
    cuda::ASTContext &Target,
    const std::vector<const cuda::FunctionDecl *> &Kernels,
    const std::vector<int> &Dims, const std::string &FusedName,
    DiagnosticEngine &Diags,
    const std::vector<std::pair<int, int>> &Shapes = {},
    bool UsePartialBarriers = true);

} // namespace hfuse::transform

#endif // HFUSE_TRANSFORM_FUSION_H
