// cews::nn::gemm — packed, cache-blocked, SIMD-friendly GEMM micro-kernels.
//
// Every hot dense product in the NN substrate routes through the two kernel
// shapes below; together they cover MatMul forward (C = A·B), both MatMul
// backward products (dA = dC·Bᵀ, dB = Aᵀ·dC) and the Conv2d products
// (forward, dW, dX), whose panels PackTile gathers from a staged input.
//
//  * NN ("axpy" accumulation): C[i, j] += Σ_l A[i, l] · B[l, j], where the
//    per-element accumulation order is l ascending and C is accumulated in
//    place. Because the partial sums live in C (or in registers that are
//    stored back and reloaded exactly), the reduction may be blocked over l
//    (Kc tiling) without changing a single bit.
//  * NT ("dot" accumulation): C[i, l] += Σ_j X[i, j] · Y[l, j], where each
//    element's dot product is a single fresh accumulator filled j ascending
//    and added to C once. Splitting the j loop would reassociate the sum, so
//    the NT kernel never blocks the reduction dimension.
//
// Bitwise-determinism contract (extends PR 1's any-thread-count contract):
// packing, register tiling (kMr x kNr), Kc blocking (NN only) and row
// partitioning all change *which* memory the operands stream from and which
// rows a thread owns — never the per-element floating-point operation
// sequence. That sequence is pinned in source: every multiply-accumulate is
// an explicit std::fmaf (one rounding), so the compiler's per-loop-shape
// contraction choice cannot silently diverge between kernels — GCC at -O3
// contracts `acc += a * b` to an FMA in some loop shapes (the old axpy
// kernels) but not others (the old dot-product reductions). Packed results
// are therefore bitwise identical to the retained reference kernels below
// for finite inputs, at any thread count; verified by tests/nn_gemm_test.cc.
// The one intentional semantic change: the old
// kernels skipped A-operands that were exactly 0.0f; the packed kernels
// multiply through, which adds ±0 contributions — bitwise neutral for
// finite B (and for C accumulators, which can never become -0.0 by
// round-to-nearest addition).
//
// Packed-panel layout (shared by both kernels): the B/Y operand is packed
// into column tiles of width kNr. For the tile covering output columns
// [c0, c0+w), w = min(kNr, n-c0), the tile starts at offset k*c0 and stores
// element (l, c0+t) at tile[l*w + t]. A full pack is therefore exactly k*n
// floats, and the kernels' inner loops read it with unit stride. GemmNN
// skips the pack when A has at most kMr rows (one row block reads each
// tile once) and runs the same kernel on B in place at row stride ldb.
//
// Register blocking: on AVX-512 builds every block of up to kMr rows by one
// tile of any width w <= kNr keeps its accumulators in registers, as two
// 16-lane zmm halves per row whose lanes past w are masked off (never
// stored; a tile of at most 16 columns runs one half). Full 4 x 32 blocks,
// leftover rows and ragged tiles all run this one block, so a shape like
// the quick-scale trunk's (oc = 4/6, ck2 = 27/36/54) never drops to a
// one-row serial loop. Other ISAs keep plain loops: a 4 x 32 array block
// for full tiles and one row at a time for the rest. Either way each
// element's operation sequence is the one above.
#ifndef CEWS_NN_GEMM_H_
#define CEWS_NN_GEMM_H_

#include <algorithm>
#include <cstdint>

#include "common/thread_pool.h"
#include "nn/tensor.h"

namespace cews::nn::gemm {

/// Register-tile width in output columns (floats). 32 = two AVX-512 (or
/// four AVX2) accumulator vectors per row.
inline constexpr Index kNr = 32;

/// Register-tile height in output rows. kMr * kNr/16 = 8 independent FMA
/// chains per loop step — enough to hide FMA latency on current x86. Blocks
/// of 1..kMr rows and tiles narrower than kNr run the same register block
/// with fewer chains (AVX-512).
inline constexpr Index kMr = 4;

/// Reduction-dimension block for the NN kernel: a kKc x kNr panel slab is
/// 16 KiB, L1-resident while the row loop streams over it. (The NT kernel
/// must not block its reduction; see file comment.)
inline constexpr Index kKc = 128;

/// Parallelizes [0, n) over the global cews::runtime pool when the total
/// kernel cost (roughly `flops_per_index * n`) justifies the dispatch
/// overhead; otherwise runs inline. The grain is sized so every claimed
/// chunk carries at least the dispatch-amortizing minimum of work, which
/// keeps tiny-row kernels from degenerating into per-index task churn.
/// Threshold and grain pick scheduling only — by the thread-pool contract
/// (chunks never change what a body invocation computes) they cannot change
/// any result.
template <typename Fn>
void ParallelKernel(Index n, Index flops_per_index, Fn&& fn) {
  constexpr Index kMinFlops = 16 * 1024;
  runtime::ThreadPool& pool = runtime::GlobalPool();
  const Index per = std::max<Index>(flops_per_index, 1);
  if (n <= 1 || pool.num_threads() <= 1 || n * per < kMinFlops) {
    fn(Index{0}, n);
    return;
  }
  const Index grain = std::clamp<Index>(kMinFlops / per, 1, n);
  pool.ParallelFor(0, n, grain, [&fn](int64_t begin, int64_t end) {
    fn(static_cast<Index>(begin), static_cast<Index>(end));
  });
}

/// Offsets of a 3-level index space: index (a, b, c), flat index
/// (a*n[1] + b)*n[2] + c, lies at a*s[0] + b*s[1] + c*s[2]. The rows and
/// columns of a panel operand are two walks over its source: plain strides
/// for a matrix, taps and output pixels for a conv's input.
struct Walk {
  Index n[3], s[3];
};

/// The panel writer: writes the tile of operand columns [c0, c0 + w),
/// w <= kNr, of B[l, j] = src[(offset of row l) + (offset of column j)]
/// (tile[l*w + t] = B[l, c0 + t]). A tile whose columns are adjacent in src
/// is copied row by row; any other is gathered, with two masked 16-lane
/// vector gathers per row on AVX-512 builds (scalar elsewhere, or when a
/// column offset does not fit in int32_t). Either way it only copies.
void PackTile(const float* src, const Walk& rows, const Walk& cols, Index c0,
              Index w, float* tile);

/// NN kernel over rows [i0, i1): C[i, 0..n) += A_row_i · B using a packed B
/// panel. A is read at a[i*rsa + l*csa] (pass rsa=k, csa=1 for a plain
/// row-major A; rsa=1, csa=lda for a transposed read). C (row stride ldc)
/// must be pre-initialized; accumulation per element is l ascending. Per
/// Kc slab and tile, each block of up to kMr rows loads its C block, runs
/// fmaf l ascending and stores it back (masked lanes for a ragged tile on
/// AVX-512; see file comment).
void NNRows(Index i0, Index i1, Index n, Index k, const float* a, Index rsa,
            Index csa, const float* packed, float* c, Index ldc);

/// NT kernel over rows [i0, i1): C[i, 0..n) += X_row_i · Yᵀ using a packed
/// Yᵀ panel. Each output element is one fresh j-ascending dot accumulator
/// added to C once; each block of up to kMr rows by one tile (masked lanes
/// for a ragged tile on AVX-512) keeps those accumulators in registers.
void NTRows(Index i0, Index i1, Index n, Index k, const float* x, Index ldx,
            const float* packed, float* c, Index ldc);

/// Convenience wrapper: C (m x n, ldc) += A (m x k, strides rsa/csa) ·
/// B (k x n, ldb). For m > kMr, packs B into `pack_scratch` when given (k*n
/// floats, fully overwritten — callers with planner-assigned arenas pass it
/// to skip the workspace), otherwise into the per-thread workspace; for
/// m <= kMr it reads B in place and leaves `pack_scratch` untouched. Then
/// runs the NN kernel over the pool (rows partitioned; results independent
/// of thread count and of whether B was packed).
void GemmNN(Index m, Index n, Index k, const float* a, Index rsa, Index csa,
            const float* b, Index ldb, float* c, Index ldc,
            float* pack_scratch = nullptr);

/// Convenience wrapper: C (m x n, ldc) += X (m x k, ldx) · Y (n x k, ldy)ᵀ.
/// `pack_scratch` as in GemmNN (k*n floats).
void GemmNT(Index m, Index n, Index k, const float* x, Index ldx,
            const float* y, Index ldy, float* c, Index ldc,
            float* pack_scratch = nullptr);

/// The pre-packing scalar kernels, retained (loop structure verbatim,
/// multiply-accumulates spelled as std::fmaf like the packed kernels) as the
/// bitwise spec the packed kernels are tested against (tests/nn_gemm_test.cc)
/// and as the baseline the kernel bench sweep reports speedups over. Serial.
namespace reference {

/// The old MatMul-forward/dB/Conv2d-product loop: k-tiled axpy accumulation
/// with the zero-skip on A operands.
void GemmNN(Index m, Index n, Index k, const float* a, Index rsa, Index csa,
            const float* b, Index ldb, float* c, Index ldc);

/// The old dA/dW loop: scalar j-ascending dot products.
void GemmNT(Index m, Index n, Index k, const float* x, Index ldx,
            const float* y, Index ldy, float* c, Index ldc);

}  // namespace reference

}  // namespace cews::nn::gemm

#endif  // CEWS_NN_GEMM_H_
