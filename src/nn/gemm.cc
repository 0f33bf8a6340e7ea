#include "nn/gemm.h"

#include <cmath>
#include <type_traits>

#ifdef __AVX512F__
#include <immintrin.h>
#endif

#include "common/stopwatch.h"
#include "nn/workspace.h"
#include "obs/metrics.h"

namespace cews::nn::gemm {

namespace {

/// Packs all n columns of the operand (rows x cols walks) into `packed`,
/// recording the time into the gemm.pack_ns counter.
void PackPanel(const float* src, const Walk& rows, const Walk& cols, Index n,
               float* packed) {
  static obs::Counter* const pack_ns = obs::GetCounter("gemm.pack_ns");
  const uint64_t t0 = Stopwatch::NowNs();
  for (Index c0 = 0; c0 < n; c0 += kNr) {
    PackTile(src, rows, cols, c0, std::min<Index>(kNr, n - c0),
             packed + rows.n[0] * rows.n[1] * rows.n[2] * c0);
  }
  pack_ns->Add(Stopwatch::NowNs() - t0);
}

}  // namespace

void PackTile(const float* src, const Walk& rows, const Walk& cols, Index c0,
              Index w, float* tile) {
  // Column offsets: the digits of c0, then stepped with carries (no
  // division per column).
  Index col[kNr];
  Index ca = c0 / (cols.n[1] * cols.n[2]), cb = c0 / cols.n[2] % cols.n[1],
        cc = c0 % cols.n[2];
  bool adjacent = true;
  for (Index t = 0; t < w; ++t) {
    col[t] = ca * cols.s[0] + cb * cols.s[1] + cc * cols.s[2];
    adjacent = adjacent && col[t] == col[0] + t;
    if (++cc < cols.n[2]) continue;
    cc = 0;
    if (++cb < cols.n[1]) continue;
    cb = 0;
    ++ca;
  }
#ifdef __AVX512F__
  // Non-adjacent columns are gathered 16 lanes at a time on 32-bit offsets;
  // a tile whose offsets do not fit in int32_t keeps the scalar loop.
  alignas(64) int32_t off[kNr] = {};
  bool gather = !adjacent;
  for (Index t = 0; gather && t < w; ++t) {
    off[t] = static_cast<int32_t>(col[t]);
    gather = gather && off[t] == col[t];
  }
  const __m512i off_lo = _mm512_load_si512(off);
  const __m512i off_hi = _mm512_load_si512(off + 16);
  const Index w_hi = std::max<Index>(w - 16, 0);
  const auto m_lo = static_cast<__mmask16>((1u << (w - w_hi)) - 1);
  const auto m_hi = static_cast<__mmask16>((1u << w_hi) - 1);
#endif
  for (Index a = 0; a < rows.n[0]; ++a) {
    for (Index b = 0; b < rows.n[1]; ++b) {
      const float* base = src + a * rows.s[0] + b * rows.s[1];
      for (Index c = 0; c < rows.n[2]; ++c, tile += w) {
        const float* row = base + c * rows.s[2];
        if (adjacent) {
          const float* from = row + col[0];
          for (Index t = 0; t < w; ++t) tile[t] = from[t];
          continue;
        }
#ifdef __AVX512F__
        if (gather) {
          const __m512 zero = _mm512_setzero_ps();
          _mm512_mask_storeu_ps(
              tile, m_lo,
              _mm512_mask_i32gather_ps(zero, m_lo, off_lo, row, 4));
          _mm512_mask_storeu_ps(
              tile + 16, m_hi,
              _mm512_mask_i32gather_ps(zero, m_hi, off_hi, row, 4));
          continue;
        }
#endif
        for (Index t = 0; t < w; ++t) tile[t] = row[col[t]];
      }
    }
  }
}

namespace {

#ifdef __AVX512F__
/// Lane masks of the two 16-lane halves of a tile w <= kNr columns wide.
struct TileLanes {
  explicit TileLanes(Index w)
      : m{static_cast<__mmask16>((1u << std::min<Index>(w, 16)) - 1),
          static_cast<__mmask16>((1u << std::max<Index>(w - 16, 0)) - 1)} {}
  __mmask16 m[2];
};

/// Runs fn(rows, halves) with both as compile-time constants: rows in
/// 1..kMr, halves 1 for tiles up to 16 columns wide and 2 above.
template <typename Fn>
void WithBlockShape(Index rows, Index w, Fn&& fn) {
  auto by_rows = [&](auto halves) {
    switch (rows) {
      case 1: return fn(std::integral_constant<int, 1>{}, halves);
      case 2: return fn(std::integral_constant<int, 2>{}, halves);
      case 3: return fn(std::integral_constant<int, 3>{}, halves);
      default: return fn(std::integral_constant<int, 4>{}, halves);
    }
  };
  if (w > 16) return by_rows(std::integral_constant<int, 2>{});
  by_rows(std::integral_constant<int, 1>{});
}

/// NN register block: R rows of C (ldc apart) by the H 16-lane halves of
/// one tile, over reduction rows [l0, l1) of the panel p (rows ldp apart).
/// C is loaded, each lane runs fmaf l ascending and C is stored back;
/// masked-off lanes are never stored.
template <int R, int H>
void NNBlock(Index l0, Index l1, const float* a, Index rsa, Index csa,
             const float* p, Index ldp, TileLanes lanes, float* c,
             Index ldc) {
  __m512 acc[R][H];
  #pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    #pragma GCC unroll 4
    for (int h = 0; h < H; ++h) {
      acc[r][h] = _mm512_maskz_loadu_ps(lanes.m[h], c + r * ldc + 16 * h);
    }
  }
  for (Index l = l0; l < l1; ++l) {
    __m512 pv[H];
    #pragma GCC unroll 4
    for (int h = 0; h < H; ++h) {
      pv[h] = _mm512_maskz_loadu_ps(lanes.m[h], p + l * ldp + 16 * h);
    }
    #pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * rsa + l * csa]);
      #pragma GCC unroll 4
      for (int h = 0; h < H; ++h) {
        acc[r][h] = _mm512_fmadd_ps(av, pv[h], acc[r][h]);
      }
    }
  }
  #pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    #pragma GCC unroll 4
    for (int h = 0; h < H; ++h) {
      _mm512_mask_storeu_ps(c + r * ldc + 16 * h, lanes.m[h], acc[r][h]);
    }
  }
}

/// NT register block: R rows of X (ldx apart) against the H halves of one
/// k-row panel tile. Each lane is a fresh accumulator filled j ascending
/// and added to C once.
template <int R, int H>
void NTBlock(Index k, const float* x, Index ldx, const float* p, Index ldp,
             TileLanes lanes, float* c, Index ldc) {
  __m512 acc[R][H];
  #pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    #pragma GCC unroll 4
    for (int h = 0; h < H; ++h) acc[r][h] = _mm512_setzero_ps();
  }
  for (Index j = 0; j < k; ++j) {
    __m512 pv[H];
    #pragma GCC unroll 4
    for (int h = 0; h < H; ++h) {
      pv[h] = _mm512_maskz_loadu_ps(lanes.m[h], p + j * ldp + 16 * h);
    }
    #pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m512 xv = _mm512_set1_ps(x[r * ldx + j]);
      #pragma GCC unroll 4
      for (int h = 0; h < H; ++h) {
        acc[r][h] = _mm512_fmadd_ps(xv, pv[h], acc[r][h]);
      }
    }
  }
  #pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    #pragma GCC unroll 4
    for (int h = 0; h < H; ++h) {
      float* crow = c + r * ldc + 16 * h;
      _mm512_mask_storeu_ps(
          crow, lanes.m[h],
          _mm512_add_ps(_mm512_maskz_loadu_ps(lanes.m[h], crow), acc[r][h]));
    }
  }
}
#endif

/// NNRows over B read either from a packed panel (ldb == 0: tile c0 at
/// k*c0, rows w apart) or in place (tile c0 at b + c0, rows ldb apart).
void NNTiles(Index i0, Index i1, Index n, Index k, const float* a, Index rsa,
             Index csa, const float* b, Index ldb, float* c, Index ldc) {
  for (Index l0 = 0; l0 < k; l0 += kKc) {
    const Index l1 = std::min(k, l0 + kKc);
    for (Index c0 = 0; c0 < n; c0 += kNr) {
      const Index w = std::min<Index>(kNr, n - c0);
      const float* tile = ldb == 0 ? b + k * c0 : b + c0;
      const Index ldp = ldb == 0 ? w : ldb;
#ifdef __AVX512F__
      // Every row block, full or not, keeps C in registers for the whole
      // l0..l1 slab; the slab (at most 16 KiB packed) stays L1-resident
      // across the row loop.
      const TileLanes lanes(w);
      for (Index i = i0; i < i1; i += kMr) {
        WithBlockShape(std::min(kMr, i1 - i), w, [&](auto rows, auto halves) {
          NNBlock<rows, halves>(l0, l1, a + i * rsa, rsa, csa, tile, ldp,
                                lanes, c + i * ldc + c0, ldc);
        });
      }
#else
      Index i = i0;
      if (w == kNr) {
        // Full tile: kMr x kNr register block. The l0..l1 slab of the panel
        // (16 KiB) stays L1-resident across the whole row loop; C tiles are
        // loaded once per (row block, l block) and stored back — an exact
        // roundtrip, so the per-element add sequence matches the in-memory
        // accumulation of the reference kernel.
        for (; i + kMr <= i1; i += kMr) {
          float acc[kMr][kNr];
          for (Index r = 0; r < kMr; ++r) {
            const float* crow = c + (i + r) * ldc + c0;
            for (Index t = 0; t < kNr; ++t) acc[r][t] = crow[t];
          }
          for (Index l = l0; l < l1; ++l) {
            const float* p = tile + l * ldp;
            for (Index r = 0; r < kMr; ++r) {
              const float av = a[(i + r) * rsa + l * csa];
              for (Index t = 0; t < kNr; ++t)
                acc[r][t] = std::fmaf(av, p[t], acc[r][t]);
            }
          }
          for (Index r = 0; r < kMr; ++r) {
            float* crow = c + (i + r) * ldc + c0;
            for (Index t = 0; t < kNr; ++t) crow[t] = acc[r][t];
          }
        }
      }
      // Edge rows of a full tile, and every row of a ragged tile.
      for (; i < i1; ++i) {
        float acc[kNr];
        float* crow = c + i * ldc + c0;
        for (Index t = 0; t < w; ++t) acc[t] = crow[t];
        for (Index l = l0; l < l1; ++l) {
          const float av = a[i * rsa + l * csa];
          const float* p = tile + l * ldp;
          for (Index t = 0; t < w; ++t) acc[t] = std::fmaf(av, p[t], acc[t]);
        }
        for (Index t = 0; t < w; ++t) crow[t] = acc[t];
      }
#endif
    }
  }
}

}  // namespace

void NNRows(Index i0, Index i1, Index n, Index k, const float* a, Index rsa,
            Index csa, const float* packed, float* c, Index ldc) {
  NNTiles(i0, i1, n, k, a, rsa, csa, packed, /*ldb=*/0, c, ldc);
}

void NTRows(Index i0, Index i1, Index n, Index k, const float* x, Index ldx,
            const float* packed, float* c, Index ldc) {
  for (Index c0 = 0; c0 < n; c0 += kNr) {
    const Index w = std::min<Index>(kNr, n - c0);
    const float* tile = packed + k * c0;
#ifdef __AVX512F__
    // Fresh accumulators per element; the j loop is never split, so each
    // element is the same single serial dot product the reference computes,
    // with up to kMr x kNr of them in flight at once.
    const TileLanes lanes(w);
    for (Index i = i0; i < i1; i += kMr) {
      WithBlockShape(std::min(kMr, i1 - i), w, [&](auto rows, auto halves) {
        NTBlock<rows, halves>(k, x + i * ldx, ldx, tile, w, lanes,
                              c + i * ldc + c0, ldc);
      });
    }
#else
    Index i = i0;
    if (w == kNr) {
      for (; i + kMr <= i1; i += kMr) {
        // Fresh accumulators per element; the j loop is never split, so each
        // element is the same single serial dot product the reference
        // computes — just kMr x kNr of them in flight at once.
        float acc[kMr][kNr] = {};
        for (Index j = 0; j < k; ++j) {
          const float* p = tile + j * kNr;
          for (Index r = 0; r < kMr; ++r) {
            const float xv = x[(i + r) * ldx + j];
            for (Index t = 0; t < kNr; ++t)
              acc[r][t] = std::fmaf(xv, p[t], acc[r][t]);
          }
        }
        for (Index r = 0; r < kMr; ++r) {
          float* crow = c + (i + r) * ldc + c0;
          for (Index t = 0; t < kNr; ++t) crow[t] += acc[r][t];
        }
      }
    }
    for (; i < i1; ++i) {
      float acc[kNr] = {};
      const float* xrow = x + i * ldx;
      for (Index j = 0; j < k; ++j) {
        const float xv = xrow[j];
        const float* p = tile + j * w;
        for (Index t = 0; t < w; ++t) acc[t] = std::fmaf(xv, p[t], acc[t]);
      }
      float* crow = c + i * ldc + c0;
      for (Index t = 0; t < w; ++t) crow[t] += acc[t];
    }
#endif
  }
}

void GemmNN(Index m, Index n, Index k, const float* a, Index rsa, Index csa,
            const float* b, Index ldb, float* c, Index ldc,
            float* pack_scratch) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  // With at most one row block, each panel tile would be read once: B is
  // read in place instead. A pack writes all k*n panel floats, so caller
  // scratch needs no zeroing.
  const bool pack = m > kMr;
  ScopedVec packed(pack && pack_scratch == nullptr ? k * n : 0);
  float* pp = pack_scratch != nullptr ? pack_scratch : packed.data();
  if (pack) {
    PackPanel(b, Walk{{1, 1, k}, {0, 0, ldb}}, Walk{{1, 1, n}, {0, 0, 1}}, n,
              pp);
  }
  const float* p = pack ? pp : b;
  const Index ldp = pack ? 0 : ldb;
  ParallelKernel(m, 2 * k * n, [&](Index r0, Index r1) {
    NNTiles(r0, r1, n, k, a, rsa, csa, p, ldp, c, ldc);
  });
}

void GemmNT(Index m, Index n, Index k, const float* x, Index ldx,
            const float* y, Index ldy, float* c, Index ldc,
            float* pack_scratch) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  ScopedVec packed(pack_scratch != nullptr ? 0 : k * n);
  float* pp = pack_scratch != nullptr ? pack_scratch : packed.data();
  PackPanel(y, Walk{{1, 1, k}, {0, 0, 1}}, Walk{{1, 1, n}, {0, 0, ldy}}, n,
            pp);
  const float* p = pp;
  ParallelKernel(m, 2 * k * n, [&](Index r0, Index r1) {
    NTRows(r0, r1, n, k, x, ldx, p, c, ldc);
  });
}

namespace reference {

void GemmNN(Index m, Index n, Index k, const float* a, Index rsa, Index csa,
            const float* b, Index ldb, float* c, Index ldc) {
  // Verbatim structure of the pre-packing MatMulRowsKernel: k tiled at 64
  // so a slab of B rows stays cache-resident, zero-skip on A operands,
  // per-element accumulation l ascending directly into C.
  constexpr Index kLTile = 64;
  for (Index l0 = 0; l0 < k; l0 += kLTile) {
    const Index l1 = std::min(k, l0 + kLTile);
    for (Index i = 0; i < m; ++i) {
      float* crow = c + i * ldc;
      for (Index l = l0; l < l1; ++l) {
        const float av = a[i * rsa + l * csa];
        if (av == 0.0f) continue;
        const float* brow = b + l * ldb;
        for (Index j = 0; j < n; ++j) crow[j] = std::fmaf(av, brow[j], crow[j]);
      }
    }
  }
}

void GemmNT(Index m, Index n, Index k, const float* x, Index ldx,
            const float* y, Index ldy, float* c, Index ldc) {
  // Verbatim structure of the pre-packing dA/dW loops: one scalar
  // j-ascending dot per output element, added to C once.
  for (Index i = 0; i < m; ++i) {
    const float* xrow = x + i * ldx;
    for (Index l = 0; l < n; ++l) {
      const float* yrow = y + l * ldy;
      float dot = 0.0f;
      for (Index j = 0; j < k; ++j) dot = std::fmaf(xrow[j], yrow[j], dot);
      c[i * ldc + l] += dot;
    }
  }
}

}  // namespace reference

}  // namespace cews::nn::gemm
