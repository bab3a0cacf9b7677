#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "parallel/thread_pool.hpp"
#include "tensor/workspace.hpp"

namespace fedbiad::tensor {

namespace {

// Vector lane type for the micro-kernel, spelled with GNU vector extensions
// (GCC and Clang) so codegen is pinned: two vf lanes per tile row, FMA per
// lane, no reliance on the autovectorizer picking the right loop axis.
// 256-bit lanes when the target has them, 128-bit otherwise (SSE2, NEON).
#if defined(__GNUC__) || defined(__clang__)
#define FEDBIAD_GEMM_VECTOR 1
#if defined(__AVX2__) || defined(__AVX512F__)
typedef float vf __attribute__((vector_size(32), aligned(4), may_alias));
#else
typedef float vf __attribute__((vector_size(16), aligned(4), may_alias));
#endif
constexpr std::size_t VL = sizeof(vf) / sizeof(float);
#else
constexpr std::size_t VL = 4;  // scalar fallback tiles only
#endif

// Register tile: MR independent rows × NR accumulator lanes (two vector
// registers wide). 4×2 vector accumulators + 2 B lanes + 1 broadcast stay
// comfortably inside a 16-register vector file.
constexpr std::size_t MR = 4;
constexpr std::size_t NR = 2 * VL;

// Cache blocks: the packed KC×NC B panel (≤256 KiB) stays L2-resident while
// a row sweep streams A past it once per (jc, kc) block.
constexpr std::size_t KC = 256;
constexpr std::size_t NC = 256;

// Logical operand views. The kernels below are written against
// A(i, kk) and B(kk, j); these translate to the caller's storage.
//   ATrans: A is stored (k×m) and read transposed (the gᵀ·x kernel).
//   BTrans: B is stored (n×k) row-major and read transposed (the x·Wᵀ
//           kernel — W rows are output units).
template <bool ATrans>
inline float a_elem(const float* a, std::size_t lda, std::size_t i,
                    std::size_t kk) {
  return ATrans ? a[kk * lda + i] : a[i * lda + kk];
}

#if defined(FEDBIAD_GEMM_VECTOR)
// Half a vector: the unit in which the B packer loads its stored rows.
typedef float vh __attribute__((vector_size(sizeof(vf) / 2), aligned(4),
                                may_alias));
constexpr std::size_t HL = VL / 2;

template <std::size_t... P>
inline vf concat(vh lo, vh hi, std::index_sequence<P...> /*lanes*/) {
  return __builtin_shufflevector(lo, hi, P...);
}

/// Lane p of one output of a block swap: `Hi` = false gives the row whose
/// index has bit W clear (its own blocks with W clear, then the partner's),
/// `Hi` = true the partner row. Indices ≥ VL select from the second operand.
template <std::size_t W, bool Hi>
constexpr int swap_lane(std::size_t p) {
  if constexpr (Hi) {
    return static_cast<int>((p & W) != 0 ? VL + p : p + W);
  } else {
    return static_cast<int>((p & W) != 0 ? VL + p - W : p);
  }
}

template <std::size_t W, bool Hi, std::size_t... P>
inline vf swap_blocks(vf x, vf y, std::index_sequence<P...> /*lanes*/) {
  return __builtin_shufflevector(x, y, swap_lane<W, Hi>(P)...);
}

/// Finishes an in-register VL×VL transpose of r[0..VL). Stage W swaps the
/// two off-diagonal W×W blocks of every 2W×2W block (row bit W trades
/// places with column bit W). The stages commute, and the outermost one
/// (W = HL) is left to the caller, which does it while loading half-rows;
/// the stages here never cross a 128-bit half, so they map onto blends,
/// permutes and shufps on AVX and SSE alike.
template <std::size_t W = 1>
inline void transpose(vf* r) {
  for (std::size_t i = 0; i < VL; ++i) {
    if ((i & W) != 0) continue;
    const vf x = r[i];
    const vf y = r[i + W];
    r[i] = swap_blocks<W, false>(x, y, std::make_index_sequence<VL>{});
    r[i + W] = swap_blocks<W, true>(x, y, std::make_index_sequence<VL>{});
  }
  if constexpr (2 * W < HL) transpose<2 * W>(r);
}
#endif

/// Packs the (kcn × nc) logical B block starting at (kc, jc) into NR-wide
/// column panels: panel jp holds bp[jp*kcn*NR + kk*NR + jj] = B(kc+kk,
/// jc+jp+jj), padded with +0 to NR so the micro-kernel never branches on
/// width. Stored rows are resolved through g.rows once per panel (or per
/// panel row); `ColsGathered` reads stored columns through g.cols.
///
/// BTrans: a panel's NR stored rows are read VL columns at a time, in
/// half-vectors, and two VL×VL register transposes turn them into VL panel
/// rows; the missing rows of a partial panel enter as zeros. Only the last
/// kcn mod VL columns are copied element by element. Gathered columns are
/// copied element by element throughout: every lane is a separate load
/// either way, and building vectors lane by lane for the transposes cost
/// twice the plain copy. Otherwise a panel row is a piece of one stored
/// row, copied whole when its columns are contiguous. The pack only moves
/// bits.
template <bool BTrans, bool ColsGathered>
void pack_b(const float* b, std::size_t ldb, const Gather& g, std::size_t jc,
            std::size_t kc, std::size_t nc, std::size_t kcn, float* bp) {
  const auto stored_row = [&](std::size_t r) {
    return b + (g.rows != nullptr ? g.rows[r] : r * ldb);
  };
  for (std::size_t jp = 0; jp < nc; jp += NR) {
    const std::size_t nr = std::min(NR, nc - jp);
    float* panel = bp + jp * kcn;
    if constexpr (BTrans) {
      // Row jj's column c is src[jj][c - kc] (contiguous columns) or
      // src[jj][c] (gathered); rows past nr read a block of zeros.
      static constexpr float kZeros[KC] = {};
      const float* src[NR];
      for (std::size_t jj = 0; jj < NR; ++jj) {
        src[jj] = jj >= nr       ? kZeros
                  : ColsGathered ? stored_row(jc + jp + jj)
                                 : stored_row(jc + jp + jj) + kc;
      }
      std::size_t kk = 0;
#if defined(FEDBIAD_GEMM_VECTOR)
      for (; !ColsGathered && kk + VL <= kcn; kk += VL) {
        // Lanes [l0, l0 + HL) of stored row jj's VL columns.
        const auto half = [&](std::size_t jj, std::size_t l0) {
          return *reinterpret_cast<const vh*>(src[jj] + kk + l0);
        };
        constexpr auto lanes = std::make_index_sequence<VL>{};
        for (std::size_t h = 0; h < NR; h += VL) {
          // The W = HL swap: r[t] takes the low halves of rows t and
          // t + HL, r[t + HL] their high halves.
          vf r[VL];
          for (std::size_t t = 0; t < HL; ++t) {
            r[t] = concat(half(h + t, 0), half(h + t + HL, 0), lanes);
            r[t + HL] = concat(half(h + t, HL), half(h + t + HL, HL), lanes);
          }
          transpose(r);
          for (std::size_t t = 0; t < VL; ++t) {
            *reinterpret_cast<vf*>(panel + (kk + t) * NR + h) = r[t];
          }
        }
      }
#endif
      for (; kk < kcn; ++kk) {
        float* dst = panel + kk * NR;
        const std::size_t c = ColsGathered ? g.cols[kc + kk] : kk;
        for (std::size_t jj = 0; jj < nr; ++jj) dst[jj] = src[jj][c];
        std::fill(dst + nr, dst + NR, 0.0F);
      }
    } else {
      for (std::size_t kk = 0; kk < kcn; ++kk) {
        const float* src = stored_row(kc + kk);
        float* dst = panel + kk * NR;
        if constexpr (ColsGathered) {
          for (std::size_t jj = 0; jj < nr; ++jj) {
            dst[jj] = src[g.cols[jc + jp + jj]];
          }
        } else if (nr == NR) {
          std::memcpy(dst, src + jc + jp, NR * sizeof(float));
        } else {
          std::copy_n(src + jc + jp, nr, dst);
        }
        std::fill(dst + nr, dst + NR, 0.0F);
      }
    }
  }
}

template <bool BTrans>
void pack_block(const float* b, std::size_t ldb, const Gather& g,
                std::size_t jc, std::size_t kc, std::size_t nc,
                std::size_t kcn, float* bp) {
  if (g.cols == nullptr) {
    pack_b<BTrans, false>(b, ldb, g, jc, kc, nc, kcn, bp);
  } else {
    pack_b<BTrans, true>(b, ldb, g, jc, kc, nc, kcn, bp);
  }
}

/// Edge-tile micro-kernel: C[i0..i0+mr) × [0..nr) += A-block · B-panel for
/// partial tiles at the matrix borders. Vectorized at full NR width through
/// a zero-padded local tile: the B panel's padding lanes are zero, so lanes
/// past nr just accumulate zeros and only the live columns are copied back.
/// Narrow operands (Dense heads with a handful of classes) therefore run the
/// same FMA tile as the interior instead of degenerating to scalar code.
template <bool ATrans>
void micro_kernel_edge(std::size_t mr, std::size_t nr, std::size_t kcn,
                       const float* a, std::size_t lda, std::size_t i0,
                       std::size_t kc, const float* panel,
                       float* const* crow) {
#if defined(FEDBIAD_GEMM_VECTOR)
  float buf[MR][NR] = {};
  for (std::size_t ii = 0; ii < mr; ++ii) {
    for (std::size_t jj = 0; jj < nr; ++jj) buf[ii][jj] = crow[ii][jj];
  }
  vf acc[MR][2];
  for (std::size_t ii = 0; ii < mr; ++ii) {
    acc[ii][0] = *reinterpret_cast<const vf*>(buf[ii]);
    acc[ii][1] = *reinterpret_cast<const vf*>(buf[ii] + VL);
  }
  for (std::size_t kk = 0; kk < kcn; ++kk) {
    const float* brow = panel + kk * NR;
    const vf b0 = *reinterpret_cast<const vf*>(brow);
    const vf b1 = *reinterpret_cast<const vf*>(brow + VL);
    for (std::size_t ii = 0; ii < mr; ++ii) {
      const float av = a_elem<ATrans>(a, lda, i0 + ii, kc + kk);
      acc[ii][0] += b0 * av;
      acc[ii][1] += b1 * av;
    }
  }
  for (std::size_t ii = 0; ii < mr; ++ii) {
    *reinterpret_cast<vf*>(buf[ii]) = acc[ii][0];
    *reinterpret_cast<vf*>(buf[ii] + VL) = acc[ii][1];
    for (std::size_t jj = 0; jj < nr; ++jj) crow[ii][jj] = buf[ii][jj];
  }
#else
  float acc[MR][NR];
  for (std::size_t ii = 0; ii < mr; ++ii) {
    for (std::size_t jj = 0; jj < nr; ++jj) acc[ii][jj] = crow[ii][jj];
  }
  for (std::size_t kk = 0; kk < kcn; ++kk) {
    const float* brow = panel + kk * NR;
    for (std::size_t ii = 0; ii < mr; ++ii) {
      const float av = a_elem<ATrans>(a, lda, i0 + ii, kc + kk);
      for (std::size_t jj = 0; jj < nr; ++jj) acc[ii][jj] += av * brow[jj];
    }
  }
  for (std::size_t ii = 0; ii < mr; ++ii) {
    for (std::size_t jj = 0; jj < nr; ++jj) crow[ii][jj] = acc[ii][jj];
  }
#endif
}

/// Full-tile micro-kernel: an MR × NR register tile updated with one rank-1
/// step per kk — MR broadcast A elements against the two packed B lanes.
/// Each accumulator lane is an independent chain, so no -ffast-math is
/// needed to keep everything in FMA form.
template <bool ATrans>
void micro_kernel_full(std::size_t kcn, const float* a, std::size_t lda,
                       std::size_t i0, std::size_t kc, const float* panel,
                       float* const* crow) {
#if defined(FEDBIAD_GEMM_VECTOR)
  vf acc[MR][2];
  for (std::size_t ii = 0; ii < MR; ++ii) {
    acc[ii][0] = *reinterpret_cast<const vf*>(crow[ii]);
    acc[ii][1] = *reinterpret_cast<const vf*>(crow[ii] + VL);
  }
  for (std::size_t kk = 0; kk < kcn; ++kk) {
    const float* brow = panel + kk * NR;
    const vf b0 = *reinterpret_cast<const vf*>(brow);
    const vf b1 = *reinterpret_cast<const vf*>(brow + VL);
    for (std::size_t ii = 0; ii < MR; ++ii) {
      const float av = a_elem<ATrans>(a, lda, i0 + ii, kc + kk);
      acc[ii][0] += b0 * av;
      acc[ii][1] += b1 * av;
    }
  }
  for (std::size_t ii = 0; ii < MR; ++ii) {
    *reinterpret_cast<vf*>(crow[ii]) = acc[ii][0];
    *reinterpret_cast<vf*>(crow[ii] + VL) = acc[ii][1];
  }
#else
  micro_kernel_edge<ATrans>(MR, NR, kcn, a, lda, i0, kc, panel, crow);
#endif
}

/// Invokes fn(jc, nc, padded_nc, kc, kcn, offset) for every cache block in
/// the one jc-outer/kc-inner order shared by the GEMM driver, the packers,
/// and the size query — `offset` is the block's float offset inside a fully
/// packed B buffer, so the three users cannot drift apart.
template <typename Fn>
void for_each_block(std::size_t n, std::size_t k, Fn&& fn) {
  std::size_t offset = 0;
  for (std::size_t jc = 0; jc < n; jc += NC) {
    const std::size_t nc = std::min(NC, n - jc);
    const std::size_t padded_nc = (nc + NR - 1) / NR * NR;
    for (std::size_t kc = 0; kc < k; kc += KC) {
      const std::size_t kcn = std::min(KC, k - kc);
      fn(jc, nc, padded_nc, kc, kcn, offset);
      offset += padded_nc * kcn;
    }
  }
}

/// Shared blocked driver. C is initialized (zero or bias) up front when not
/// accumulating, then every (jc, kc) block purely accumulates, so k-blocking
/// needs no first-block special case. With `prepacked` non-null, B panels
/// are read from the caller's gemm_pack_* buffer (for_each_block order) and
/// `b`/`ldb`/`gb` are ignored. With `c_rows` non-null, C row i begins at
/// c + c_rows[i] instead of c + i·ldc (the micro-kernels address C through
/// per-row pointers either way).
template <bool ATrans, bool BTrans>
void gemm_core(std::size_t m, std::size_t n, std::size_t k, const float* a,
               std::size_t lda, const float* b, std::size_t ldb, float* c,
               std::size_t ldc, bool accumulate, const float* bias,
               std::size_t ldbias, const Gather& gb,
               const float* prepacked = nullptr,
               const std::size_t* c_rows = nullptr) {
  if (m == 0 || n == 0) return;
  const auto c_row = [&](std::size_t i) {
    return c + (c_rows != nullptr ? c_rows[i] : i * ldc);
  };
  if (!accumulate) {
    if (bias != nullptr) {
      // The strided bias reads are gathered once, into C's first row;
      // every other row starts as a copy of it.
      float* first = c_row(0);
      for (std::size_t j = 0; j < n; ++j) {
        first[j] = bias[gb.rows != nullptr ? gb.rows[j] : j * ldbias];
      }
      for (std::size_t i = 1; i < m; ++i) {
        std::memcpy(c_row(i), first, n * sizeof(float));
      }
    } else {
      for (std::size_t i = 0; i < m; ++i) {
        std::memset(c_row(i), 0, n * sizeof(float));
      }
    }
  }
  if (k == 0) return;

  // One NC×KC packing buffer reused by every (jc, kc) block — NC is a
  // multiple of NR, so any block's panels fit. It belongs to the calling
  // thread's workspace; pool workers only read it while this thread blocks
  // in parallel_for. Bounding the allocation here keeps the retained
  // per-thread arena at one panel regardless of operand size.
  static_assert(NC % NR == 0);
  Workspace::Scope scope;
  float* pack_buf =
      prepacked == nullptr ? Workspace::local().alloc<float>(NC * KC).data()
                           : nullptr;
  for_each_block(n, k, [&](std::size_t jc, std::size_t nc, std::size_t,
                           std::size_t kc, std::size_t kcn,
                           std::size_t offset) {
    const float* bp;
    if (prepacked != nullptr) {
      bp = prepacked + offset;
    } else {
      pack_block<BTrans>(b, ldb, gb, jc, kc, nc, kcn, pack_buf);
      bp = pack_buf;
    }
    // Parallelize over MR-row tiles (not raw rows) so chunk boundaries stay
    // tile-aligned — every interior tile runs the vectorized full kernel
    // regardless of how the pool splits the range.
    const std::size_t tiles = (m + MR - 1) / MR;
    parallel::parallel_for(
        tiles,
        [&](std::size_t tile_begin, std::size_t tile_end) {
          for (std::size_t ti = tile_begin; ti < tile_end; ++ti) {
            const std::size_t i0 = ti * MR;
            const std::size_t mr = std::min(MR, m - i0);
            for (std::size_t jp = 0; jp < nc; jp += NR) {
              const std::size_t nr = std::min(NR, nc - jp);
              const float* panel = bp + jp * kcn;
              float* ct[MR];
              for (std::size_t ii = 0; ii < mr; ++ii) {
                ct[ii] = c_row(i0 + ii) + jc + jp;
              }
              if (mr == MR && nr == NR) {
                micro_kernel_full<ATrans>(kcn, a, lda, i0, kc, panel, ct);
              } else {
                micro_kernel_edge<ATrans>(mr, nr, kcn, a, lda, i0, kc, panel,
                                          ct);
              }
            }
          }
        },
        MR * kcn * nc);
  });
}

}  // namespace

void gemm_abt(std::size_t m, std::size_t n, std::size_t k, const float* a,
              std::size_t lda, const float* b, std::size_t ldb, float* c,
              std::size_t ldc, bool accumulate, const float* bias,
              std::size_t ldbias, Gather gb) {
  gemm_core<false, true>(m, n, k, a, lda, b, ldb, c, ldc, accumulate, bias,
                         ldbias, gb);
}

void gemm_ab(std::size_t m, std::size_t n, std::size_t k, const float* a,
             std::size_t lda, const float* b, std::size_t ldb, float* c,
             std::size_t ldc, bool accumulate, Gather gb) {
  gemm_core<false, false>(m, n, k, a, lda, b, ldb, c, ldc, accumulate,
                          nullptr, 1, gb);
}

void gemm_atb(std::size_t m, std::size_t n, std::size_t k, const float* a,
              std::size_t lda, const float* b, std::size_t ldb, float* c,
              std::size_t ldc, Gather gc) {
  if (gc.cols == nullptr) {
    // Whole C rows: the micro-kernels accumulate in place at gc.rows.
    gemm_core<true, false>(m, n, k, a, lda, b, ldb, c, ldc,
                           /*accumulate=*/true, nullptr, 1, {}, nullptr,
                           gc.rows);
    return;
  }
  if (m == 0 || n == 0) return;
  // Gathered columns: accumulate in a compact tile holding the selected C
  // elements (each element's chain starts from its current value, exactly
  // as in place), then write the tile back.
  Workspace::Scope scope;
  float* tile = Workspace::local().alloc<float>(m * n).data();
  const auto crow = [&](std::size_t i) {
    return c + (gc.rows != nullptr ? gc.rows[i] : i * ldc);
  };
  for (std::size_t i = 0; i < m; ++i) {
    const float* src = crow(i);
    for (std::size_t j = 0; j < n; ++j) tile[i * n + j] = src[gc.cols[j]];
  }
  gemm_core<true, false>(m, n, k, a, lda, b, ldb, tile, n,
                         /*accumulate=*/true, nullptr, 1, {});
  for (std::size_t i = 0; i < m; ++i) {
    float* dst = crow(i);
    for (std::size_t j = 0; j < n; ++j) dst[gc.cols[j]] = tile[i * n + j];
  }
}

std::size_t gemm_packed_size(std::size_t n, std::size_t k) {
  std::size_t total = 0;
  for_each_block(n, k, [&](std::size_t, std::size_t, std::size_t padded_nc,
                           std::size_t, std::size_t kcn, std::size_t offset) {
    total = offset + padded_nc * kcn;
  });
  return total;
}

namespace {

template <bool BTrans>
void pack_all(std::size_t n, std::size_t k, const float* b, std::size_t ldb,
              const Gather& gb, float* dst) {
  for_each_block(n, k, [&](std::size_t jc, std::size_t nc, std::size_t,
                           std::size_t kc, std::size_t kcn,
                           std::size_t offset) {
    pack_block<BTrans>(b, ldb, gb, jc, kc, nc, kcn, dst + offset);
  });
}

}  // namespace

void gemm_pack_bt(std::size_t n, std::size_t k, const float* b,
                  std::size_t ldb, float* dst, Gather gb) {
  pack_all<true>(n, k, b, ldb, gb, dst);
}

void gemm_pack_b(std::size_t n, std::size_t k, const float* b,
                 std::size_t ldb, float* dst, Gather gb) {
  pack_all<false>(n, k, b, ldb, gb, dst);
}

void gemm_abt_packed(std::size_t m, std::size_t n, std::size_t k,
                     const float* a, std::size_t lda, const float* packed_b,
                     float* c, std::size_t ldc, bool accumulate,
                     const float* bias, std::size_t ldbias) {
  gemm_core<false, true>(m, n, k, a, lda, nullptr, 0, c, ldc, accumulate,
                         bias, ldbias, {}, packed_b);
}

void gemm_ab_packed(std::size_t m, std::size_t n, std::size_t k,
                    const float* a, std::size_t lda, const float* packed_b,
                    float* c, std::size_t ldc, bool accumulate) {
  gemm_core<false, false>(m, n, k, a, lda, nullptr, 0, c, ldc, accumulate,
                          nullptr, 1, {}, packed_b);
}

namespace ref {

void gemm_abt(std::size_t m, std::size_t n, std::size_t k, const float* a,
              std::size_t lda, const float* b, std::size_t ldb, float* c,
              std::size_t ldc, bool accumulate, const float* bias,
              std::size_t ldbias) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = accumulate ? c[i * ldc + j]
                             : (bias != nullptr ? bias[j * ldbias] : 0.0F);
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += a[i * lda + kk] * b[j * ldb + kk];
      }
      c[i * ldc + j] = acc;
    }
  }
}

void gemm_ab(std::size_t m, std::size_t n, std::size_t k, const float* a,
             std::size_t lda, const float* b, std::size_t ldb, float* c,
             std::size_t ldc, bool accumulate) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = accumulate ? c[i * ldc + j] : 0.0F;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += a[i * lda + kk] * b[kk * ldb + j];
      }
      c[i * ldc + j] = acc;
    }
  }
}

void gemm_atb(std::size_t m, std::size_t n, std::size_t k, const float* a,
              std::size_t lda, const float* b, std::size_t ldb, float* c,
              std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = c[i * ldc + j];
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += a[kk * lda + i] * b[kk * ldb + j];
      }
      c[i * ldc + j] = acc;
    }
  }
}

}  // namespace ref

}  // namespace fedbiad::tensor
