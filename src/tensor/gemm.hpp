// Cache-blocked, register-tiled single-precision GEMM — the one compute
// substrate behind every matmul in the library (tensor/ops, Dense, Conv2D,
// LstmLayer).
//
// All operands are row-major with explicit leading dimensions (`ld*` =
// elements between consecutive rows), so strided weight layouts — the
// `in+1` bias-in-row rows of Dense, the unit rows of LstmLayer that
// concatenate four gate blocks — are addressed in place, without copies.
//
// Internals (gemm.cpp): the K×N operand panel is packed into contiguous
// NR-wide column panels (from the thread-local Workspace), and a register
// tile of MR×NR accumulators is updated with rank-1 steps. Each accumulator
// lane is an independent float chain, so the compiler vectorizes the tile
// without -ffast-math; the naive dot-product formulation it replaces could
// not be vectorized at all (a single float reduction chain may not be
// reassociated). Row blocks are distributed with the range-based
// parallel_for.
//
// Sub-model operands: an optional Gather selects rows and columns of B
// while it is packed (the pack pass copies every element anyway), so a
// dropout sub-model's kept weight rows enter the micro-kernel compacted and
// dropped rows cost nothing. With ascending lists, every output element
// sums the same terms in the same order as the full operand minus the
// skipped ones, which is what keeps sub-model training bit-identical.
//
// Reference scalar implementations are retained in gemm::ref for the
// kernel-equivalence golden tests (tests/test_gemm.cpp).
#pragma once

#include <cstddef>

namespace fedbiad::tensor {

/// Row/column selection of a row-major operand stored at `base`: stored row
/// r begins at base + rows[r] (an element offset) instead of base + r·ld,
/// and stored column c is read from column cols[c]. Either list may be null
/// (identity). Lists should ascend so summation order matches the full
/// operand.
struct Gather {
  const std::size_t* rows = nullptr;
  const std::size_t* cols = nullptr;

  [[nodiscard]] bool identity() const noexcept {
    return rows == nullptr && cols == nullptr;
  }
};

/// C(m×n) = A(m×k) · B(n×k)ᵀ, the "x · Wᵀ" forward kernel.
/// If `accumulate`, adds into C instead of overwriting. If `bias` is
/// non-null (only meaningful when !accumulate), bias[j * ldbias] is added
/// to column j of every output row — pass `w + in` with `ldbias = in + 1`
/// for the Dense bias-in-row layout. `gb` gathers B's n stored rows and k
/// stored columns; with gb.rows set, bias j is read at bias[gb.rows[j]].
void gemm_abt(std::size_t m, std::size_t n, std::size_t k, const float* a,
              std::size_t lda, const float* b, std::size_t ldb, float* c,
              std::size_t ldc, bool accumulate = false,
              const float* bias = nullptr, std::size_t ldbias = 1,
              Gather gb = {});

/// C(m×n) = A(m×k) · B(k×n), the "g · W" input-gradient kernel. `gb`
/// gathers B's k stored rows and n stored columns.
void gemm_ab(std::size_t m, std::size_t n, std::size_t k, const float* a,
             std::size_t lda, const float* b, std::size_t ldb, float* c,
             std::size_t ldc, bool accumulate = false, Gather gb = {});

/// C(m×n) += A(k×m)ᵀ · B(k×n), the "gᵀ · x" weight-gradient kernel.
/// Always accumulates (gradients add into the store). With `gc` set, C is
/// scattered: element (i, j) lives at c[gc.rows[i] + gc.cols[j]] (each
/// list defaulting to i·ldc / j) — the kept rows and columns of a weight
/// gradient. Row selections accumulate in place; column selections go
/// through a compact workspace tile that is gathered from C, accumulated,
/// and written back, bit-identical to accumulating in place.
void gemm_atb(std::size_t m, std::size_t n, std::size_t k, const float* a,
              std::size_t lda, const float* b, std::size_t ldb, float* c,
              std::size_t ldc, Gather gc = {});

// ---- prepacked B ----------------------------------------------------------
//
// When the same B operand multiplies many A operands — the recurrent Wh
// matrices applied at every timestep — packing it per call is pure waste.
// Pack once into caller-held storage (typically a Workspace span), then run
// the *_packed entry points, which skip the per-block pack pass.

/// Float count of the packed form of an (n×k)-logical B operand.
[[nodiscard]] std::size_t gemm_packed_size(std::size_t n, std::size_t k);

/// Packs `b` given as (n×k) row-major, to be used transposed (gemm_abt).
void gemm_pack_bt(std::size_t n, std::size_t k, const float* b,
                  std::size_t ldb, float* dst, Gather gb = {});

/// Packs `b` given as (k×n) row-major, to be used directly (gemm_ab).
void gemm_pack_b(std::size_t n, std::size_t k, const float* b,
                 std::size_t ldb, float* dst, Gather gb = {});

/// gemm_abt against a gemm_pack_bt-packed operand.
void gemm_abt_packed(std::size_t m, std::size_t n, std::size_t k,
                     const float* a, std::size_t lda, const float* packed_b,
                     float* c, std::size_t ldc, bool accumulate = false,
                     const float* bias = nullptr, std::size_t ldbias = 1);

/// gemm_ab against a gemm_pack_b-packed operand.
void gemm_ab_packed(std::size_t m, std::size_t n, std::size_t k,
                    const float* a, std::size_t lda, const float* packed_b,
                    float* c, std::size_t ldc, bool accumulate = false);

namespace ref {

/// Scalar triple-loop references with identical contracts; golden models
/// for the blocked kernels above. Not performance code.
void gemm_abt(std::size_t m, std::size_t n, std::size_t k, const float* a,
              std::size_t lda, const float* b, std::size_t ldb, float* c,
              std::size_t ldc, bool accumulate = false,
              const float* bias = nullptr, std::size_t ldbias = 1);
void gemm_ab(std::size_t m, std::size_t n, std::size_t k, const float* a,
             std::size_t lda, const float* b, std::size_t ldb, float* c,
             std::size_t ldc, bool accumulate = false);
void gemm_atb(std::size_t m, std::size_t n, std::size_t k, const float* a,
              std::size_t lda, const float* b, std::size_t ldb, float* c,
              std::size_t ldc);

}  // namespace ref

}  // namespace fedbiad::tensor
