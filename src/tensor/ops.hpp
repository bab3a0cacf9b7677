// Vector and matrix kernels used by the NN layers and the FL engine.
//
// All kernels operate on spans over contiguous storage. The matmul_*
// entry points are thin shape adapters over the blocked GEMM substrate in
// tensor/gemm.hpp, which handles cache blocking, register tiling, and
// parallelization.
#pragma once

#include <cstddef>
#include <span>

#include "tensor/matrix.hpp"

namespace fedbiad::tensor {

// ---- vector kernels -------------------------------------------------------

/// y += alpha * x (sizes must match).
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// Element-wise y = x.
void copy(std::span<const float> x, std::span<float> y);

/// Scales x in place by alpha.
void scale(std::span<float> x, float alpha);

/// Sets every element to `value`.
void fill(std::span<float> x, float value);

/// Dot product.
[[nodiscard]] double dot(std::span<const float> a, std::span<const float> b);

/// Squared L2 norm.
[[nodiscard]] double squared_norm(std::span<const float> x);

/// Sum of elements.
[[nodiscard]] double sum(std::span<const float> x);

// ---- matrix kernels -------------------------------------------------------

/// out = x · Wᵀ where x is (B × in), W is (out_dim × in), out is (B × out_dim).
/// This layout matches a Dense layer whose weight rows are output units.
void matmul_xwt(const Matrix& x, const Matrix& w, Matrix& out);

/// out = g · W where g is (B × out_dim), W is (out_dim × in), out is (B × in).
/// This is the input-gradient kernel paired with matmul_xwt.
void matmul_gw(const Matrix& g, const Matrix& w, Matrix& out);

/// dW += gᵀ · x where g is (B × out_dim), x is (B × in), dW is (out_dim × in).
/// Weight-gradient kernel paired with matmul_xwt.
void accumulate_gtx(const Matrix& g, const Matrix& x, Matrix& dw);

/// dst[j * ldd] += Σ_r src[r * lds + j] for j in [0, cols): column sums of
/// a (rows × cols) panel, accumulated densely and then added into a strided
/// destination — the shared bias-gradient reduction of the layers whose
/// bias lives inside strided weight rows (Dense, LstmLayer).
/// With `dst_offsets` non-null, column j adds into dst[dst_offsets[j]]
/// instead (the kept rows of a dropout sub-model).
void add_column_sums(std::size_t rows, std::size_t cols, const float* src,
                     std::size_t lds, float* dst, std::size_t ldd,
                     const std::size_t* dst_offsets = nullptr);

/// Row-wise softmax in place.
void softmax_rows(Matrix& m);

/// argmax over a row span.
[[nodiscard]] std::size_t argmax(std::span<const float> x);

/// True if `label` is among the `k` largest entries of `x`
/// (ties broken toward lower indices, matching argsort order).
[[nodiscard]] bool in_top_k(std::span<const float> x, std::size_t label,
                            std::size_t k);

}  // namespace fedbiad::tensor
