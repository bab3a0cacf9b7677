// Small vector kernels used by the NN layers and the FL engine. The matmuls
// live in tensor/gemm.hpp and the elementwise math in tensor/vmath.hpp.
#pragma once

#include <cstddef>
#include <span>

namespace fedbiad::tensor {

// ---- vector kernels -------------------------------------------------------

/// Element-wise y = x.
void copy(std::span<const float> x, std::span<float> y);

/// Sets every element to `value`.
void fill(std::span<float> x, float value);

/// Dot product.
[[nodiscard]] double dot(std::span<const float> a, std::span<const float> b);

/// Squared L2 norm.
[[nodiscard]] double squared_norm(std::span<const float> x);

// ---- matrix kernels -------------------------------------------------------

/// dst[j * ldd] += Σ_r src[r * lds + j] for j in [0, cols): column sums of
/// a (rows × cols) panel, accumulated densely and then added into a strided
/// destination — the shared bias-gradient reduction of the layers whose
/// bias lives inside strided weight rows (Dense, LstmLayer).
/// With `dst_offsets` non-null, column j adds into dst[dst_offsets[j]]
/// instead (the kept rows of a dropout sub-model).
void add_column_sums(std::size_t rows, std::size_t cols, const float* src,
                     std::size_t lds, float* dst, std::size_t ldd,
                     const std::size_t* dst_offsets = nullptr);

/// argmax over a row span.
[[nodiscard]] std::size_t argmax(std::span<const float> x);

/// True if `label` is among the `k` largest entries of `x`
/// (ties broken toward lower indices, matching argsort order).
[[nodiscard]] bool in_top_k(std::span<const float> x, std::size_t label,
                            std::size_t k);

}  // namespace fedbiad::tensor
