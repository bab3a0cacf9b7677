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

/// Number of entries of `x` ranked ahead of x[label] in argsort order with
/// ties broken toward lower indices: the larger entries, plus the equal
/// ones at lower indices. `label` is among the k largest iff the rank is
/// below k, and on a NaN-free row it is the argmax (std::max_element's
/// first maximum) iff the rank is 0. A NaN entry never ranks ahead, and a
/// NaN at `label` ranks 0. One pass over the row.
[[nodiscard]] std::size_t label_rank(std::span<const float> x,
                                     std::size_t label);

}  // namespace fedbiad::tensor
