// Dropout sub-models: the units of each layer that a dropping pattern β
// keeps, and the helpers that move activations between the compact
// (kept-units-only) layout and the full layer width.
//
// A layer trained on its sub-model computes only kept units, reading only
// the kept units of the layer below. That is exact, not an approximation:
// every skipped term multiplies a zero — a dropped row's weight or bias, or
// a dropped unit's +0 activation — and ascending unit lists keep the
// summation order of the remaining terms (tensor/gemm.hpp "Gather").
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "nn/parameter_store.hpp"
#include "tensor/matrix.hpp"

namespace fedbiad::nn {

/// The kept units of one layer: idx[0..n) ascending, or units 0..n-1 when
/// idx is null, so all(width) is the whole layer.
struct Units {
  std::size_t n = 0;
  const std::size_t* idx = nullptr;

  [[nodiscard]] static Units all(std::size_t width) noexcept {
    return {width, nullptr};
  }
  [[nodiscard]] std::size_t operator[](std::size_t i) const noexcept {
    return idx != nullptr ? idx[i] : i;
  }
};

/// Rows of `group` kept by β (one byte per store.droppable_rows(), empty ⇒
/// all kept). An empty β or a fully kept group gives Units::all(rows);
/// otherwise `buf` receives the ascending kept rows and backs the returned
/// list.
[[nodiscard]] Units kept_units(const ParameterStore& store, std::size_t group,
                               std::span<const std::uint8_t> kept,
                               std::vector<std::size_t>& buf);

/// full (rows × width) = compact (rows × units.n) placed at the kept
/// columns, +0 everywhere else.
void scatter_columns(Units units, std::size_t width,
                     const tensor::Matrix& compact, tensor::Matrix& full);

/// compact (rows × units.n) = the kept columns of full.
void gather_columns(Units units, const tensor::Matrix& full,
                    tensor::Matrix& compact);

}  // namespace fedbiad::nn
