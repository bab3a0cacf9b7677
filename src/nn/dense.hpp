// Fully connected layer over the flat parameter store.
//
// The weight matrix is stored as `out` rows of `in + 1` floats — the bias is
// the last element of each row, so dropping a weight row drops the whole
// output unit including its bias (unit-level dropout semantics, and exact
// 1-row = 1-unit upload accounting).
#pragma once

#include <cstddef>
#include <string>

#include "nn/parameter_store.hpp"
#include "nn/sub_model.hpp"
#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"

namespace fedbiad::nn {

class Dense {
 public:
  /// Unregistered placeholder; assign a registered Dense before use.
  Dense() = default;

  /// Registers a droppable (out × in+1) kDense row group in `store`.
  Dense(ParameterStore& store, std::string name, std::size_t in,
        std::size_t out);

  /// Glorot-uniform weight init, zero bias. Call after store.finalize().
  void init(ParameterStore& store, tensor::Rng& rng) const;

  /// out = x · Wᵀ + b, where x is (B × in) and out becomes (B × out).
  void forward(const ParameterStore& store, const tensor::Matrix& x,
               tensor::Matrix& out) const {
    forward(store, x, out, Units::all(in_), Units::all(out_));
  }

  /// Accumulates dW (and db) into store.grads(); if g_in is non-null it is
  /// resized to (B × in) and filled with the input gradient.
  void backward(ParameterStore& store, const tensor::Matrix& x,
                const tensor::Matrix& g_out, tensor::Matrix* g_in) const {
    backward(store, x, g_out, g_in, Units::all(in_), Units::all(out_));
  }

  /// Sub-model forward: x is (B × in.n), holding the kept input units, and
  /// out becomes (B × out.n), the kept output units only. Dropped rows must
  /// hold zero parameters and dropped inputs must be +0 for the result to
  /// equal the full layer's kept columns — bit for bit.
  void forward(const ParameterStore& store, const tensor::Matrix& x,
               tensor::Matrix& out, Units in, Units out_units) const;

  /// Sub-model backward: accumulates the gradients of the kept rows' kept
  /// columns and biases; other gradients are left untouched. g_in, if
  /// non-null, becomes (B × in.n).
  void backward(ParameterStore& store, const tensor::Matrix& x,
                const tensor::Matrix& g_out, tensor::Matrix* g_in, Units in,
                Units out_units) const;

  [[nodiscard]] std::size_t group() const noexcept { return group_; }
  [[nodiscard]] std::size_t in_dim() const noexcept { return in_; }
  [[nodiscard]] std::size_t out_dim() const noexcept { return out_; }

 private:
  std::size_t group_ = 0;
  std::size_t in_ = 0;
  std::size_t out_ = 0;
};

}  // namespace fedbiad::nn
