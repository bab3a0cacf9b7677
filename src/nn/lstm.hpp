// LSTM layer with full backpropagation through time and unit-granular
// weight rows.
//
// Parameter layout: ONE row group with H rows — one per hidden
// unit. Row j concatenates everything unit j owns:
//
//   [ Wx_i[j,:] b_i[j] | Wx_f[j,:] b_f[j] | Wx_g[j,:] b_g[j] | Wx_o[j,:]
//     b_o[j] | Wh_i[j,:] | Wh_f[j,:] | Wh_g[j,:] | Wh_o[j,:] ]
//
// so row_len = 4·(in+1) + 4·H. This realizes the paper's spike-and-slab
// row ⇔ activation-dropout equivalence (§III-C) exactly for recurrent
// connections: zeroing row j makes every gate pre-activation of unit j zero
// at every timestep, hence c_j ≡ 0 and h_j = σ(0)·tanh(0) = 0 — unit j is
// cleanly removed from the sub-model, including its recurrent connections.
// (A naive per-gate-row layout instead freezes random gates at σ(0) = ½,
// which cripples every unit and makes federated dropout unusable on RNNs.)
//
// Gate order: input i, forget f, candidate g, output o.
//
// Sequences are time-major: an input of `seq` steps over a batch of `batch`
// samples is a (seq*batch × dim) matrix whose row t*batch + b holds sample b
// at time t.
#pragma once

#include <cstddef>
#include <string>

#include "nn/parameter_store.hpp"
#include "nn/sub_model.hpp"
#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"

namespace fedbiad::nn {

class LstmLayer {
 public:
  LstmLayer(ParameterStore& store, const std::string& name_prefix,
            std::size_t in, std::size_t hidden);

  /// Uniform(-k, k) init with k = 1/sqrt(hidden); forget-gate bias = 1.
  void init(ParameterStore& store, tensor::Rng& rng) const;

  /// Activations cached by forward() and consumed by backward(). For a
  /// sub-model of U kept units every H below is U: only kept units are
  /// stored, in ascending unit order.
  struct Cache {
    std::size_t batch = 0;
    std::size_t seq = 0;
    tensor::Matrix gates;   ///< (seq*batch × 4H) post-activation i,f,g,o
    tensor::Matrix c;       ///< (seq*batch × H) cell states
    tensor::Matrix tanh_c;  ///< (seq*batch × H)
    tensor::Matrix h;       ///< (seq*batch × H) hidden states (layer output)
  };

  /// Runs the layer over `x_seq` (seq*batch × in) with zero initial state.
  /// cache.h is the layer output.
  void forward(const ParameterStore& store, const tensor::Matrix& x_seq,
               std::size_t batch, std::size_t seq, Cache& cache) const {
    forward(store, x_seq, batch, seq, cache, Units::all(in_),
            Units::all(hidden_));
  }

  /// BPTT. `g_h` is the gradient w.r.t. cache.h (seq*batch × H); weight
  /// gradients accumulate into the store; `g_x` is resized and filled with
  /// the gradient w.r.t. x_seq.
  void backward(ParameterStore& store, const tensor::Matrix& x_seq,
                const Cache& cache, const tensor::Matrix& g_h,
                tensor::Matrix& g_x) const {
    backward(store, x_seq, cache, g_h, g_x, Units::all(in_),
             Units::all(hidden_));
  }

  /// Sub-model forward over the kept units only: x_seq is (seq*batch ×
  /// in.n), the kept input columns, and the cache holds `units.n` units.
  /// The recurrence shrinks to 4·U × U, and the gate activations run on the
  /// U kept units only (vmath::lstm_cell computes each unit from its own
  /// inputs alone). With dropped unit rows zeroed and dropped inputs +0, the
  /// kept units' values equal the full layer's bit for bit.
  void forward(const ParameterStore& store, const tensor::Matrix& x_seq,
               std::size_t batch, std::size_t seq, Cache& cache, Units in,
               Units units) const;

  /// Sub-model BPTT: `g_h` is (seq*batch × units.n), `g_x` becomes
  /// (seq*batch × in.n). Accumulates the gradients of the kept rows' kept
  /// columns; other gradients are left untouched.
  void backward(ParameterStore& store, const tensor::Matrix& x_seq,
                const Cache& cache, const tensor::Matrix& g_h,
                tensor::Matrix& g_x, Units in, Units units) const;

  [[nodiscard]] std::size_t group() const noexcept { return group_; }
  [[nodiscard]] std::size_t in_dim() const noexcept { return in_; }
  [[nodiscard]] std::size_t hidden() const noexcept { return hidden_; }

  /// Offset of gate g's input-weight block inside a unit row.
  [[nodiscard]] std::size_t wx_offset(std::size_t gate) const noexcept {
    return gate * (in_ + 1);
  }
  /// Offset of gate g's recurrent-weight block inside a unit row.
  [[nodiscard]] std::size_t wh_offset(std::size_t gate) const noexcept {
    return 4 * (in_ + 1) + gate * hidden_;
  }
  [[nodiscard]] std::size_t row_len() const noexcept {
    return 4 * (in_ + 1) + 4 * hidden_;
  }

 private:
  std::size_t group_ = 0;
  std::size_t in_ = 0;
  std::size_t hidden_ = 0;
};

}  // namespace fedbiad::nn
