// Token embedding table. Each vocabulary entry is one weight row, so
// FedBIAD's row-wise dropout naturally drops whole word vectors.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "nn/parameter_store.hpp"
#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"

namespace fedbiad::nn {

class Embedding {
 public:
  /// Registers a (vocab × dim) kEmbedding row group in `store`.
  Embedding(ParameterStore& store, std::string name, std::size_t vocab,
            std::size_t dim);

  /// N(0, 0.1) init. Call after store.finalize().
  void init(ParameterStore& store, tensor::Rng& rng) const;

  /// out[i] = table[tokens[i]]; out becomes (tokens.size() × dim).
  void forward(const ParameterStore& store, std::span<const std::int32_t> tokens,
               tensor::Matrix& out) const;

  /// Scatter-adds g_out rows into the gradient table. `kept` is a dropping
  /// pattern β over store.droppable_rows() (empty keeps every row): tokens
  /// whose vocabulary row β drops add nothing, so dropped rows' gradients
  /// are left untouched.
  void backward(ParameterStore& store, std::span<const std::int32_t> tokens,
                const tensor::Matrix& g_out,
                std::span<const std::uint8_t> kept = {}) const;

  [[nodiscard]] std::size_t group() const noexcept { return group_; }
  [[nodiscard]] std::size_t vocab() const noexcept { return vocab_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

 private:
  std::size_t group_ = 0;
  std::size_t vocab_ = 0;
  std::size_t dim_ = 0;
};

}  // namespace fedbiad::nn
