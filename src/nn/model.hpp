// Abstract model interface used by the federated-learning engine.
//
// A Model owns its ParameterStore; the FL strategies manipulate the flat
// parameter/gradient vectors (loading global weights, masking rows, taking
// SGD steps) and only call back into the model for forward/backward passes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "data/batch.hpp"
#include "nn/loss.hpp"
#include "nn/parameter_store.hpp"
#include "tensor/rng.hpp"

namespace fedbiad::nn {

class Model {
 public:
  virtual ~Model() = default;

  [[nodiscard]] ParameterStore& store() noexcept { return store_; }
  [[nodiscard]] const ParameterStore& store() const noexcept { return store_; }

  /// Fresh random initialization of all parameters.
  virtual void init_params(tensor::Rng& rng) = 0;

  /// Zeroes gradients, runs forward + backward on `batch`, accumulates
  /// gradients into the store, and returns the mean training loss.
  ///
  /// `kept` is a dropping pattern β over store().droppable_rows() (one byte
  /// per row, nonzero = kept); empty keeps every row. Contract: rows with
  /// β = 0 hold zero parameters, and the model leaves their gradients
  /// untouched (zero after this step's zero_grads); the caller steps with
  /// nn::sgd_step(store, cfg, kept), which updates only kept rows. The
  /// model trains only the sub-model β selects, skipping the dropped rows'
  /// compute; the loss and every kept row's gradient are bit-identical to
  /// the full step.
  virtual float train_step(const data::Batch& batch,
                           std::span<const std::uint8_t> kept = {}) = 0;

  /// Forward-only evaluation with top-1 and top-`topk` accuracy counting.
  virtual EvalResult eval_batch(const data::Batch& batch, std::size_t topk) = 0;

 protected:
  ParameterStore store_;
};

/// Factory so the FL engine can build one model replica per worker thread.
using ModelFactory = std::function<std::unique_ptr<Model>()>;

}  // namespace fedbiad::nn
