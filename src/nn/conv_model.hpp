// A small CNN classifier demonstrating the paper's filter-wise dropout
// (§IV-C): one convolution whose filters are droppable rows, ReLU, and a
// dense softmax head. Used by tests and the CNN example; the paper's own
// evaluation uses the MLP and LSTM models.
#pragma once

#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/model.hpp"

namespace fedbiad::nn {

struct ConvConfig {
  std::size_t height = 28;
  std::size_t width = 28;
  std::size_t channels = 1;
  std::size_t filters = 8;
  std::size_t kernel = 5;
  std::size_t stride = 1;
  std::size_t padding = 0;
  std::size_t classes = 10;
};

class ConvModel final : public Model {
 public:
  explicit ConvModel(const ConvConfig& cfg);

  void init_params(tensor::Rng& rng) override;
  /// Ignores `kept`: the full step gives the same result (Model contract).
  float train_step(const data::Batch& batch,
                   std::span<const std::uint8_t> kept = {}) override;
  EvalResult eval_batch(const data::Batch& batch, std::size_t topk) override;

  [[nodiscard]] const ConvConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t conv_group() const noexcept {
    return conv_.group();
  }

 private:
  void forward(const data::Batch& batch);

  ConvConfig cfg_;
  Conv2D conv_;
  Dense head_;
  tensor::Matrix pre_, act_, logits_, g_logits_, g_act_;
};

}  // namespace fedbiad::nn
