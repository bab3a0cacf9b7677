// The paper's image-classification model (§V-A): a fully connected network
// with one hidden ReLU layer and a softmax output, 128 hidden units for
// MNIST and 256 for FMNIST.
#pragma once

#include <vector>

#include "nn/dense.hpp"
#include "nn/model.hpp"

namespace fedbiad::nn {

struct MlpConfig {
  std::size_t input = 784;
  std::size_t hidden = 128;
  std::size_t classes = 10;
};

class MlpModel final : public Model {
 public:
  explicit MlpModel(const MlpConfig& cfg);

  void init_params(tensor::Rng& rng) override;
  /// Trains only the sub-model `kept` selects: dropped hidden units and
  /// classes leave both GEMMs (see Model::train_step).
  float train_step(const data::Batch& batch,
                   std::span<const std::uint8_t> kept = {}) override;
  EvalResult eval_batch(const data::Batch& batch, std::size_t topk) override;

  [[nodiscard]] const MlpConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t fc1_group() const noexcept { return fc1_.group(); }
  [[nodiscard]] std::size_t fc2_group() const noexcept { return fc2_.group(); }

 private:
  /// Forward pass of the sub-model `kept` selects, up to full-width logits
  /// (dropped classes at +0). Leaves the kept units in hidden_/classes_.
  void forward(const data::Batch& batch, std::span<const std::uint8_t> kept);

  MlpConfig cfg_;
  Dense fc1_;
  Dense fc2_;
  // Kept units of the current step, backed by the index buffers.
  Units hidden_, classes_;
  std::vector<std::size_t> hidden_idx_, class_idx_;
  // Scratch buffers reused across steps to avoid per-batch allocation.
  // pre1_/act1_/g_act1_ hold kept hidden units only; logits_c_/g_logits_c_
  // the kept classes when some are dropped.
  tensor::Matrix pre1_, act1_, logits_c_, logits_, g_logits_, g_logits_c_,
      g_act1_;
};

}  // namespace fedbiad::nn
