// Language model built on the paper's §III-A vanilla RNN: embedding →
// stacked Elman RNN layers → softmax head. This is the architecture the
// RNN branch of Theorem 1 analyzes; the evaluation section uses the LSTM
// variant (LstmLmModel), but this model lets the federated-dropout path be
// exercised on the exact formal object of the theory.
#pragma once

#include <vector>

#include "nn/dense.hpp"
#include "nn/embedding.hpp"
#include "nn/model.hpp"
#include "nn/rnn.hpp"

namespace fedbiad::nn {

struct RnnLmConfig {
  std::size_t vocab = 1000;
  std::size_t embed = 64;
  std::size_t hidden = 64;
  std::size_t layers = 2;
};

class RnnLmModel final : public Model {
 public:
  explicit RnnLmModel(const RnnLmConfig& cfg);

  void init_params(tensor::Rng& rng) override;
  /// Ignores `kept`: the full step gives the same result (Model contract).
  float train_step(const data::Batch& batch,
                   std::span<const std::uint8_t> kept = {}) override;
  EvalResult eval_batch(const data::Batch& batch, std::size_t topk) override;

  [[nodiscard]] const RnnLmConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t embed_group() const noexcept {
    return embed_.group();
  }
  [[nodiscard]] std::size_t unit_group(std::size_t layer) const {
    return rnn_.at(layer).group();
  }
  [[nodiscard]] std::size_t out_group() const noexcept { return out_.group(); }

 private:
  void forward(const data::Batch& batch);

  RnnLmConfig cfg_;
  Embedding embed_;
  std::vector<RnnLayer> rnn_;
  Dense out_;

  std::vector<std::int32_t> tokens_tm_, targets_tm_;
  tensor::Matrix x_embed_;
  std::vector<RnnLayer::Cache> caches_;
  tensor::Matrix logits_, g_logits_, g_h_, g_x_;
};

}  // namespace fedbiad::nn
