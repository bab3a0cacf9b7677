// The paper's next-word-prediction model (§V-A): an embedding layer, a
// two-layer LSTM, and a fully connected softmax output over the vocabulary.
// Evaluated with top-3 accuracy (mobile-keyboard metric, paper §V-B).
#pragma once

#include <vector>

#include "nn/dense.hpp"
#include "nn/embedding.hpp"
#include "nn/lstm.hpp"
#include "nn/model.hpp"

namespace fedbiad::nn {

struct LstmLmConfig {
  std::size_t vocab = 1000;
  std::size_t embed = 64;    ///< paper: 300 (scaled; see bench/README.md)
  std::size_t hidden = 64;   ///< paper: 300
  std::size_t layers = 2;
};

class LstmLmModel final : public Model {
 public:
  explicit LstmLmModel(const LstmLmConfig& cfg);

  void init_params(tensor::Rng& rng) override;
  /// Trains only the sub-model `kept` selects: dropped LSTM units leave the
  /// input and recurrent GEMMs and dropped vocabulary rows the output
  /// projection (see Model::train_step).
  float train_step(const data::Batch& batch,
                   std::span<const std::uint8_t> kept = {}) override;
  EvalResult eval_batch(const data::Batch& batch, std::size_t topk) override;

  [[nodiscard]] const LstmLmConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t embed_group() const noexcept {
    return embed_.group();
  }
  [[nodiscard]] std::size_t unit_group(std::size_t layer) const {
    return lstm_.at(layer).group();
  }
  [[nodiscard]] const LstmLayer& lstm_layer(std::size_t layer) const {
    return lstm_.at(layer);
  }
  [[nodiscard]] std::size_t out_group() const noexcept { return out_.group(); }

 private:
  /// Re-lays out sample-major batch tokens/targets into the time-major order
  /// used by LstmLayer and runs the sub-model `kept` selects up to
  /// full-width logits (dropped vocabulary rows at +0). Leaves the kept
  /// units in units_/vocab_.
  void forward(const data::Batch& batch, std::span<const std::uint8_t> kept);

  LstmLmConfig cfg_;
  Embedding embed_;
  std::vector<LstmLayer> lstm_;
  Dense out_;

  // Kept units of the current step (per LSTM layer, and output rows),
  // backed by the index buffers.
  std::vector<Units> units_;
  Units vocab_;
  std::vector<std::vector<std::size_t>> unit_idx_;
  std::vector<std::size_t> vocab_idx_;

  // Scratch state reused across steps. LSTM caches and g_h_/g_x_ hold kept
  // units only; logits_c_/g_logits_c_ the kept vocabulary rows when some
  // are dropped.
  std::vector<std::int32_t> tokens_tm_, targets_tm_;  // time-major copies
  tensor::Matrix x_embed_;
  std::vector<LstmLayer::Cache> caches_;
  tensor::Matrix logits_c_, logits_, g_logits_, g_logits_c_, g_h_, g_x_;
};

}  // namespace fedbiad::nn
