#include "nn/mlp_model.hpp"

#include "common/check.hpp"
#include "tensor/vmath.hpp"

namespace fedbiad::nn {

MlpModel::MlpModel(const MlpConfig& cfg)
    : cfg_(cfg),
      fc1_(store_, "fc1", cfg.input, cfg.hidden),
      fc2_(store_, "fc2", cfg.hidden, cfg.classes) {
  store_.finalize();
}

void MlpModel::init_params(tensor::Rng& rng) {
  fc1_.init(store_, rng);
  fc2_.init(store_, rng);
}

void MlpModel::forward(const data::Batch& batch,
                       std::span<const std::uint8_t> kept) {
  FEDBIAD_CHECK(!batch.is_text(), "MlpModel expects image batches");
  hidden_ = kept_units(store_, fc1_.group(), kept, hidden_idx_);
  classes_ = kept_units(store_, fc2_.group(), kept, class_idx_);
  const Units inputs = Units::all(cfg_.input);
  fc1_.forward(store_, batch.x, pre1_, inputs, hidden_);
  act1_.resize(pre1_.rows(), pre1_.cols());
  tensor::vmath::relu(pre1_.size(), pre1_.data(), act1_.data());
  if (classes_.n == cfg_.classes) {
    fc2_.forward(store_, act1_, logits_, hidden_, classes_);
  } else {
    fc2_.forward(store_, act1_, logits_c_, hidden_, classes_);
    scatter_columns(classes_, cfg_.classes, logits_c_, logits_);
  }
}

float MlpModel::train_step(const data::Batch& batch,
                           std::span<const std::uint8_t> kept) {
  store_.zero_grads();
  forward(batch, kept);
  const float loss = softmax_cross_entropy(logits_, batch.targets, g_logits_);
  const tensor::Matrix* g_out = &g_logits_;
  if (classes_.n != cfg_.classes) {
    gather_columns(classes_, g_logits_, g_logits_c_);
    g_out = &g_logits_c_;
  }
  fc2_.backward(store_, act1_, *g_out, &g_act1_, hidden_, classes_);
  tensor::vmath::relu_backward(g_act1_.size(), pre1_.data(),
                               g_act1_.data());  // ReLU'
  fc1_.backward(store_, batch.x, g_act1_, nullptr, Units::all(cfg_.input),
                hidden_);
  return loss;
}

EvalResult MlpModel::eval_batch(const data::Batch& batch, std::size_t topk) {
  forward(batch, {});
  return evaluate_logits(logits_, batch.targets, topk);
}

}  // namespace fedbiad::nn
