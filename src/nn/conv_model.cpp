#include "nn/conv_model.hpp"

#include "common/check.hpp"
#include "tensor/vmath.hpp"

namespace fedbiad::nn {

ConvModel::ConvModel(const ConvConfig& cfg)
    : cfg_(cfg),
      conv_(store_, "conv1", cfg.channels, cfg.filters, cfg.kernel, cfg.height,
            cfg.width, cfg.stride, cfg.padding),
      head_(store_, "head", conv_.out_size(), cfg.classes) {
  store_.finalize();
}

void ConvModel::init_params(tensor::Rng& rng) {
  conv_.init(store_, rng);
  head_.init(store_, rng);
}

void ConvModel::forward(const data::Batch& batch) {
  FEDBIAD_CHECK(!batch.is_text(), "ConvModel expects image batches");
  conv_.forward(store_, batch.x, pre_);
  act_.resize(pre_.rows(), pre_.cols());
  tensor::vmath::relu(pre_.size(), pre_.data(), act_.data());
  head_.forward(store_, act_, logits_);
}

float ConvModel::train_step(const data::Batch& batch,
                            std::span<const std::uint8_t> /*kept*/) {
  store_.zero_grads();
  forward(batch);
  const float loss = softmax_cross_entropy(logits_, batch.targets, g_logits_);
  head_.backward(store_, act_, g_logits_, &g_act_);
  tensor::vmath::relu_backward(g_act_.size(), pre_.data(), g_act_.data());
  conv_.backward(store_, batch.x, g_act_, nullptr);
  return loss;
}

EvalResult ConvModel::eval_batch(const data::Batch& batch, std::size_t topk) {
  forward(batch);
  return evaluate_logits(logits_, batch.targets, topk);
}

}  // namespace fedbiad::nn
