#include "nn/rnn_lm_model.hpp"

#include "common/check.hpp"

namespace fedbiad::nn {

RnnLmModel::RnnLmModel(const RnnLmConfig& cfg)
    : cfg_(cfg), embed_(store_, "embed", cfg.vocab, cfg.embed) {
  FEDBIAD_CHECK(cfg.layers >= 1, "RNN LM needs at least one layer");
  rnn_.reserve(cfg.layers);
  for (std::size_t l = 0; l < cfg.layers; ++l) {
    const std::size_t in = l == 0 ? cfg.embed : cfg.hidden;
    rnn_.emplace_back(store_, "rnn" + std::to_string(l), in, cfg.hidden);
  }
  out_ = Dense(store_, "out", cfg.hidden, cfg.vocab);
  store_.finalize();
  caches_.resize(cfg.layers);
}

void RnnLmModel::init_params(tensor::Rng& rng) {
  embed_.init(store_, rng);
  for (const auto& l : rnn_) l.init(store_, rng);
  out_.init(store_, rng);
}

void RnnLmModel::forward(const data::Batch& batch) {
  FEDBIAD_CHECK(batch.is_text(), "RnnLmModel expects text batches");
  const std::size_t B = batch.batch;
  const std::size_t T = batch.seq;
  FEDBIAD_CHECK(batch.tokens.size() == B * T && batch.targets.size() == B * T,
                "token/target layout mismatch");
  tokens_tm_.resize(B * T);
  targets_tm_.resize(B * T);
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t t = 0; t < T; ++t) {
      tokens_tm_[t * B + b] = batch.tokens[b * T + t];
      targets_tm_[t * B + b] = batch.targets[b * T + t];
    }
  }
  embed_.forward(store_, tokens_tm_, x_embed_);
  const tensor::Matrix* x = &x_embed_;
  for (std::size_t l = 0; l < rnn_.size(); ++l) {
    rnn_[l].forward(store_, *x, B, T, caches_[l]);
    x = &caches_[l].h;
  }
  out_.forward(store_, *x, logits_);
}

float RnnLmModel::train_step(const data::Batch& batch,
                             std::span<const std::uint8_t> /*kept*/) {
  store_.zero_grads();
  forward(batch);
  const float loss = softmax_cross_entropy(logits_, targets_tm_, g_logits_);
  out_.backward(store_, caches_.back().h, g_logits_, &g_h_);
  for (std::size_t l = rnn_.size(); l-- > 0;) {
    const tensor::Matrix& x_in = l == 0 ? x_embed_ : caches_[l - 1].h;
    rnn_[l].backward(store_, x_in, caches_[l], g_h_, g_x_);
    g_h_ = g_x_;
  }
  embed_.backward(store_, tokens_tm_, g_h_);
  return loss;
}

EvalResult RnnLmModel::eval_batch(const data::Batch& batch, std::size_t topk) {
  forward(batch);
  return evaluate_logits(logits_, targets_tm_, topk);
}

}  // namespace fedbiad::nn
