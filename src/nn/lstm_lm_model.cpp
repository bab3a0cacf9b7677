#include "nn/lstm_lm_model.hpp"

#include <utility>

#include "common/check.hpp"

namespace fedbiad::nn {

LstmLmModel::LstmLmModel(const LstmLmConfig& cfg)
    : cfg_(cfg), embed_(store_, "embed", cfg.vocab, cfg.embed) {
  FEDBIAD_CHECK(cfg.layers >= 1, "LSTM LM needs at least one layer");
  lstm_.reserve(cfg.layers);
  for (std::size_t l = 0; l < cfg.layers; ++l) {
    const std::size_t in = l == 0 ? cfg.embed : cfg.hidden;
    lstm_.emplace_back(store_, "lstm" + std::to_string(l), in, cfg.hidden);
  }
  // The output projection is constructed last so that its rows sit at the
  // end of the flat vector; nothing depends on this, it just reads well in
  // parameter dumps.
  out_ = Dense(store_, "out", cfg.hidden, cfg.vocab);
  store_.finalize();
  caches_.resize(cfg.layers);
  units_.resize(cfg.layers);
  unit_idx_.resize(cfg.layers);
}

void LstmLmModel::init_params(tensor::Rng& rng) {
  embed_.init(store_, rng);
  for (const auto& l : lstm_) l.init(store_, rng);
  out_.init(store_, rng);
}

void LstmLmModel::forward(const data::Batch& batch,
                          std::span<const std::uint8_t> kept) {
  FEDBIAD_CHECK(batch.is_text(), "LstmLmModel expects text batches");
  const std::size_t B = batch.batch;
  const std::size_t T = batch.seq;
  FEDBIAD_CHECK(batch.tokens.size() == B * T &&
                    batch.targets.size() == B * T,
                "token/target layout mismatch");
  // Sample-major (b, t) → time-major (t, b).
  tokens_tm_.resize(B * T);
  targets_tm_.resize(B * T);
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t t = 0; t < T; ++t) {
      tokens_tm_[t * B + b] = batch.tokens[b * T + t];
      targets_tm_[t * B + b] = batch.targets[b * T + t];
    }
  }
  // Dropped embedding rows are zero in the table, so the lookup needs no
  // sub-model: their tokens simply embed to zero vectors.
  embed_.forward(store_, tokens_tm_, x_embed_);
  const tensor::Matrix* x = &x_embed_;
  Units in = Units::all(cfg_.embed);
  for (std::size_t l = 0; l < lstm_.size(); ++l) {
    units_[l] = kept_units(store_, lstm_[l].group(), kept, unit_idx_[l]);
    lstm_[l].forward(store_, *x, B, T, caches_[l], in, units_[l]);
    x = &caches_[l].h;
    in = units_[l];
  }
  vocab_ = kept_units(store_, out_.group(), kept, vocab_idx_);
  if (vocab_.n == cfg_.vocab) {
    out_.forward(store_, *x, logits_, in, vocab_);
  } else {
    out_.forward(store_, *x, logits_c_, in, vocab_);
    scatter_columns(vocab_, cfg_.vocab, logits_c_, logits_);
  }
}

float LstmLmModel::train_step(const data::Batch& batch,
                              std::span<const std::uint8_t> kept) {
  store_.zero_grads();
  forward(batch, kept);
  const float loss = softmax_cross_entropy(logits_, targets_tm_, g_logits_);
  const tensor::Matrix* g_out = &g_logits_;
  if (vocab_.n != cfg_.vocab) {
    gather_columns(vocab_, g_logits_, g_logits_c_);
    g_out = &g_logits_c_;
  }
  const tensor::Matrix& top_h = caches_.back().h;
  out_.backward(store_, top_h, *g_out, &g_h_, units_.back(), vocab_);
  for (std::size_t l = lstm_.size(); l-- > 0;) {
    const tensor::Matrix& x_in = l == 0 ? x_embed_ : caches_[l - 1].h;
    const Units in = l == 0 ? Units::all(cfg_.embed) : units_[l - 1];
    lstm_[l].backward(store_, x_in, caches_[l], g_h_, g_x_, in, units_[l]);
    std::swap(g_h_, g_x_);
  }
  embed_.backward(store_, tokens_tm_, g_h_, kept);
  return loss;
}

EvalResult LstmLmModel::eval_batch(const data::Batch& batch,
                                   std::size_t topk) {
  forward(batch, {});
  return evaluate_logits(logits_, targets_tm_, topk);
}

}  // namespace fedbiad::nn
