#include "nn/embedding.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace fedbiad::nn {

Embedding::Embedding(ParameterStore& store, std::string name,
                     std::size_t vocab, std::size_t dim)
    : vocab_(vocab), dim_(dim) {
  group_ = store.add_group(std::move(name), GroupKind::kEmbedding, vocab, dim);
}

void Embedding::init(ParameterStore& store, tensor::Rng& rng) const {
  for (auto& v : store.group_params(group_)) {
    v = static_cast<float>(rng.normal(0.0, 0.1));
  }
}

void Embedding::forward(const ParameterStore& store,
                        std::span<const std::int32_t> tokens,
                        tensor::Matrix& out) const {
  out.resize(tokens.size(), dim_);
  const float* table = store.group_params(group_).data();
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const auto tok = tokens[i];
    FEDBIAD_DCHECK(tok >= 0 && static_cast<std::size_t>(tok) < vocab_,
                   "token id out of vocabulary");
    const float* src = table + static_cast<std::size_t>(tok) * dim_;
    std::copy(src, src + dim_, out.data() + i * dim_);
  }
}

void Embedding::backward(ParameterStore& store,
                         std::span<const std::int32_t> tokens,
                         const tensor::Matrix& g_out,
                         std::span<const std::uint8_t> kept) const {
  FEDBIAD_CHECK(g_out.rows() == tokens.size() && g_out.cols() == dim_,
                "embedding backward: gradient shape mismatch");
  FEDBIAD_CHECK(kept.empty() || kept.size() == store.droppable_rows(),
                "dropping pattern does not cover the model");
  const std::uint8_t* kept_rows =
      kept.empty() ? nullptr : kept.data() + store.droppable_index(group_, 0);
  float* dtable = store.group_grads(group_).data();
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const auto tok = static_cast<std::size_t>(tokens[i]);
    if (kept_rows != nullptr && kept_rows[tok] == 0) continue;
    float* dst = dtable + tok * dim_;
    const float* src = g_out.data() + i * dim_;
    for (std::size_t d = 0; d < dim_; ++d) dst[d] += src[d];
  }
}

}  // namespace fedbiad::nn
