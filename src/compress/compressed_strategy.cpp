#include "compress/compressed_strategy.hpp"

#include <algorithm>

#include "baselines/local_train.hpp"
#include "common/check.hpp"
#include "wire/accounting.hpp"
#include "wire/reader.hpp"

namespace fedbiad::compress {

void SparseUpdate::materialize(std::span<float> out,
                               std::span<std::uint8_t> present) const {
  FEDBIAD_CHECK(out.size() == dense_size && present.size() == dense_size,
                "materialize size mismatch");
  std::fill(out.begin(), out.end(), 0.0F);
  if (indices.empty()) {
    // Dense encoding.
    FEDBIAD_CHECK(values.size() == dense_size, "dense encoding size mismatch");
    std::copy(values.begin(), values.end(), out.begin());
    std::fill(present.begin(), present.end(), std::uint8_t{1});
    return;
  }
  std::fill(present.begin(), present.end(), std::uint8_t{0});
  FEDBIAD_CHECK(values.size() == indices.size(),
                "sparse encoding size mismatch");
  for (std::size_t i = 0; i < indices.size(); ++i) {
    out[indices[i]] = values[i];
    present[indices[i]] = 1;
  }
}

SketchedStrategy::SketchedStrategy(CompressorPtr compressor)
    : compressor_(std::move(compressor)) {
  FEDBIAD_CHECK(compressor_ != nullptr, "compressor required");
}

fl::ClientOutcome SketchedStrategy::run_client(fl::ClientContext& ctx) {
  const auto stats = baselines::train_rounds(ctx, nullptr);
  nn::ParameterStore& store = ctx.model.store();
  const std::size_t n = store.size();

  std::vector<float> update(n);
  auto params = store.params();
  for (std::size_t i = 0; i < n; ++i) {
    update[i] = params[i] - ctx.global_params[i];
  }
  CompressorState& state =
      states_.get_or_create(ctx.client_id, [] { return CompressorState{}; });
  SparseUpdate sparse = compressor_->compress(update, {}, state);

  fl::ClientOutcome out;
  out.samples = ctx.shard.size();
  out.payload = std::move(sparse.payload);
  out.is_update = true;
  out.mean_loss = stats.mean_loss;
  out.last_loss = stats.last_loss;
  return out;
}

ComposedStrategy::ComposedStrategy(fl::StrategyPtr inner,
                                   CompressorPtr compressor)
    : inner_(std::move(inner)), compressor_(std::move(compressor)) {
  FEDBIAD_CHECK(inner_ != nullptr && compressor_ != nullptr,
                "inner strategy and compressor required");
}

fl::ClientOutcome ComposedStrategy::run_client(fl::ClientContext& ctx) {
  fl::ClientOutcome inner_out = inner_->run_client(ctx);
  FEDBIAD_CHECK(!inner_out.is_update,
                "composition expects a parameter-type inner strategy");
  FEDBIAD_CHECK(inner_out.payload.kind == wire::PayloadKind::kRowMasked,
                "composition expects a row-masked inner strategy");
  const nn::ParameterStore& store = ctx.model.store();
  const std::size_t n = store.size();

  // The client owns both halves of the inner protocol here: decode its own
  // row-masked upload to recover the kept values and the candidate set.
  const wire::Decoded inner_dec =
      inner_->decode_payload(store, inner_out.payload);

  // Update restricted to the coordinates the inner strategy kept.
  std::vector<float> update(n, 0.0F);
  std::vector<std::uint8_t> candidates(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (!inner_dec.present.test(i)) continue;
    update[i] = inner_dec.values[i] - ctx.global_params[i];
    candidates[i] = 1;
  }
  CompressorState& state =
      states_.get_or_create(ctx.client_id, [] { return CompressorState{}; });
  SparseUpdate sparse = compressor_->compress(update, candidates, state);

  // Composed framing: the inner strategy's packed row pattern β (its
  // structure announcement — the values themselves are not re-sent) followed
  // by the compressor's section. The β prefix is byte-identical to the head
  // of the inner payload, so it is spliced rather than re-encoded.
  const std::size_t prefix = wire::packed_bits_bytes(store.droppable_rows());
  fl::ClientOutcome out;
  out.samples = inner_out.samples;
  out.payload.kind = sparse.payload.kind;
  out.payload.aux = sparse.payload.aux;
  std::vector<std::uint8_t> bytes;
  bytes.reserve(prefix + sparse.payload.bytes.size());
  bytes.assign(inner_out.payload.bytes.begin(),
               inner_out.payload.bytes.begin() + prefix);
  bytes.insert(bytes.end(), sparse.payload.bytes.begin(),
               sparse.payload.bytes.end());
  out.payload.bytes = std::move(bytes);
  out.is_update = true;
  out.mean_loss = inner_out.mean_loss;
  out.last_loss = inner_out.last_loss;
  return out;
}

wire::CompactUpdate ComposedStrategy::decode_payload_compact(
    const nn::ParameterStore& layout, const wire::Payload& payload) const {
  const std::size_t prefix = wire::packed_bits_bytes(layout.droppable_rows());
  if (payload.bytes.size() < prefix) {
    throw wire::DecodeError("composed payload shorter than its row pattern");
  }
  const wire::Bitset candidates = wire::expand_row_mask(
      layout, std::span<const std::uint8_t>(payload.bytes).first(prefix));
  wire::Payload section;
  section.kind = payload.kind;
  section.aux = payload.aux;
  section.bytes = payload.bytes.slice(prefix, payload.bytes.size() - prefix);
  return wire::decode_update_compact(layout, section, &candidates);
}

}  // namespace fedbiad::compress
