#include "baselines/local_train.hpp"

#include "common/check.hpp"
#include "nn/optimizer.hpp"

namespace fedbiad::baselines {

namespace {

/// `kept` is the fixed pattern's β handed to Model::train_step (empty for
/// full-model training), so the model can skip the dropped rows' compute.
template <typename MaskGrads, typename MaskParams>
LocalTrainStats run_loop(fl::ClientContext& ctx,
                         std::span<const std::uint8_t> kept,
                         MaskGrads&& mask_grads, MaskParams&& mask_params) {
  LocalTrainStats stats;
  const std::size_t v_max = ctx.settings.local_iterations;
  FEDBIAD_CHECK(v_max > 0, "need at least one local iteration");
  for (std::size_t v = 0; v < v_max; ++v) {
    const auto batch = ctx.dataset.make_batch(
        data::sample_indices(ctx.shard, ctx.settings.batch_size, ctx.rng));
    const float loss = ctx.model.train_step(batch, kept);
    mask_grads();
    nn::sgd_step(ctx.model.store(), ctx.settings.sgd);
    mask_params();
    stats.mean_loss += loss;
    stats.last_loss = loss;
  }
  stats.mean_loss /= static_cast<double>(v_max);
  return stats;
}

}  // namespace

LocalTrainStats train_rounds(fl::ClientContext& ctx,
                             const core::DropPattern* pattern) {
  nn::ParameterStore& store = ctx.model.store();
  if (pattern == nullptr) {
    return run_loop(
        ctx, {}, [] {}, [] {});
  }
  pattern->apply_to_params(store);
  return run_loop(
      ctx, pattern->bits(), [&] { pattern->apply_to_grads(store); },
      [&] { pattern->apply_to_params(store); });
}

LocalTrainStats train_rounds_masked(fl::ClientContext& ctx,
                                    std::span<const std::uint8_t> coord_mask) {
  nn::ParameterStore& store = ctx.model.store();
  FEDBIAD_CHECK(coord_mask.size() == store.size(), "mask size mismatch");
  auto apply = [&](std::span<float> v) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (coord_mask[i] == 0) v[i] = 0.0F;
    }
  };
  apply(store.params());
  return run_loop(
      ctx, {}, [&] { apply(store.grads()); }, [&] { apply(store.params()); });
}

}  // namespace fedbiad::baselines
