#include "baselines/local_train.hpp"

#include "common/check.hpp"
#include "nn/optimizer.hpp"

namespace fedbiad::baselines {

namespace {

/// `kept` is the fixed pattern's β (empty for full-model training), handed
/// to Model::train_step and nn::sgd_step so the model skips the dropped
/// rows' compute and the step leaves them at +0.
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
    nn::sgd_step(ctx.model.store(), ctx.settings.sgd, kept);
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
  if (pattern == nullptr) return run_loop(ctx, {}, [] {}, [] {});
  pattern->apply_to_params(ctx.model.store());
  return run_loop(ctx, pattern->bits(), [] {}, [] {});
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
