#include "baselines/local_train.hpp"

#include <cstdint>
#include <span>

#include "common/check.hpp"
#include "nn/optimizer.hpp"

namespace fedbiad::baselines {

LocalTrainStats train_rounds(fl::ClientContext& ctx,
                             const core::DropPattern* pattern) {
  // `kept` is the fixed pattern's β (empty for full-model training), handed
  // to Model::train_step and nn::sgd_step so the model skips the dropped
  // rows' compute and the step leaves them at +0.
  std::span<const std::uint8_t> kept;
  if (pattern != nullptr) {
    pattern->apply_to_params(ctx.model.store());
    kept = pattern->bits();
  }
  LocalTrainStats stats;
  const std::size_t v_max = ctx.settings.local_iterations;
  FEDBIAD_CHECK(v_max > 0, "need at least one local iteration");
  for (std::size_t v = 0; v < v_max; ++v) {
    const auto batch = ctx.dataset.make_batch(
        data::sample_indices(ctx.shard, ctx.settings.batch_size, ctx.rng));
    const float loss = ctx.model.train_step(batch, kept);
    nn::sgd_step(ctx.model.store(), ctx.settings.sgd, kept);
    stats.mean_loss += loss;
    stats.last_loss = loss;
  }
  stats.mean_loss /= static_cast<double>(v_max);
  return stats;
}

}  // namespace fedbiad::baselines
