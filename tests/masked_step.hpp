// The masked-step references for sub-model training.
//
// zero_dropped_grads: zero the gradients of the rows a drop pattern removes
// (the masked update of paper eq. 7), then step the whole store.
// Model::train_step(batch, kept) followed by nn::sgd_step(store, cfg, kept)
// must match it bit for bit; test_core, test_nn (SubModel.*, Optimizer.*)
// and test_property compare against it.
//
// train_rounds_masked: FjORD/HeteroFL's width sub-model trained at full
// width under an element-wise coordinate mask (WidthPlan::build_mask), with
// masked coordinates zeroed in the parameters before training and in the
// gradients and parameters after every step. The width baselines train
// through the kept-row loop instead; test_baselines (WidthParity.*) checks
// that their uploads and losses match this loop's bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "baselines/local_train.hpp"
#include "common/check.hpp"
#include "core/drop_pattern.hpp"
#include "fl/strategy.hpp"
#include "nn/optimizer.hpp"
#include "nn/parameter_store.hpp"
#include "tensor/ops.hpp"

namespace fedbiad::reference {

/// Zeroes the gradients of every row `pattern` drops.
inline void zero_dropped_grads(const core::DropPattern& pattern,
                               nn::ParameterStore& store) {
  FEDBIAD_CHECK(pattern.rows() == store.droppable_rows(),
                "pattern/store mismatch");
  for (std::size_t j = 0; j < pattern.rows(); ++j) {
    if (pattern.kept(j)) continue;
    const auto ref = store.droppable_row(j);
    tensor::fill(store.row_grads(ref.group, ref.row), 0.0F);
  }
}

/// V iterations of full-width minibatch SGD under `coord_mask` (nonzero =
/// present), drawing batches from ctx.rng exactly as baselines::train_rounds
/// does.
inline baselines::LocalTrainStats train_rounds_masked(
    fl::ClientContext& ctx, std::span<const std::uint8_t> coord_mask) {
  nn::ParameterStore& store = ctx.model.store();
  FEDBIAD_CHECK(coord_mask.size() == store.size(), "mask size mismatch");
  auto apply = [&](std::span<float> v) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (coord_mask[i] == 0) v[i] = 0.0F;
    }
  };
  apply(store.params());
  baselines::LocalTrainStats stats;
  const std::size_t v_max = ctx.settings.local_iterations;
  for (std::size_t v = 0; v < v_max; ++v) {
    const auto batch = ctx.dataset.make_batch(
        data::sample_indices(ctx.shard, ctx.settings.batch_size, ctx.rng));
    const float loss = ctx.model.train_step(batch);
    apply(store.grads());
    nn::sgd_step(store, ctx.settings.sgd);
    apply(store.params());
    stats.mean_loss += loss;
    stats.last_loss = loss;
  }
  stats.mean_loss /= static_cast<double>(v_max);
  return stats;
}

}  // namespace fedbiad::reference
