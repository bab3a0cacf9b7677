// Shared local-training loops used by the baseline strategies.
#pragma once

#include <cstdint>
#include <span>

#include "core/drop_pattern.hpp"
#include "fl/strategy.hpp"

namespace fedbiad::baselines {

struct LocalTrainStats {
  double mean_loss = 0.0;
  double last_loss = 0.0;
};

/// Runs V iterations of minibatch SGD. If `pattern` is non-null, its dropped
/// rows are zeroed once and the model trains the sub-model it selects: each
/// step updates only the kept rows, so the dropped ones stay +0
/// (fixed-pattern federated dropout). Returns loss statistics.
LocalTrainStats train_rounds(fl::ClientContext& ctx,
                             const core::DropPattern* pattern);

/// Same, but with an element-wise coordinate mask (FjORD / HeteroFL width
/// sub-models): masked coordinates are zeroed in parameters and gradients.
LocalTrainStats train_rounds_masked(fl::ClientContext& ctx,
                                    std::span<const std::uint8_t> coord_mask);

}  // namespace fedbiad::baselines
