// The local-training loop every baseline strategy shares.
#pragma once

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
/// (fixed-pattern federated dropout: FedDrop, AFD, and FjORD/HeteroFL's
/// width sub-models). Returns loss statistics.
LocalTrainStats train_rounds(fl::ClientContext& ctx,
                             const core::DropPattern* pattern);

}  // namespace fedbiad::baselines
