// The masked-step reference for sub-model training: zero the gradients of
// the rows a drop pattern removes (the masked update of paper eq. 7), then
// step the whole store. Model::train_step(batch, kept) followed by
// nn::sgd_step(store, cfg, kept) must match it bit for bit; test_core,
// test_nn (SubModel.*, Optimizer.*) and test_property compare against it.
#pragma once

#include <cstddef>

#include "common/check.hpp"
#include "core/drop_pattern.hpp"
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

}  // namespace fedbiad::reference
