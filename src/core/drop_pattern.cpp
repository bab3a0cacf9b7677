#include "core/drop_pattern.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "tensor/ops.hpp"
#include "wire/accounting.hpp"

namespace fedbiad::core {

RowFilter eligible_all() {
  return [](const nn::RowGroup& g) { return g.droppable; };
}

RowFilter eligible_dense() {
  return [](const nn::RowGroup& g) {
    return g.droppable && g.kind == nn::GroupKind::kDense;
  };
}

DropPattern DropPattern::sample(const nn::ParameterStore& store,
                                double dropout_rate, const RowFilter& eligible,
                                tensor::Rng& rng) {
  FEDBIAD_CHECK(dropout_rate >= 0.0 && dropout_rate < 1.0,
                "dropout rate must be in [0, 1)");
  DropPattern pattern(store.droppable_rows());
  for (std::size_t g = 0; g < store.groups().size(); ++g) {
    const nn::RowGroup& grp = store.group(g);
    if (!grp.droppable || !eligible(grp)) continue;
    const auto to_drop = static_cast<std::size_t>(
        std::llround(dropout_rate * static_cast<double>(grp.rows)));
    if (to_drop == 0) continue;
    FEDBIAD_CHECK(to_drop < grp.rows,
                  "dropout rate would drop the whole group " + grp.name);
    for (const auto r : rng.sample_without_replacement(grp.rows, to_drop)) {
      pattern.set(store.droppable_index(g, r), false);
    }
  }
  return pattern;
}

std::size_t DropPattern::kept_count() const {
  return static_cast<std::size_t>(
      std::count(kept_.begin(), kept_.end(), std::uint8_t{1}));
}

void DropPattern::apply_to_params(nn::ParameterStore& store) const {
  FEDBIAD_CHECK(rows() == store.droppable_rows(), "pattern/store mismatch");
  for (std::size_t j = 0; j < rows(); ++j) {
    if (kept_[j]) continue;
    const auto ref = store.droppable_row(j);
    tensor::fill(store.row_params(ref.group, ref.row), 0.0F);
  }
}

void DropPattern::mark_presence(const nn::ParameterStore& store,
                                std::span<std::uint8_t> present) const {
  FEDBIAD_CHECK(present.size() == store.size(), "presence size mismatch");
  FEDBIAD_CHECK(rows() == store.droppable_rows(), "pattern/store mismatch");
  for (std::size_t j = 0; j < rows(); ++j) {
    if (kept_[j]) continue;
    const auto ref = store.droppable_row(j);
    const nn::RowGroup& grp = store.group(ref.group);
    const std::size_t begin = grp.offset + ref.row * grp.row_len;
    std::fill(present.begin() + static_cast<std::ptrdiff_t>(begin),
              present.begin() + static_cast<std::ptrdiff_t>(begin + grp.row_len),
              std::uint8_t{0});
  }
}

std::uint64_t DropPattern::upload_bytes(const nn::ParameterStore& store) const {
  FEDBIAD_CHECK(rows() == store.droppable_rows(), "pattern/store mismatch");
  std::uint64_t weights = 0;
  for (std::size_t g = 0; g < store.groups().size(); ++g) {
    const nn::RowGroup& grp = store.group(g);
    if (!grp.droppable) {
      weights += grp.size();
      continue;
    }
    for (std::size_t r = 0; r < grp.rows; ++r) {
      if (kept_[store.droppable_index(g, r)]) weights += grp.row_len;
    }
  }
  // Same formula the encoder is checked against, so the analytic oracle and
  // wire::encode_row_masked cannot drift apart.
  return wire::row_masked_bytes(weights, rows());
}

std::uint64_t dense_model_bytes(const nn::ParameterStore& store) {
  return wire::dense_f32_bytes(store.size());
}

}  // namespace fedbiad::core
