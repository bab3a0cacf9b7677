#include "nn/sub_model.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace fedbiad::nn {

Units kept_units(const ParameterStore& store, std::size_t group,
                 std::span<const std::uint8_t> kept,
                 std::vector<std::size_t>& buf) {
  const RowGroup& grp = store.group(group);
  if (kept.empty()) return Units::all(grp.rows);
  FEDBIAD_CHECK(kept.size() == store.droppable_rows(),
                "dropping pattern does not cover the model");
  const std::size_t base = store.droppable_index(group, 0);
  buf.clear();
  for (std::size_t r = 0; r < grp.rows; ++r) {
    if (kept[base + r] != 0) buf.push_back(r);
  }
  if (buf.size() == grp.rows) return Units::all(grp.rows);
  return {buf.size(), buf.data()};
}

void scatter_columns(Units units, std::size_t width,
                     const tensor::Matrix& compact, tensor::Matrix& full) {
  FEDBIAD_CHECK(compact.cols() == units.n, "scatter: width mismatch");
  full.resize(compact.rows(), width);
  std::fill(full.data(), full.data() + full.size(), 0.0F);
  for (std::size_t r = 0; r < compact.rows(); ++r) {
    const float* src = compact.data() + r * units.n;
    float* dst = full.data() + r * width;
    for (std::size_t j = 0; j < units.n; ++j) dst[units[j]] = src[j];
  }
}

void gather_columns(Units units, const tensor::Matrix& full,
                    tensor::Matrix& compact) {
  compact.resize(full.rows(), units.n);
  for (std::size_t r = 0; r < full.rows(); ++r) {
    const float* src = full.data() + r * full.cols();
    float* dst = compact.data() + r * units.n;
    for (std::size_t j = 0; j < units.n; ++j) dst[j] = src[units[j]];
  }
}

}  // namespace fedbiad::nn
