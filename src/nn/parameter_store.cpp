#include "nn/parameter_store.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace fedbiad::nn {

namespace {
constexpr std::size_t kNotDroppable = std::numeric_limits<std::size_t>::max();
}  // namespace

const char* to_string(GroupKind kind) noexcept {
  switch (kind) {
    case GroupKind::kDense:
      return "dense";
    case GroupKind::kEmbedding:
      return "embedding";
    case GroupKind::kRecurrentUnit:
      return "recurrent_unit";
  }
  return "unknown";
}

std::size_t ParameterStore::add_group(std::string name, GroupKind kind,
                                      std::size_t rows, std::size_t row_len,
                                      bool droppable) {
  FEDBIAD_CHECK(!finalized_, "cannot add groups after finalize()");
  FEDBIAD_CHECK(rows > 0 && row_len > 0, "group must be non-empty");
  RowGroup g;
  g.name = std::move(name);
  g.kind = kind;
  g.rows = rows;
  g.row_len = row_len;
  g.offset = total_;
  g.droppable = droppable;
  total_ += g.size();
  groups_.push_back(std::move(g));
  return groups_.size() - 1;
}

void ParameterStore::finalize() {
  FEDBIAD_CHECK(!finalized_, "finalize() called twice");
  FEDBIAD_CHECK(!groups_.empty(), "model has no parameters");
  params_.assign(total_, 0.0F);
  grads_.assign(total_, 0.0F);
  droppable_base_.assign(groups_.size(), kNotDroppable);
  droppable_rows_ = 0;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (!groups_[g].droppable) continue;
    droppable_base_[g] = droppable_rows_;
    droppable_rows_ += groups_[g].rows;
  }
  finalized_ = true;
}

const RowGroup& ParameterStore::group(std::size_t g) const {
  FEDBIAD_CHECK(g < groups_.size(), "group index out of range");
  return groups_[g];
}

std::span<float> ParameterStore::group_params(std::size_t g) {
  const RowGroup& grp = group(g);
  return params().subspan(grp.offset, grp.size());
}

std::span<const float> ParameterStore::group_params(std::size_t g) const {
  const RowGroup& grp = group(g);
  return params().subspan(grp.offset, grp.size());
}

std::span<float> ParameterStore::group_grads(std::size_t g) {
  const RowGroup& grp = group(g);
  return grads().subspan(grp.offset, grp.size());
}

std::span<float> ParameterStore::row_params(std::size_t g, std::size_t r) {
  const RowGroup& grp = group(g);
  FEDBIAD_DCHECK(r < grp.rows, "row index out of range");
  return params().subspan(grp.offset + r * grp.row_len, grp.row_len);
}

std::span<const float> ParameterStore::row_params(std::size_t g,
                                                  std::size_t r) const {
  const RowGroup& grp = group(g);
  FEDBIAD_DCHECK(r < grp.rows, "row index out of range");
  return params().subspan(grp.offset + r * grp.row_len, grp.row_len);
}

std::span<float> ParameterStore::row_grads(std::size_t g, std::size_t r) {
  const RowGroup& grp = group(g);
  FEDBIAD_DCHECK(r < grp.rows, "row index out of range");
  return grads().subspan(grp.offset + r * grp.row_len, grp.row_len);
}

RowRef ParameterStore::droppable_row(std::size_t j) const {
  FEDBIAD_CHECK(finalized_, "store not finalized");
  FEDBIAD_CHECK(j < droppable_rows_, "droppable row index out of range");
  // Groups are few (tens at most); a linear scan is fine and branch-friendly.
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (droppable_base_[g] == kNotDroppable) continue;
    if (j < droppable_base_[g] + groups_[g].rows) {
      return {g, j - droppable_base_[g]};
    }
  }
  detail::check_failed("droppable_row", __FILE__, __LINE__,
                       "unreachable: droppable row not found");
}

std::size_t ParameterStore::droppable_index(std::size_t g,
                                            std::size_t r) const {
  FEDBIAD_CHECK(finalized_, "store not finalized");
  FEDBIAD_CHECK(g < groups_.size() && droppable_base_[g] != kNotDroppable,
                "group is not droppable");
  FEDBIAD_CHECK(r < groups_[g].rows, "row index out of range");
  return droppable_base_[g] + r;
}

void ParameterStore::zero_grads() {
  std::fill(grads_.begin(), grads_.end(), 0.0F);
}

}  // namespace fedbiad::nn
