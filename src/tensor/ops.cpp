#include "tensor/ops.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "tensor/workspace.hpp"

namespace fedbiad::tensor {

void copy(std::span<const float> x, std::span<float> y) {
  FEDBIAD_DCHECK(x.size() == y.size(), "copy size mismatch");
  std::copy(x.begin(), x.end(), y.begin());
}

void fill(std::span<float> x, float value) {
  std::fill(x.begin(), x.end(), value);
}

double dot(std::span<const float> a, std::span<const float> b) {
  FEDBIAD_DCHECK(a.size() == b.size(), "dot size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

double squared_norm(std::span<const float> x) { return dot(x, x); }

void add_column_sums(std::size_t rows, std::size_t cols, const float* src,
                     std::size_t lds, float* dst, std::size_t ldd,
                     const std::size_t* dst_offsets) {
  Workspace::Scope scope;
  auto sums = Workspace::local().alloc_zero<float>(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = src + r * lds;
    for (std::size_t j = 0; j < cols; ++j) sums[j] += row[j];
  }
  for (std::size_t j = 0; j < cols; ++j) {
    dst[dst_offsets != nullptr ? dst_offsets[j] : j * ldd] += sums[j];
  }
}

std::size_t argmax(std::span<const float> x) {
  FEDBIAD_DCHECK(!x.empty(), "argmax of empty span");
  return static_cast<std::size_t>(
      std::max_element(x.begin(), x.end()) - x.begin());
}

bool in_top_k(std::span<const float> x, std::size_t label, std::size_t k) {
  FEDBIAD_DCHECK(label < x.size(), "label out of range");
  const float v = x[label];
  std::size_t strictly_greater = 0;
  std::size_t equal_before = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] > v) {
      ++strictly_greater;
    } else if (x[i] == v && i < label) {
      ++equal_before;
    }
    if (strictly_greater + equal_before >= k) return false;
  }
  return strictly_greater + equal_before < k;
}

}  // namespace fedbiad::tensor
