#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "tensor/gemm.hpp"
#include "tensor/vmath.hpp"
#include "tensor/workspace.hpp"

namespace fedbiad::tensor {

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  FEDBIAD_DCHECK(x.size() == y.size(), "axpy size mismatch");
  vmath::axpy(x.size(), alpha, x.data(), y.data());
}

void copy(std::span<const float> x, std::span<float> y) {
  FEDBIAD_DCHECK(x.size() == y.size(), "copy size mismatch");
  std::copy(x.begin(), x.end(), y.begin());
}

void scale(std::span<float> x, float alpha) {
  for (auto& v : x) v *= alpha;
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

double sum(std::span<const float> x) {
  double acc = 0.0;
  for (float v : x) acc += v;
  return acc;
}

void matmul_xwt(const Matrix& x, const Matrix& w, Matrix& out) {
  FEDBIAD_CHECK(x.cols() == w.cols(), "matmul_xwt inner dimension mismatch");
  out.resize(x.rows(), w.rows());
  gemm_abt(x.rows(), w.rows(), x.cols(), x.data(), x.cols(), w.data(),
           w.cols(), out.data(), out.cols());
}

void matmul_gw(const Matrix& g, const Matrix& w, Matrix& out) {
  FEDBIAD_CHECK(g.cols() == w.rows(), "matmul_gw inner dimension mismatch");
  out.resize(g.rows(), w.cols());
  gemm_ab(g.rows(), w.cols(), g.cols(), g.data(), g.cols(), w.data(),
          w.cols(), out.data(), out.cols());
}

void accumulate_gtx(const Matrix& g, const Matrix& x, Matrix& dw) {
  FEDBIAD_CHECK(g.rows() == x.rows(), "accumulate_gtx batch mismatch");
  FEDBIAD_CHECK(dw.rows() == g.cols() && dw.cols() == x.cols(),
                "accumulate_gtx output shape mismatch");
  gemm_atb(dw.rows(), dw.cols(), g.rows(), g.data(), g.cols(), x.data(),
           x.cols(), dw.data(), dw.cols());
}

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

void softmax_rows(Matrix& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    auto row = m.row(r);
    vmath::softmax_xent_row(row.size(), row.data(), row.data(), 1.0F);
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
