#include "nn/dense.hpp"

#include <cmath>

#include "common/check.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/workspace.hpp"

namespace fedbiad::nn {

Dense::Dense(ParameterStore& store, std::string name, std::size_t in,
             std::size_t out)
    : in_(in), out_(out) {
  group_ = store.add_group(std::move(name), GroupKind::kDense, out, in + 1);
}

void Dense::init(ParameterStore& store, tensor::Rng& rng) const {
  const float bound =
      std::sqrt(6.0F / static_cast<float>(in_ + out_));  // Glorot uniform
  auto w = store.group_params(group_);
  for (std::size_t o = 0; o < out_; ++o) {
    float* row = w.data() + o * (in_ + 1);
    for (std::size_t i = 0; i < in_; ++i) {
      row[i] = static_cast<float>(rng.uniform(-bound, bound));
    }
    row[in_] = 0.0F;
  }
}

namespace {

/// Element offsets of the kept rows inside the strided weight matrix, or
/// null when the kept rows are a prefix (the ungathered layout).
const std::size_t* row_offsets(Units units, std::size_t stride) {
  if (units.idx == nullptr) return nullptr;
  auto off = tensor::Workspace::local().alloc<std::size_t>(units.n);
  for (std::size_t j = 0; j < units.n; ++j) off[j] = units.idx[j] * stride;
  return off.data();
}

}  // namespace

void Dense::forward(const ParameterStore& store, const tensor::Matrix& x,
                    tensor::Matrix& out, Units in, Units out_units) const {
  FEDBIAD_CHECK(x.cols() == in.n, "dense forward: input width mismatch");
  out.resize(x.rows(), out_units.n);
  const float* w = store.group_params(group_).data();
  const std::size_t stride = in_ + 1;
  // Strided GEMM: weight rows live every `in_+1` floats with the bias as
  // the trailing element, addressed in place via ldb/ldbias — or, for a
  // sub-model, gathered row by row while B is packed.
  tensor::Workspace::Scope scope;
  tensor::gemm_abt(x.rows(), out_units.n, in.n, x.data(), in.n, w, stride,
                   out.data(), out_units.n, /*accumulate=*/false,
                   /*bias=*/w + in_, /*ldbias=*/stride,
                   {row_offsets(out_units, stride), in.idx});
}

void Dense::backward(ParameterStore& store, const tensor::Matrix& x,
                     const tensor::Matrix& g_out, tensor::Matrix* g_in,
                     Units in, Units out_units) const {
  FEDBIAD_CHECK(g_out.rows() == x.rows() && g_out.cols() == out_units.n &&
                    x.cols() == in.n,
                "dense backward: gradient shape mismatch");
  const std::size_t batch = x.rows();
  const std::size_t stride = in_ + 1;
  const std::size_t n_out = out_units.n;
  float* dw = store.group_grads(group_).data();
  tensor::Workspace::Scope scope;
  const tensor::Gather kept{row_offsets(out_units, stride), in.idx};
  // dW += g_outᵀ · x straight into the kept rows' strided grad rows.
  tensor::gemm_atb(n_out, in.n, batch, g_out.data(), n_out, x.data(), in.n,
                   dw, stride, kept);
  // Bias gradient: column sums of g_out into the strided bias slots.
  tensor::add_column_sums(batch, n_out, g_out.data(), n_out, dw + in_, stride,
                          kept.rows);
  if (g_in == nullptr) return;
  const float* w = store.group_params(group_).data();
  g_in->resize(batch, in.n);
  tensor::gemm_ab(batch, in.n, n_out, g_out.data(), n_out, w, stride,
                  g_in->data(), in.n, /*accumulate=*/false, kept);
}

}  // namespace fedbiad::nn
