#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "tensor/ops.hpp"
#include "tensor/vmath.hpp"

namespace fedbiad::nn {

float softmax_cross_entropy(const tensor::Matrix& logits,
                            std::span<const std::int32_t> labels,
                            tensor::Matrix& g_logits) {
  FEDBIAD_CHECK(labels.size() == logits.rows(),
                "softmax_cross_entropy: one label per logits row required");
  const std::size_t cols = logits.cols();
  g_logits.resize(logits.rows(), cols);
  std::size_t active = 0;
  for (const auto l : labels) {
    if (l >= 0) ++active;
  }
  if (active == 0) {
    g_logits.fill(0.0F);
    return 0.0F;
  }
  const float inv_active = 1.0F / static_cast<float>(active);
  double loss = 0.0;
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const auto label = labels[r];
    float* g = g_logits.data() + r * cols;
    if (label < 0) {
      std::fill(g, g + cols, 0.0F);
      continue;
    }
    // Fused row kernel: one max/exp/normalize sweep writes the (already
    // inv_active-scaled) softmax into g and returns logsumexp; the loss is
    // logsumexp - z[label] and the label column completes the gradient.
    const float* z = logits.data() + r * cols;
    const float lse = tensor::vmath::softmax_xent_row(cols, z, g, inv_active);
    loss += static_cast<double>(lse) -
            static_cast<double>(z[static_cast<std::size_t>(label)]);
    g[static_cast<std::size_t>(label)] -= inv_active;
  }
  return static_cast<float>(loss / static_cast<double>(active));
}

EvalResult evaluate_logits(const tensor::Matrix& logits,
                           std::span<const std::int32_t> labels,
                           std::size_t topk) {
  FEDBIAD_CHECK(labels.size() == logits.rows(),
                "evaluate_logits: one label per logits row required");
  EvalResult out;
  const std::size_t cols = logits.cols();
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const auto label = labels[r];
    if (label < 0) continue;
    const auto lab = static_cast<std::size_t>(label);
    const float* z = logits.data() + r * cols;
    out.loss_sum += static_cast<double>(tensor::vmath::logsumexp(cols, z)) -
                    static_cast<double>(z[lab]);
    ++out.count;
    // One further pass ranks the label: rank 0 is a top-1 hit.
    const std::size_t rank = tensor::label_rank({z, cols}, lab);
    if (rank == 0) ++out.top1;
    if (rank < topk) ++out.topk;
  }
  return out;
}

}  // namespace fedbiad::nn
