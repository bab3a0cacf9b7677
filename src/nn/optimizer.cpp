#include "nn/optimizer.hpp"

#include <cmath>

#include "common/check.hpp"
#include "tensor/vmath.hpp"

namespace fedbiad::nn {

namespace {

/// Calls f(begin, end) for each maximal run of adjacent coordinates the step
/// covers, in storage order: the whole store when `kept` is empty, else the
/// kept rows' runs.
template <typename F>
void for_each_run(const ParameterStore& store,
                  std::span<const std::uint8_t> kept, F&& f) {
  if (kept.empty()) {
    f(std::size_t{0}, store.size());
    return;
  }
  FEDBIAD_CHECK(kept.size() == store.droppable_rows(),
                "sgd_step kept mask/store mismatch");
  for_each_kept_run(
      store, [&](std::size_t j) { return kept[j] != 0; }, f);
}

/// The clip factor for a gradient norm. It is monotone in the norm:
/// `norm > clip` flips once, and clip/norm falls.
float clip_scale(double norm, float clip) {
  return clip > 0.0F && norm > clip ? static_cast<float>(clip / norm) : 1.0F;
}

}  // namespace

double sgd_step(ParameterStore& store, const SgdConfig& cfg,
                std::span<const std::uint8_t> kept) {
  auto grads = store.grads();
  auto params = store.params();
  double lanes = 0.0;
  std::size_t n = 0;
  for_each_run(store, kept, [&](std::size_t b, std::size_t e) {
    lanes += tensor::vmath::sum_squares(e - b, grads.data() + b);
    n += e - b;
  });
  double norm = std::sqrt(lanes);
  float scale = clip_scale(norm, cfg.clip_norm);
  if (cfg.clip_norm > 0.0F) {
    // The serial Σg² lies in lanes·(1 ± slack) (vmath::sum_squares), and
    // clip_scale∘√ is monotone, so equal scales at both ends prove the
    // serial sum's scale. Otherwise recompute the serial sum: a dropped
    // row's squares would add exactly +0 to it, so summing the runs in
    // order is the full store's serial sum with those rows zeroed.
    const double slack = 4.0 * static_cast<double>(n + 16) * 0x1p-53;
    const float clip = cfg.clip_norm;
    const float lo = clip_scale(std::sqrt(lanes * (1.0 - slack)), clip);
    const float hi = clip_scale(std::sqrt(lanes * (1.0 + slack)), clip);
    if (!std::isfinite(lanes) || lo != hi) {
      double serial = 0.0;
      for_each_run(store, kept, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          const double g = grads[i];
          serial += g * g;
        }
      });
      norm = std::sqrt(serial);
      scale = clip_scale(norm, cfg.clip_norm);
    }
  }
  // Fused clip + weight-decay + step, run by run: sgd_axpy rounds the same
  // however a range is split.
  for_each_run(store, kept, [&](std::size_t b, std::size_t e) {
    tensor::vmath::sgd_axpy(e - b, params.data() + b, grads.data() + b, cfg.lr,
                            scale, cfg.weight_decay);
  });
  return norm;
}

}  // namespace fedbiad::nn
