#include "bayes/spike_slab.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/check.hpp"
#include "tensor/vmath.hpp"

namespace fedbiad::bayes {

namespace {

// One coordinate of the draw, exactly as the libm loop computes it. This TU
// is built without FMA contraction (see src/CMakeLists.txt): the certified
// kernel proves its floats equal to this expression with the product and
// the sum rounded separately.
float draw(float u, double sd, double z) {
  return static_cast<float>(u + sd * z);
}

}  // namespace

void sample_gaussian(std::span<const float> u, double s2, tensor::Rng& rng,
                     std::span<float> theta) {
  FEDBIAD_CHECK(u.size() == theta.size(), "sample_gaussian size mismatch");
  FEDBIAD_CHECK(s2 >= 0.0, "variance must be non-negative");
  const double sd = std::sqrt(s2);
  const std::size_t n = u.size();
  std::size_t i = 0;
  // A pending cached deviate belongs to the first coordinate.
  if (n > 0 && rng.has_cached_normal()) {
    theta[0] = draw(u[0], sd, rng.normal());
    i = 1;
  }
  // Whole pairs through the certified kernel, in blocks. The last one or
  // two coordinates go through normal() below, so the stream's cached
  // deviate — pending or stale — ends exactly as the libm loop leaves it.
  constexpr std::size_t kBlock = 256;
  double u1[kBlock];
  double u2[kBlock];
  std::uint32_t handed_back[kBlock];
  while (n - i > 2) {
    const std::size_t pairs = std::min(kBlock, (n - i - 1) / 2);
    rng.box_muller_uniforms(u1, u2, pairs);
    const std::size_t handed = tensor::vmath::gaussian_pairs(
        pairs, u1, u2, u.data() + i, sd, theta.data() + i, handed_back);
    for (std::size_t k = 0; k < handed; ++k) {
      const std::size_t p = handed_back[k];
      const std::size_t at = i + 2 * p;
      const auto [z_cos, z_sin] = tensor::Rng::box_muller(u1[p], u2[p]);
      theta[at] = draw(u[at], sd, z_cos);
      theta[at + 1] = draw(u[at + 1], sd, z_sin);
    }
    i += 2 * pairs;
  }
  for (; i < n; ++i) theta[i] = draw(u[i], sd, rng.normal());
}

double gaussian_kl(std::span<const float> u, double s2, double prior_var) {
  FEDBIAD_CHECK(s2 > 0.0 && prior_var > 0.0,
                "variances must be positive for KL");
  // KL per coordinate: 0.5·(s2/p + u²/p − 1 + log(p/s2)).
  const double ratio = s2 / prior_var;
  const double log_term = std::log(prior_var / s2);
  double acc = 0.0;
  for (const float ui : u) {
    acc += 0.5 * (ratio + static_cast<double>(ui) * ui / prior_var - 1.0 +
                  log_term);
  }
  return acc;
}

void spike_slab_mean(std::span<const float> mu, bool kept,
                     std::span<float> out) {
  FEDBIAD_CHECK(mu.size() == out.size(), "spike_slab_mean size mismatch");
  if (kept) {
    std::copy(mu.begin(), mu.end(), out.begin());
  } else {
    std::fill(out.begin(), out.end(), 0.0F);
  }
}

}  // namespace fedbiad::bayes
