#include "bayes/spike_slab.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "tensor/gaussian_draw.hpp"

namespace fedbiad::bayes {

void sample_gaussian(std::span<const float> u, double s2, tensor::Rng& rng,
                     std::span<float> theta) {
  FEDBIAD_CHECK(s2 >= 0.0, "variance must be non-negative");
  tensor::draw_gaussian(u, std::sqrt(s2), rng, theta);
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
