#include "tensor/gaussian_draw.hpp"

#include <algorithm>
#include <cstdint>

#include "common/check.hpp"
#include "tensor/vmath.hpp"

namespace fedbiad::tensor {

namespace {

// One coordinate of the draw, exactly as the libm loop computes it. This TU
// is built without FMA contraction (see src/CMakeLists.txt): the certified
// kernel proves its floats equal to this expression with the product and
// the sum rounded separately.
template <typename X>
float draw(X x, double sd, double z) {
  return static_cast<float>(static_cast<double>(x) + sd * z);
}

template <typename X>
void walk(std::span<const X> x, double sd, Rng& rng, std::span<float> y) {
  FEDBIAD_CHECK(x.size() == y.size(), "draw_gaussian size mismatch");
  FEDBIAD_CHECK(sd >= 0.0, "draw_gaussian needs sd >= 0");
  const std::size_t n = x.size();
  std::size_t i = 0;
  // A pending cached deviate belongs to the first coordinate.
  if (n > 0 && rng.has_cached_normal()) {
    y[0] = draw(x[0], sd, rng.normal());
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
    const std::size_t handed = vmath::gaussian_pairs(
        pairs, u1, u2, x.data() + i, sd, y.data() + i, handed_back);
    for (std::size_t k = 0; k < handed; ++k) {
      const std::size_t p = handed_back[k];
      const std::size_t at = i + 2 * p;
      const auto [z_cos, z_sin] = Rng::box_muller(u1[p], u2[p]);
      y[at] = draw(x[at], sd, z_cos);
      y[at + 1] = draw(x[at + 1], sd, z_sin);
    }
    i += 2 * pairs;
  }
  for (; i < n; ++i) y[i] = draw(x[i], sd, rng.normal());
}

}  // namespace

void draw_gaussian(std::span<const float> x, double sd, Rng& rng,
                   std::span<float> y) {
  walk(x, sd, rng, y);
}

void draw_gaussian(std::span<const double> x, double sd, Rng& rng,
                   std::span<float> y) {
  walk(x, sd, rng, y);
}

}  // namespace fedbiad::tensor
