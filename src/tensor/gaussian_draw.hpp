// One Gaussian draw per coordinate, walked along an Rng stream through the
// certified Box–Muller kernel (vmath::gaussian_pairs). The posterior sample
// (bayes::sample_gaussian) and the synthetic images' pixel noise
// (data/image_synth.cpp) both draw through it.
#pragma once

#include <span>

#include "tensor/rng.hpp"

namespace fedbiad::tensor {

/// y[i] = float(x[i] + sd·rng.normal()) for i = 0, 1, … in order, the sum
/// and product rounded separately in double, and `rng` ends in exactly the
/// state that loop leaves (cached deviate included, pending or stale). A
/// deviate pending on entry goes to y[0]; whole Box–Muller pairs run through
/// the certified kernel in blocks, and the pairs it hands back are
/// recomputed through Rng::box_muller; the last one or two coordinates take
/// normal() itself. Preconditions: sd ≥ 0; x.size() == y.size(). The float
/// overload allows y to alias x (the same data); otherwise the two must not
/// overlap.
void draw_gaussian(std::span<const float> x, double sd, Rng& rng,
                   std::span<float> y);
void draw_gaussian(std::span<const double> x, double sd, Rng& rng,
                   std::span<float> y);

}  // namespace fedbiad::tensor
