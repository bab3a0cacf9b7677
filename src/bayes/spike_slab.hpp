// Spike-and-slab variational machinery (paper §III-C).
//
// Each weight row w_j follows π̃(w_j) = β_j·N(μ_j, s̃²I) + (1-β_j)·δ(0)
// (eq. 4). Sampling a local model θ^{k,0}_r ~ N(U_{r-1}, s̃²I) and then
// zeroing dropped rows realizes one draw from the variational posterior.
#pragma once

#include <span>

#include "tensor/rng.hpp"

namespace fedbiad::bayes {

/// Draws theta ~ N(u, s2·I) element-wise: theta[i] is exactly
/// float(u[i] + √s2·rng.normal()) for i = 0, 1, … in order, and `rng` ends
/// in exactly the state that loop leaves (cached deviate included, pending
/// or stale), so parameters, streams and checkpoints match it byte for
/// byte. It is tensor::draw_gaussian with sd = √s2, which runs whole
/// Box–Muller pairs through the certified vector kernel; the FEDBIAD_PORTABLE
/// build runs the same path with the kernel's scalar body. `theta` may alias
/// `u` (the same data); the two must not otherwise overlap.
void sample_gaussian(std::span<const float> u, double s2, tensor::Rng& rng,
                     std::span<float> theta);

/// KL(N(u, s2·I) ‖ N(0, prior_var·I)) summed over coordinates — the
/// regularization term of eq. 2, whose L2-like behaviour the tests verify
/// ("the second item ... approximates L2 regularisation").
double gaussian_kl(std::span<const float> u, double s2, double prior_var);

/// Mean of the spike-and-slab distribution for one row: β·μ (eq. 6 is the
/// row-wise stack of these).
void spike_slab_mean(std::span<const float> mu, bool kept,
                     std::span<float> out);

}  // namespace fedbiad::bayes
