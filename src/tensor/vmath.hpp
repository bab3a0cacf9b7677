// Vectorized elementwise transcendental math — the second pillar of the
// compute substrate next to tensor/gemm.hpp.
//
// After the matmuls moved onto the blocked GEMM, the training hot path
// shifted to per-element scalar libm calls: the LSTM gate loop (three
// sigmoids + two tanh per hidden unit per token), the softmax/cross-entropy
// exp sweeps, and the SGD update. These kernels replace them with
// polynomial SIMD implementations written with GNU vector extensions in the
// same style as gemm.cpp: codegen is pinned (no autovectorizer reliance),
// 256-bit lanes on x86-64-v3, 128-bit otherwise, and a scalar path that is
// the *same* templated core instantiated at float — so the `ref::` golden
// kernels and the vector kernels agree elementwise by construction.
//
// Accuracy contract (see docs/ARCHITECTURE.md "The vmath layer"):
//   - exp: Cody–Waite range reduction + degree-6 polynomial, ≤ ~2 ulp over
//     the whole finite range. Inputs are clamped to [-87.3, 88.3]; outputs
//     therefore saturate into [~1.21e-38, ~2.19e38] — never 0, inf, or
//     denormal (±inf inputs clamp too). Denormal inputs behave as 0. NaN
//     inputs are unsupported.
//   - tanh/sigmoid: built on exp (plus an odd polynomial below |x| < 0.625
//     for tanh, preserving relative accuracy through the linear regime);
//     ≤ ~4 ulp, exact saturation to ±1 / {0,1} limits for large |x|.
//   - row reductions (softmax denominators) accumulate in float, split
//     across vector lanes; the scalar ref accumulates left-to-right. The
//     two orders differ by O(n·eps) — golden traces pin the end-to-end
//     effect at 1e-6 relative tolerance across build variants.
//
// FEDBIAD_PORTABLE=ON compiles the library without -march *and* the vmath
// TUs with the FEDBIAD_PORTABLE macro, which routes every public kernel
// through its scalar path — the portable CI job therefore exercises the
// scalar fallback end-to-end, goldens included.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fedbiad::tensor::vmath {

/// y[i] = exp(x[i]). In-place safe (y may alias x).
void vexp(std::size_t n, const float* x, float* y);

/// y[i] = tanh(x[i]). In-place safe. No layer calls it: it is the tested
/// entry point to the tanh core that lstm_cell runs.
void vtanh(std::size_t n, const float* x, float* y);

/// y[i] = 1 / (1 + exp(-x[i])). In-place safe.
void vsigmoid(std::size_t n, const float* x, float* y);

/// y[i] = max(x[i], 0). In-place safe.
void relu(std::size_t n, const float* x, float* y);

/// g[i] = pre[i] > 0 ? g[i] : 0 — the ReLU backward mask.
void relu_backward(std::size_t n, const float* pre, float* g);

/// Fused SGD step: p[i] -= lr * (scale * g[i] + wd * p[i]), evaluated in
/// exactly that association. Within one build the vector body and the
/// scalar tail round identically, so splitting one call into several
/// (chunked) calls gives the same bits — nn::sgd_step's kept-row runs rely
/// on this. On GCC 12 the x86-64-v3 build contracts both to mul + fma +
/// fnma; the FEDBIAD_PORTABLE build does not contract, so the two builds do
/// NOT round identically to each other.
void sgd_axpy(std::size_t n, float* p, const float* g, float lr, float scale,
              float wd);

/// Fused four-gate LSTM cell update over one sample's gate buffer.
/// g4 holds the pre-activations [i | f | g | o], each block of length h,
/// and is activated IN PLACE (sigmoid, sigmoid, tanh, sigmoid); then
///   c[j]      = f·c_prev[j] + i·g      (c_prev == nullptr ⇒ c_prev ≡ 0)
///   tanh_c[j] = tanh(c[j])
///   h_out[j]  = o·tanh_c[j]
/// One pass over the buffer replaces five scalar libm calls per unit.
///
/// Every unit runs the same instructions (a partial last vector chunk goes
/// through a zero-padded tile), so a unit's outputs depend only on its own
/// inputs, never on h or its position: the cell over a compact buffer of a
/// sub-model's kept units equals the full-width call's kept columns bit for
/// bit.
void lstm_cell(std::size_t h, float* g4, const float* c_prev, float* c,
               float* tanh_c, float* h_out);

/// Fused softmax row kernel: writes g[i] = scale · softmax(z)[i] and
/// returns logsumexp(z) = max(z) + log(Σ exp(z - max)) — the two exp sweeps
/// plus the normalization of a softmax-cross-entropy row in one kernel.
/// The cross-entropy loss for label y is `logsumexp - z[y]`. In-place safe
/// (g may alias z). n must be ≥ 1.
float softmax_xent_row(std::size_t n, const float* z, float* g, float scale);

/// Reduction-only variant for evaluation: returns logsumexp(z).
float logsumexp(std::size_t n, const float* z);

// ---- certified double-lane kernels (tensor/vmath_certified.cpp) ----------
//
// These do not reproduce the rounding of the code they replace; each one
// computes a fast result with a rigorous error bound and keeps it only where
// the bound provably cannot change the rounded answer, handing the rest
// back to the exact code (docs/ARCHITECTURE.md "Certified kernels").

/// Certified Box–Muller draw over `pairs` uniform pairs (tensor::
/// draw_gaussian walks an Rng stream through it). Pair p's
/// exact result is the libm expression (Rng::box_muller, then the draw):
///   (zc, zs)   = Rng::box_muller(u1[p], u2[p])
///   y[2p]      = float(double(x[2p])   + sd·zc)
///   y[2p+1]    = float(double(x[2p+1]) + sd·zs)
/// evaluated in double without FMA contraction. For every pair whose two
/// results are proven equal to that expression, writes y[2p] and y[2p+1].
/// Every other pair is handed back: its index is appended to `handed_back`
/// (room for `pairs` entries) and y[2p..2p+2) is left untouched, so the
/// caller can recompute it from x even when y aliases x. Returns the number
/// of pairs handed back. Preconditions: sd ≥ 0; u1[p] ∈ (0, 1),
/// u2[p] ∈ [0, 1) (what Rng::box_muller_uniforms draws); y == x or the two
/// do not overlap.
std::size_t gaussian_pairs(std::size_t pairs, const double* u1,
                           const double* u2, const float* x, double sd,
                           float* y, std::uint32_t* handed_back);

/// The same draw over double bases, y[2p] = float(x[2p] + sd·zc) and so on:
/// the same pair computation and certificate, only the load of x differs.
/// y and x must not overlap.
std::size_t gaussian_pairs(std::size_t pairs, const double* u1,
                           const double* u2, const double* x, double sd,
                           float* y, std::uint32_t* handed_back);

/// Σ double(x[i])² accumulated in 4×4 double lanes (4×2 on 128-bit
/// targets). Every square is exact, so for n terms the result S bounds the
/// serial left-to-right sum S_ser (tensor::squared_norm) by
///   |S_ser − S| ≤ 4(n + 16)·2^-53·S;
/// callers combining several calls serially stay inside the same bound
/// with n the total count. Not bit-equal to the serial sum.
double sum_squares(std::size_t n, const float* x);

namespace ref {

/// Scalar golden kernels with identical contracts: the same polynomial
/// cores instantiated at float, one element at a time. These are the
/// public entry points under FEDBIAD_PORTABLE and on non-GNU compilers.
void vexp(std::size_t n, const float* x, float* y);
void vtanh(std::size_t n, const float* x, float* y);
void vsigmoid(std::size_t n, const float* x, float* y);
void relu(std::size_t n, const float* x, float* y);
void relu_backward(std::size_t n, const float* pre, float* g);
void sgd_axpy(std::size_t n, float* p, const float* g, float lr, float scale,
              float wd);
void lstm_cell(std::size_t h, float* g4, const float* c_prev, float* c,
               float* tanh_c, float* h_out);
float softmax_xent_row(std::size_t n, const float* z, float* g, float scale);
float logsumexp(std::size_t n, const float* z);

}  // namespace ref

}  // namespace fedbiad::tensor::vmath
