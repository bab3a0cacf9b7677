// Golden tests for the vectorized elementwise-math layer (tensor/vmath.hpp):
//  - vector kernels vs the scalar ref:: kernels at tight ulp bounds across
//    tile-edge-hostile lengths (in portable builds both sides are the same
//    scalar path, which keeps the equivalence contract under test there too);
//  - absolute/relative accuracy of the polynomial approximations against
//    double-precision libm over the full clamp range;
//  - the documented saturation behaviour on denormal / overflow / ±inf
//    inputs (see the accuracy contract in vmath.hpp);
//  - fused composites (lstm_cell, softmax_xent_row, sgd_axpy) against
//    compositions of the primitive refs;
//  - the certified sum of squares against its serial-sum bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/rng.hpp"
#include "tensor/vmath.hpp"

namespace fedbiad {
namespace {

namespace vm = tensor::vmath;

// Lengths that straddle every vector-lane boundary: sub-lane, exact
// multiples of 4/8/16, and one-past multiples.
const std::vector<std::size_t> kLengths = {1,  2,  3,  4,  5,  7,  8,
                                           9,  15, 16, 17, 31, 32, 33,
                                           63, 64, 65, 100, 257};

std::int32_t ulp_distance(float a, float b) {
  if (a == b) return 0;
  const auto ia = std::bit_cast<std::int32_t>(a);
  const auto ib = std::bit_cast<std::int32_t>(b);
  // Map the sign-magnitude float ordering onto a monotone integer line.
  const auto key = [](std::int32_t i) {
    return i < 0 ? std::numeric_limits<std::int32_t>::min() + (-i) : i;
  };
  const std::int64_t d =
      static_cast<std::int64_t>(key(ia)) - static_cast<std::int64_t>(key(ib));
  const std::int64_t mag = d < 0 ? -d : d;
  return mag > std::numeric_limits<std::int32_t>::max()
             ? std::numeric_limits<std::int32_t>::max()
             : static_cast<std::int32_t>(mag);
}

std::vector<float> ramp(std::size_t n, float lo, float hi) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = lo + (hi - lo) * static_cast<float>(i) /
                    static_cast<float>(n > 1 ? n - 1 : 1);
  }
  return v;
}

using Unary = void (*)(std::size_t, const float*, float*);

void expect_vector_matches_ref(Unary vec, Unary ref, float lo, float hi,
                               std::int32_t max_ulp, const char* what) {
  for (const std::size_t n : kLengths) {
    const auto x = ramp(n, lo, hi);
    std::vector<float> got(n), want(n);
    vec(n, x.data(), got.data());
    ref(n, x.data(), want.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LE(ulp_distance(got[i], want[i]), max_ulp)
          << what << " n=" << n << " x=" << x[i] << " got=" << got[i]
          << " want=" << want[i];
    }
  }
}

// The vector and scalar paths run the same polynomial in the same order;
// the only drift allowed is FMA contraction, ≤ 2 ulp through the tanh
// division.
TEST(VmathEquivalence, VectorMatchesRefWithinUlps) {
  expect_vector_matches_ref(vm::vexp, vm::ref::vexp, -90.0F, 90.0F, 2,
                            "vexp");
  expect_vector_matches_ref(vm::vtanh, vm::ref::vtanh, -12.0F, 12.0F, 2,
                            "vtanh");
  expect_vector_matches_ref(vm::vsigmoid, vm::ref::vsigmoid, -40.0F, 40.0F,
                            2, "vsigmoid");
  expect_vector_matches_ref(vm::relu, vm::ref::relu, -5.0F, 5.0F, 0, "relu");
}

TEST(VmathAccuracy, ExpWithinRelTolOfLibm) {
  // Dense sweep across the whole clamp range; ~2 ulp contract → 3e-7.
  for (double x = -87.0; x <= 88.0; x += 0.00737) {
    const auto xf = static_cast<float>(x);
    float y = 0.0F;
    vm::vexp(1, &xf, &y);
    const double want = std::exp(static_cast<double>(xf));
    EXPECT_NEAR(y, want, 3e-7 * want) << "x=" << xf;
  }
}

TEST(VmathAccuracy, TanhAndSigmoidWithinTolOfLibm) {
  for (double x = -30.0; x <= 30.0; x += 0.00311) {
    const auto xf = static_cast<float>(x);
    float t = 0.0F, s = 0.0F;
    vm::vtanh(1, &xf, &t);
    vm::vsigmoid(1, &xf, &s);
    const double want_t = std::tanh(static_cast<double>(xf));
    const double want_s = 1.0 / (1.0 + std::exp(-static_cast<double>(xf)));
    EXPECT_NEAR(t, want_t, 1e-6 + 5e-7 * std::abs(want_t)) << "x=" << xf;
    EXPECT_NEAR(s, want_s, 1e-6 + 5e-7 * want_s) << "x=" << xf;
  }
}

TEST(VmathAccuracy, TanhPreservesRelativeAccuracyNearZero) {
  // The odd-polynomial branch must not lose the leading x term.
  for (float x : {1e-8F, 1e-6F, 1e-4F, 0.01F, 0.1F, 0.5F, 0.624F}) {
    float t = 0.0F;
    vm::vtanh(1, &x, &t);
    const double want = std::tanh(static_cast<double>(x));
    EXPECT_NEAR(t, want, 1e-6 * std::abs(want) + 1e-30) << "x=" << x;
  }
}

TEST(VmathContract, SaturationAndSpecialInputs) {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = 1e-42F;
  const float cases[] = {-1e30F, 1e30F, -inf, inf, denorm, -denorm,
                         0.0F,   -0.0F, 200.0F, -200.0F};
  for (const float x : cases) {
    float e = -1.0F, t = -2.0F, s = -3.0F;
    vm::vexp(1, &x, &e);
    vm::vtanh(1, &x, &t);
    vm::vsigmoid(1, &x, &s);
    // exp saturates into (0, ~2.2e38]: finite, positive, normal.
    EXPECT_TRUE(std::isfinite(e)) << "x=" << x;
    EXPECT_GE(e, 1.17e-38F) << "x=" << x;
    EXPECT_LE(e, 2.3e38F) << "x=" << x;
    EXPECT_TRUE(std::isfinite(t));
    EXPECT_GE(t, -1.0F);
    EXPECT_LE(t, 1.0F);
    EXPECT_GE(s, 0.0F);
    EXPECT_LE(s, 1.0F);
  }
  float big = 200.0F, nbig = -200.0F, e = 0.0F;
  vm::vtanh(1, &big, &e);
  EXPECT_FLOAT_EQ(e, 1.0F);
  vm::vtanh(1, &nbig, &e);
  EXPECT_FLOAT_EQ(e, -1.0F);
  vm::vsigmoid(1, &big, &e);
  EXPECT_FLOAT_EQ(e, 1.0F);
  float zero = 0.0F;
  vm::vexp(1, &zero, &e);
  EXPECT_FLOAT_EQ(e, 1.0F);
}

TEST(VmathContract, ExpIsMonotoneAcrossReductionBoundaries) {
  // Range-reduction seams (multiples of ln2/2) must not break monotonicity.
  const auto xs = ramp(20001, -20.0F, 20.0F);
  std::vector<float> ys(xs.size());
  vm::vexp(xs.size(), xs.data(), ys.data());
  for (std::size_t i = 1; i < ys.size(); ++i) {
    EXPECT_LE(ys[i - 1], ys[i]) << "x=" << xs[i];
  }
}

TEST(VmathFused, AxpyAndSgdMatchRef) {
  tensor::Rng rng(71);
  for (const std::size_t n : kLengths) {
    std::vector<float> p(n), p2(n), g(n);
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = p2[i] = static_cast<float>(rng.uniform(-2, 2));
      g[i] = static_cast<float>(rng.uniform(-2, 2));
    }
    vm::sgd_axpy(n, p.data(), g.data(), 0.1F, 0.9F, 0.01F);
    vm::ref::sgd_axpy(n, p2.data(), g.data(), 0.1F, 0.9F, 0.01F);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LE(ulp_distance(p[i], p2[i]), 1) << "sgd n=" << n;
    }
  }
}

TEST(Vmath, SgdAxpyChunkingIsBitIdentical) {
  // The vector body and the scalar tail round alike, so one call and any
  // split of it into consecutive calls give the same bits — what
  // nn::sgd_step's kept-row runs rely on.
  tensor::Rng rng(73);
  const std::size_t n = 1031;
  std::vector<float> p(n), g(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<float>(rng.uniform(-2, 2));
    g[i] = static_cast<float>(rng.uniform(-2, 2));
  }
  std::vector<float> whole = p;
  vm::sgd_axpy(n, whole.data(), g.data(), 0.3F, 0.77F, 0.01F);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> chunked = p;
    for (std::size_t b = 0; b < n;) {
      const std::size_t len = std::min<std::size_t>(n - b,
                                                    rng.uniform_index(40));
      vm::sgd_axpy(len, chunked.data() + b, g.data() + b, 0.3F, 0.77F, 0.01F);
      b += len;
    }
    ASSERT_EQ(std::memcmp(chunked.data(), whole.data(), n * sizeof(float)), 0)
        << "trial " << trial;
  }
}

TEST(Vmath, SumSquaresBoundsTheSerialSum) {
  tensor::Rng rng(79);
  for (const std::size_t n : {0, 1, 15, 16, 17, 100, 4099, 101770}) {
    std::vector<float> x(n);
    for (float& v : x) v = static_cast<float>(rng.uniform(-1e3, 1e3));
    double serial = 0.0;
    for (const float v : x) serial += static_cast<double>(v) * v;
    const double lanes = vm::sum_squares(n, x.data());
    const double slack = 4.0 * static_cast<double>(n + 16) * 0x1p-53;
    EXPECT_LE(std::fabs(serial - lanes), slack * lanes) << "n=" << n;
  }
}

TEST(VmathFused, LstmCellMatchesComposedRef) {
  tensor::Rng rng(73);
  for (const std::size_t h : kLengths) {
    std::vector<float> g4(4 * h), g4r, c_prev(h), c(h), tc(h), ho(h), cr(h),
        tcr(h), hor(h);
    for (auto& v : g4) v = static_cast<float>(rng.uniform(-6, 6));
    for (auto& v : c_prev) v = static_cast<float>(rng.uniform(-2, 2));
    g4r = g4;
    vm::lstm_cell(h, g4.data(), c_prev.data(), c.data(), tc.data(),
                  ho.data());
    vm::ref::lstm_cell(h, g4r.data(), c_prev.data(), cr.data(), tcr.data(),
                       hor.data());
    for (std::size_t j = 0; j < 4 * h; ++j) {
      EXPECT_LE(ulp_distance(g4[j], g4r[j]), 4) << "gates h=" << h;
    }
    for (std::size_t j = 0; j < h; ++j) {
      EXPECT_LE(ulp_distance(c[j], cr[j]), 8) << "c h=" << h;
      EXPECT_LE(ulp_distance(tc[j], tcr[j]), 8) << "tanh_c h=" << h;
      EXPECT_LE(ulp_distance(ho[j], hor[j]), 8) << "h h=" << h;
    }
    // And the no-previous-cell form.
    vm::lstm_cell(h, g4.data(), nullptr, c.data(), tc.data(), ho.data());
  }
}

TEST(VmathFused, SoftmaxXentRowMatchesDoubleReference) {
  tensor::Rng rng(79);
  for (const std::size_t n : kLengths) {
    std::vector<float> z(n), g(n);
    for (auto& v : z) v = static_cast<float>(rng.uniform(-8, 8));
    const float lse = vm::softmax_xent_row(n, z.data(), g.data(), 0.5F);

    double mx = z[0];
    for (const float v : z) mx = std::max(mx, static_cast<double>(v));
    double denom = 0.0;
    for (const float v : z) denom += std::exp(static_cast<double>(v) - mx);
    const double want_lse = mx + std::log(denom);
    EXPECT_NEAR(lse, want_lse, 1e-5 * std::max(1.0, std::abs(want_lse)))
        << "n=" << n;
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double want =
          0.5 * std::exp(static_cast<double>(z[i]) - mx) / denom;
      EXPECT_NEAR(g[i], want, 1e-6 + 1e-5 * want) << "n=" << n;
      sum += g[i];
    }
    EXPECT_NEAR(sum, 0.5, 1e-5) << "n=" << n;

    // Reduction-only variant agrees with the writing kernel.
    EXPECT_NEAR(vm::logsumexp(n, z.data()), lse,
                1e-6 * std::max(1.0F, std::abs(lse)));
  }
}

TEST(VmathFused, SoftmaxXentRowHandlesExtremeSpread) {
  // A row whose max dominates: no overflow, one-hot output.
  std::vector<float> z = {-500.0F, 0.0F, 700.0F, -1e30F, 3.0F};
  std::vector<float> g(z.size());
  const float lse = vm::softmax_xent_row(z.size(), z.data(), g.data(), 1.0F);
  EXPECT_FLOAT_EQ(lse, 700.0F);
  EXPECT_FLOAT_EQ(g[2], 1.0F);
  EXPECT_NEAR(g[0], 0.0F, 1e-12F);
  EXPECT_NEAR(g[3], 0.0F, 1e-12F);
  // All-equal row: uniform output.
  std::vector<float> flat(7, 2.5F), gf(7);
  vm::softmax_xent_row(flat.size(), flat.data(), gf.data(), 1.0F);
  for (const float v : gf) EXPECT_NEAR(v, 1.0F / 7.0F, 1e-6F);
}

TEST(VmathFused, SoftmaxXentRowInPlace) {
  std::vector<float> z = ramp(33, -3.0F, 3.0F);
  std::vector<float> expect(z.size());
  vm::softmax_xent_row(z.size(), z.data(), expect.data(), 1.0F);
  vm::softmax_xent_row(z.size(), z.data(), z.data(), 1.0F);  // alias
  for (std::size_t i = 0; i < z.size(); ++i) {
    EXPECT_FLOAT_EQ(z[i], expect[i]);
  }
}

TEST(VmathFused, ReluBackwardMasksNonPositive) {
  const std::vector<float> pre = {-1.0F, 0.0F, 2.0F, -0.0F, 1e-20F};
  std::vector<float> g = {1.0F, 2.0F, 3.0F, 4.0F, 5.0F};
  std::vector<float> g2 = g;
  vm::relu_backward(pre.size(), pre.data(), g.data());
  vm::ref::relu_backward(pre.size(), pre.data(), g2.data());
  const std::vector<float> want = {0.0F, 0.0F, 3.0F, 0.0F, 5.0F};
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_FLOAT_EQ(g[i], want[i]) << i;
    EXPECT_FLOAT_EQ(g2[i], want[i]) << i;
  }
}

}  // namespace
}  // namespace fedbiad
