// Tests for the Bayesian machinery: eq. 13/14/15 calculators, minimax-rate
// helpers, and spike-and-slab sampling.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "bayes/spike_slab.hpp"
#include "bayes/theory.hpp"
#include "common/check.hpp"
#include "tensor/gaussian_draw.hpp"
#include "tensor/rng.hpp"
#include "tensor/vmath.hpp"

namespace fedbiad::bayes {
namespace {

ModelStructure small_structure() {
  return {.sparsity = 1000,
          .layers = 2,
          .width = 128,
          .input = 64,
          .weight_bound = 2.0};
}

TEST(Theory, MinClientDataFollowsPaperFormula) {
  EXPECT_EQ(min_client_data(10, 20, 50), 10u * 20 * 50);
  EXPECT_EQ(min_client_data(0, 20, 50), 0u);
}

TEST(Theory, PosteriorVarianceIsPositiveAndTiny) {
  const double s2 = posterior_variance(small_structure(), 10000);
  EXPECT_GT(s2, 0.0);
  EXPECT_LT(s2, 1e-6);  // (2BD)^{-2L} decay makes eq. 13 minuscule
}

TEST(Theory, PosteriorVarianceDecreasesWithSamples) {
  const auto s = small_structure();
  EXPECT_GT(posterior_variance(s, 100), posterior_variance(s, 1000));
  EXPECT_GT(posterior_variance(s, 1000), posterior_variance(s, 100000));
}

TEST(Theory, PosteriorVarianceDecreasesWithDepth) {
  auto shallow = small_structure();
  auto deep = small_structure();
  deep.layers = 4;
  EXPECT_GT(posterior_variance(shallow, 1000),
            posterior_variance(deep, 1000));
}

TEST(Theory, PosteriorVarianceScalesWithSparsity) {
  auto a = small_structure();
  auto b = small_structure();
  b.sparsity = 2 * a.sparsity;
  EXPECT_NEAR(posterior_variance(b, 1000) / posterior_variance(a, 1000), 2.0,
              1e-9);
}

TEST(Theory, PosteriorVarianceRejectsInvalidStructure) {
  auto s = small_structure();
  s.weight_bound = 1.0;  // violates Assumption 2 (B >= 2)
  EXPECT_THROW(posterior_variance(s, 100), fedbiad::CheckError);
  s = small_structure();
  s.sparsity = 0;
  EXPECT_THROW(posterior_variance(s, 100), fedbiad::CheckError);
}

TEST(Theory, EpsilonBoundDecaysWithData) {
  const auto s = small_structure();
  // eq. 15 is O(S·log(m)/m): strictly decreasing in m for large m.
  double prev = epsilon_bound(s, 1000);
  for (const std::size_t m : {10000, 100000, 1000000}) {
    const double cur = epsilon_bound(s, m);
    EXPECT_LT(cur, prev);
    prev = cur;
  }
}

TEST(Theory, EpsilonBoundGrowsWithSparsityAndDepth) {
  auto s = small_structure();
  const double base = epsilon_bound(s, 10000);
  auto wider = s;
  wider.sparsity *= 2;
  EXPECT_GT(epsilon_bound(wider, 10000), base);
  auto deeper = s;
  deeper.layers += 2;
  EXPECT_GT(epsilon_bound(deeper, 10000), base);
}

TEST(Theory, GeneralizationBoundCombinesTerms) {
  // eq. 14 with ξ̄ = 0 reduces to the ε term; adding ξ̄ adds 2ξ̄/(1-α).
  const double eps = 0.01;
  const double base = generalization_bound(0.5, 1.0, eps, 0.0);
  EXPECT_GT(base, 0.0);
  const double with_xi = generalization_bound(0.5, 1.0, eps, 0.1);
  EXPECT_NEAR(with_xi - base, 2.0 * 0.1 / 0.5, 1e-12);
}

TEST(Theory, GeneralizationBoundRejectsBadTempering) {
  EXPECT_THROW(generalization_bound(0.0, 1.0, 0.1, 0.0), fedbiad::CheckError);
  EXPECT_THROW(generalization_bound(1.0, 1.0, 0.1, 0.0), fedbiad::CheckError);
  EXPECT_THROW(generalization_bound(0.5, 0.0, 0.1, 0.0), fedbiad::CheckError);
}

TEST(Theory, MinimaxRateMatchesClosedForm) {
  // gamma = d/2 gives exponent -1/2.
  EXPECT_NEAR(minimax_rate(10000, 2.0, 4), 1.0 / 100.0, 1e-9);
  EXPECT_NEAR(minimax_rate(256, 1.0, 2), std::pow(256.0, -0.5), 1e-9);
}

TEST(Theory, HolderBoundIsRateTimesSquaredLog) {
  const std::size_t m = 100000;
  const double rate = minimax_rate(m, 1.5, 8);
  const double bound = holder_upper_bound(m, 1.5, 8, 3.0);
  const double lg = std::log(static_cast<double>(m));
  EXPECT_NEAR(bound, 3.0 * rate * lg * lg, 1e-12);
}

TEST(Theory, UpperBoundDominatesLowerBoundUpToLogFactor) {
  // The paper's conclusion: upper (eq. 17) / lower (eq. 18) = O(log² m) —
  // i.e. the ratio divided by log²m stays bounded as m grows.
  const double gamma = 2.0;
  const std::size_t d = 16;
  double prev_ratio = 1e300;
  for (const std::size_t m : {1000, 10000, 100000, 1000000}) {
    const double upper = holder_upper_bound(m, gamma, d, 1.0);
    const double lower = minimax_rate(m, gamma, d);
    const double lg = std::log(static_cast<double>(m));
    const double normalized = upper / (lower * lg * lg);
    EXPECT_NEAR(normalized, 1.0, 1e-9);
    prev_ratio = normalized;
  }
  (void)prev_ratio;
}

TEST(SpikeSlab, SampleGaussianMatchesMoments) {
  tensor::Rng rng(61);
  std::vector<float> u(20000, 2.0F);
  std::vector<float> theta(u.size());
  sample_gaussian(u, 0.25, rng, theta);
  double mean = 0.0;
  for (float t : theta) mean += t;
  mean /= static_cast<double>(theta.size());
  double var = 0.0;
  for (float t : theta) var += (t - mean) * (t - mean);
  var /= static_cast<double>(theta.size());
  EXPECT_NEAR(mean, 2.0, 0.02);
  EXPECT_NEAR(var, 0.25, 0.02);
}

TEST(SpikeSlab, ZeroVarianceIsIdentity) {
  tensor::Rng rng(67);
  std::vector<float> u{1.0F, -2.0F, 3.0F};
  std::vector<float> theta(3);
  sample_gaussian(u, 0.0, rng, theta);
  EXPECT_EQ(theta[0], 1.0F);
  EXPECT_EQ(theta[1], -2.0F);
  EXPECT_EQ(theta[2], 3.0F);
}

TEST(SpikeSlab, SampleGaussianAllowsAliasing) {
  tensor::Rng rng(71);
  std::vector<float> u{5.0F, 5.0F};
  sample_gaussian(u, 1e-6, rng, u);
  EXPECT_NEAR(u[0], 5.0F, 0.01F);
}

/// The posterior draw as a plain libm loop: the oracle the certified
/// sampler must match bit for bit, parameters and stream state alike.
void libm_draw(std::span<const float> u, double s2, tensor::Rng& rng,
               std::span<float> theta) {
  const double sd = std::sqrt(s2);
  for (std::size_t i = 0; i < u.size(); ++i) {
    theta[i] = static_cast<float>(u[i] + sd * rng.normal());
  }
}

/// Small weights with a special value every seventh coordinate: ±0,
/// denormals, huge magnitudes and a NaN.
std::vector<float> draw_inputs(std::size_t n, tensor::Rng& rng) {
  const float specials[] = {0.0F,
                            -0.0F,
                            std::numeric_limits<float>::denorm_min(),
                            -3.0e-39F,
                            std::numeric_limits<float>::max(),
                            -std::numeric_limits<float>::max(),
                            1.0e30F,
                            -2.5e20F,
                            std::numeric_limits<float>::quiet_NaN()};
  std::vector<float> u(n);
  for (std::size_t i = 0; i < n; ++i) {
    u[i] = i % 7 == 3 ? specials[(i / 7) % std::size(specials)]
                      : static_cast<float>(rng.uniform(-0.1, 0.1));
  }
  return u;
}

void expect_same_state(const tensor::Rng& got, const tensor::Rng& want) {
  const tensor::Rng::State a = got.state();
  const tensor::Rng::State b = want.state();
  EXPECT_EQ(std::memcmp(a.s, b.s, sizeof(a.s)), 0);
  EXPECT_EQ(std::memcmp(&a.cached_normal, &b.cached_normal, sizeof(double)),
            0);
  EXPECT_EQ(a.has_cached_normal, b.has_cached_normal);
}

TEST(SpikeSlab, CertifiedDrawMatchesLibmLoop) {
  tensor::Rng gen(83);
  for (const double sd : {0.0, 1e-18, 1.8e-10, 1e-3, 0.3, 50.0}) {
    for (const std::size_t n : {0, 1, 2, 3, 7, 4097, 101770}) {
      const std::vector<float> u = draw_inputs(n, gen);
      for (const bool cached : {false, true}) {
        for (const bool aliased : {false, true}) {
          SCOPED_TRACE(testing::Message() << "sd=" << sd << " n=" << n
                                          << " cached=" << cached
                                          << " aliased=" << aliased);
          tensor::Rng want_rng(1000 + n);
          if (cached) (void)want_rng.normal();
          tensor::Rng got_rng = want_rng;
          std::vector<float> want(n);
          libm_draw(u, sd * sd, want_rng, want);
          std::vector<float> got(n);
          if (aliased) {
            got = u;
            sample_gaussian(got, sd * sd, got_rng, got);
          } else {
            sample_gaussian(u, sd * sd, got_rng, got);
          }
          EXPECT_TRUE(n == 0 || std::memcmp(got.data(), want.data(),
                                            n * sizeof(float)) == 0);
          expect_same_state(got_rng, want_rng);
        }
      }
    }
  }
}

TEST(SpikeSlab, CertifiedKernelHandsBackUndecidablePairs) {
  // At s̃ = 0.3 a draw of 101,770 weights puts some outputs within the
  // kernel's error bound of a float rounding boundary: those pairs must be
  // handed back untouched, and every other pair must equal the libm value.
  constexpr std::size_t kPairs = 101770 / 2;
  constexpr double kSd = 0.3;
  tensor::Rng rng(89);
  std::vector<float> x(2 * kPairs);
  for (float& v : x) v = static_cast<float>(rng.uniform(-0.1, 0.1));
  std::vector<double> u1(kPairs), u2(kPairs);
  rng.box_muller_uniforms(u1.data(), u2.data(), kPairs);
  const float kUntouched = -7.0F;
  std::vector<float> y(2 * kPairs, kUntouched);
  std::vector<std::uint32_t> handed_back(kPairs);
  const std::size_t handed = tensor::vmath::gaussian_pairs(
      kPairs, u1.data(), u2.data(), x.data(), kSd, y.data(),
      handed_back.data());
  EXPECT_GT(handed, 0u);
  EXPECT_LT(handed, kPairs / 100);
  std::vector<bool> back(kPairs, false);
  for (std::size_t k = 0; k < handed; ++k) back[handed_back[k]] = true;
  for (std::size_t p = 0; p < kPairs; ++p) {
    const auto [z_cos, z_sin] = tensor::Rng::box_muller(u1[p], u2[p]);
    const float yc = static_cast<float>(x[2 * p] + kSd * z_cos);
    const float ys = static_cast<float>(x[2 * p + 1] + kSd * z_sin);
    const float want_c = back[p] ? kUntouched : yc;
    const float want_s = back[p] ? kUntouched : ys;
    ASSERT_EQ(std::memcmp(&y[2 * p], &want_c, sizeof(float)), 0) << p;
    ASSERT_EQ(std::memcmp(&y[2 * p + 1], &want_s, sizeof(float)), 0) << p;
  }
}

TEST(SpikeSlab, CertifiedKernelOverDoubleBasesHandsBackUndecidablePairs) {
  // The double-base overload (the image noise draw) at the same s̃: the same
  // certificate, bases that no float holds.
  constexpr std::size_t kPairs = 101770 / 2;
  constexpr double kSd = 0.3;
  tensor::Rng rng(91);
  std::vector<double> x(2 * kPairs);
  for (double& v : x) v = rng.uniform(-0.1, 1.1);
  std::vector<double> u1(kPairs), u2(kPairs);
  rng.box_muller_uniforms(u1.data(), u2.data(), kPairs);
  const float kUntouched = -7.0F;
  std::vector<float> y(2 * kPairs, kUntouched);
  std::vector<std::uint32_t> handed_back(kPairs);
  const std::size_t handed = tensor::vmath::gaussian_pairs(
      kPairs, u1.data(), u2.data(), x.data(), kSd, y.data(),
      handed_back.data());
  EXPECT_GT(handed, 0u);
  EXPECT_LT(handed, kPairs / 100);
  std::vector<bool> back(kPairs, false);
  for (std::size_t k = 0; k < handed; ++k) back[handed_back[k]] = true;
  for (std::size_t p = 0; p < kPairs; ++p) {
    const auto [z_cos, z_sin] = tensor::Rng::box_muller(u1[p], u2[p]);
    const float yc = static_cast<float>(x[2 * p] + kSd * z_cos);
    const float ys = static_cast<float>(x[2 * p + 1] + kSd * z_sin);
    const float want_c = back[p] ? kUntouched : yc;
    const float want_s = back[p] ? kUntouched : ys;
    ASSERT_EQ(std::memcmp(&y[2 * p], &want_c, sizeof(float)), 0) << p;
    ASSERT_EQ(std::memcmp(&y[2 * p + 1], &want_s, sizeof(float)), 0) << p;
  }
}

TEST(SpikeSlab, CertifiedDrawOverDoubleBasesMatchesLibmLoop) {
  tensor::Rng gen(101);
  for (const double sd : {0.0, 0.45, 3.0}) {
    for (const std::size_t n : {0, 1, 2, 3, 7, 784, 4097}) {
      std::vector<double> x(n);
      for (double& v : x) v = gen.uniform(0.0, 1.2);
      for (const bool cached : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "sd=" << sd << " n=" << n << " cached=" << cached);
        tensor::Rng want_rng(2000 + n);
        if (cached) (void)want_rng.normal();
        tensor::Rng got_rng = want_rng;
        std::vector<float> want(n);
        for (std::size_t i = 0; i < n; ++i) {
          want[i] = static_cast<float>(x[i] + sd * want_rng.normal());
        }
        std::vector<float> got(n);
        tensor::draw_gaussian(std::span<const double>(x), sd, got_rng, got);
        EXPECT_TRUE(n == 0 || std::memcmp(got.data(), want.data(),
                                          n * sizeof(float)) == 0);
        expect_same_state(got_rng, want_rng);
      }
    }
  }
}

TEST(SpikeSlab, BoxMullerUniformsReplayNormal) {
  tensor::Rng a(97);
  tensor::Rng b = a;
  std::vector<double> u1(33), u2(33);
  a.box_muller_uniforms(u1.data(), u2.data(), u1.size());
  for (std::size_t p = 0; p < u1.size(); ++p) {
    const auto [z_cos, z_sin] = tensor::Rng::box_muller(u1[p], u2[p]);
    EXPECT_EQ(z_cos, b.normal());
    EXPECT_EQ(z_sin, b.normal());
  }
  EXPECT_EQ(a.next_u64(), b.next_u64());
  (void)a.normal();
  EXPECT_THROW(a.box_muller_uniforms(u1.data(), u2.data(), 1), CheckError);
}

TEST(SpikeSlab, KlBehavesLikeL2) {
  // With fixed variances the KL term grows exactly quadratically in ‖u‖ —
  // the paper's "approximates L2 regularisation" remark (eq. 2).
  std::vector<float> u1{1.0F, 0.0F};
  std::vector<float> u2{2.0F, 0.0F};
  const double kl0 = gaussian_kl(std::vector<float>{0.0F, 0.0F}, 0.01, 1.0);
  const double kl1 = gaussian_kl(u1, 0.01, 1.0);
  const double kl2 = gaussian_kl(u2, 0.01, 1.0);
  EXPECT_NEAR((kl2 - kl0) / (kl1 - kl0), 4.0, 1e-9);
}

TEST(SpikeSlab, KlIsZeroForMatchingDistributions) {
  std::vector<float> u{0.0F, 0.0F, 0.0F};
  EXPECT_NEAR(gaussian_kl(u, 1.0, 1.0), 0.0, 1e-12);
}

TEST(SpikeSlab, MeanZeroesDroppedRows) {
  std::vector<float> mu{1.0F, 2.0F};
  std::vector<float> out(2, 9.0F);
  spike_slab_mean(mu, false, out);
  EXPECT_EQ(out[0], 0.0F);
  spike_slab_mean(mu, true, out);
  EXPECT_EQ(out[1], 2.0F);
}

}  // namespace
}  // namespace fedbiad::bayes
