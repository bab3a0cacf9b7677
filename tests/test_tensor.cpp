// Unit tests for the tensor substrate: Matrix, kernels, and the RNG.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "common/check.hpp"
#include "tensor/gemm.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"
#include "tensor/vmath.hpp"

namespace fedbiad::tensor {
namespace {

TEST(Matrix, ConstructsWithFill) {
  Matrix m(3, 4, 2.5F);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_FLOAT_EQ(m(r, c), 2.5F);
    }
  }
}

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
}

TEST(Matrix, RowViewAliasesStorage) {
  Matrix m(2, 3);
  m.row(1)[2] = 7.0F;
  EXPECT_FLOAT_EQ(m(1, 2), 7.0F);
}

TEST(Matrix, AtThrowsOutOfRange) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), fedbiad::CheckError);
  EXPECT_THROW(m.at(0, 2), fedbiad::CheckError);
  EXPECT_NO_THROW(m.at(1, 1));
}

TEST(Matrix, ResizeChangesShape) {
  Matrix m(2, 2, 1.0F);
  m.resize(4, 5);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 5u);
  EXPECT_EQ(m.size(), 20u);
}

TEST(Matrix, FillNormalHasRoughMoments) {
  Rng rng(7);
  Matrix m(100, 100);
  m.fill_normal(rng, 1.0F, 2.0F);
  double mean = 0.0;
  for (float v : m.flat()) mean += v;
  mean /= static_cast<double>(m.size());
  double var = 0.0;
  for (float v : m.flat()) var += (v - mean) * (v - mean);
  var /= static_cast<double>(m.size());
  EXPECT_NEAR(mean, 1.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Ops, DotAndNorm) {
  std::vector<float> a{1.0F, 2.0F, 2.0F};
  std::vector<float> b{3.0F, 0.0F, -1.0F};
  EXPECT_DOUBLE_EQ(dot(a, b), 1.0);
  EXPECT_DOUBLE_EQ(squared_norm(a), 9.0);
}

TEST(Ops, ScaleAndFill) {
  std::vector<float> x{1.0F, -2.0F};
  fill(std::span<float>(x), 0.5F);
  EXPECT_FLOAT_EQ(x[0], 0.5F);
  EXPECT_FLOAT_EQ(x[1], 0.5F);
}

// The Dense-layout forward out = x · Wᵀ through the blocked GEMM.
Matrix gemm_xwt(const Matrix& x, const Matrix& w) {
  Matrix out(x.rows(), w.rows());
  gemm_abt(x.rows(), w.rows(), x.cols(), x.data(), x.cols(), w.data(),
           w.cols(), out.data(), out.cols());
  return out;
}

// Reference naive GEMM for checking the parallel kernels.
Matrix naive_xwt(const Matrix& x, const Matrix& w) {
  Matrix out(x.rows(), w.rows());
  for (std::size_t b = 0; b < x.rows(); ++b) {
    for (std::size_t o = 0; o < w.rows(); ++o) {
      float acc = 0.0F;
      for (std::size_t i = 0; i < x.cols(); ++i) acc += x(b, i) * w(o, i);
      out(b, o) = acc;
    }
  }
  return out;
}

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, MatmulXwtMatchesNaive) {
  const auto [batch, in, out_dim] = GetParam();
  Rng rng(11);
  Matrix x(batch, in);
  Matrix w(out_dim, in);
  x.fill_uniform(rng, -1.0F, 1.0F);
  w.fill_uniform(rng, -1.0F, 1.0F);
  const Matrix got = gemm_xwt(x, w);
  const Matrix want = naive_xwt(x, w);
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.flat()[i], want.flat()[i], 1e-4F);
  }
}

TEST_P(GemmShapes, BackwardKernelsAreAdjoint) {
  // <g, x·Wᵀ> must equal <gᵀ·x, W> and <g·W, x> — the defining adjoint
  // relations that make backprop correct.
  const auto [batch, in, out_dim] = GetParam();
  Rng rng(13);
  Matrix x(batch, in);
  Matrix w(out_dim, in);
  Matrix g(batch, out_dim);
  x.fill_uniform(rng, -1.0F, 1.0F);
  w.fill_uniform(rng, -1.0F, 1.0F);
  g.fill_uniform(rng, -1.0F, 1.0F);

  const Matrix y = gemm_xwt(x, w);
  const double lhs = dot(g.flat(), y.flat());

  Matrix dw(out_dim, in, 0.0F);  // dW += gᵀ · x
  gemm_atb(out_dim, in, batch, g.data(), g.cols(), x.data(), x.cols(),
           dw.data(), dw.cols());
  const double rhs_w = dot(dw.flat(), w.flat());
  EXPECT_NEAR(lhs, rhs_w, 1e-3 * std::max(1.0, std::abs(lhs)));

  Matrix gx(batch, in);  // gx = g · W
  gemm_ab(batch, in, out_dim, g.data(), g.cols(), w.data(), w.cols(),
          gx.data(), gx.cols());
  const double rhs_x = dot(gx.flat(), x.flat());
  EXPECT_NEAR(lhs, rhs_x, 1e-3 * std::max(1.0, std::abs(lhs)));
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmShapes,
                         ::testing::Values(std::tuple{1, 1, 1},
                                           std::tuple{2, 3, 4},
                                           std::tuple{7, 16, 5},
                                           std::tuple{32, 64, 48},
                                           std::tuple{64, 100, 128}));

// Row-wise softmax in place through the fused softmax-cross-entropy kernel.
void softmax_each_row(Matrix& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    auto row = m.row(r);
    vmath::softmax_xent_row(row.size(), row.data(), row.data(), 1.0F);
  }
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(3);
  Matrix m(5, 10);
  m.fill_uniform(rng, -4.0F, 4.0F);
  softmax_each_row(m);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double s = 0.0;
    for (float v : m.row(r)) {
      EXPECT_GE(v, 0.0F);
      s += v;
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(Ops, SoftmaxIsShiftInvariantAndStable) {
  Matrix a(1, 3);
  a(0, 0) = 1000.0F;
  a(0, 1) = 1001.0F;
  a(0, 2) = 1002.0F;
  softmax_each_row(a);
  Matrix b(1, 3);
  b(0, 0) = 0.0F;
  b(0, 1) = 1.0F;
  b(0, 2) = 2.0F;
  softmax_each_row(b);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(a(0, c), b(0, c), 1e-6F);
  }
}

TEST(Ops, ArgmaxPicksLargest) {
  std::vector<float> x{0.1F, 3.0F, -2.0F, 3.0F};
  EXPECT_EQ(argmax(x), 1u);  // first of the tied maxima
}

TEST(Ops, InTopKBasics) {
  std::vector<float> x{0.1F, 0.9F, 0.5F, 0.3F};
  EXPECT_TRUE(in_top_k(x, 1, 1));
  EXPECT_FALSE(in_top_k(x, 2, 1));
  EXPECT_TRUE(in_top_k(x, 2, 2));
  EXPECT_TRUE(in_top_k(x, 3, 3));
  EXPECT_FALSE(in_top_k(x, 0, 3));
  EXPECT_TRUE(in_top_k(x, 0, 4));
}

TEST(Ops, InTopKHandlesTies) {
  std::vector<float> x{1.0F, 1.0F, 1.0F};
  // Ties broken toward lower indices: exactly k slots are awarded.
  EXPECT_TRUE(in_top_k(x, 0, 1));
  EXPECT_FALSE(in_top_k(x, 1, 1));
  EXPECT_TRUE(in_top_k(x, 1, 2));
  EXPECT_FALSE(in_top_k(x, 2, 2));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng parent(99);
  Rng c1 = parent.split(1);
  Rng c2 = parent.split(2);
  Rng c1_again = parent.split(1);
  EXPECT_EQ(c1.next_u64(), c1_again.next_u64());
  EXPECT_NE(c1.next_u64(), c2.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexCoversRangeUniformly) {
  Rng rng(17);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(10)];
  for (const int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
  }
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_index(0), fedbiad::CheckError);
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  double mean = 0.0, m2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    mean += x;
    m2 += x * x;
  }
  mean /= n;
  m2 /= n;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(m2 - mean * mean, 1.0, 0.03);
}

TEST(Rng, BernoulliRate) {
  Rng rng(31);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(37);
  std::vector<double> w{1.0, 2.0, 7.0};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.categorical(w)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.2, 0.015);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.7, 0.02);
}

TEST(Rng, CategoricalRejectsInvalidWeights) {
  Rng rng(1);
  std::vector<double> neg{1.0, -0.5};
  EXPECT_THROW(rng.categorical(neg), fedbiad::CheckError);
  std::vector<double> zeros{0.0, 0.0};
  EXPECT_THROW(rng.categorical(zeros), fedbiad::CheckError);
  std::vector<double> empty;
  EXPECT_THROW(rng.categorical(empty), fedbiad::CheckError);
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndComplete) {
  Rng rng(41);
  const auto sample = rng.sample_without_replacement(20, 20);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), 19u);
}

TEST(Rng, SampleWithoutReplacementPartial) {
  Rng rng(43);
  const auto sample = rng.sample_without_replacement(100, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (const auto s : sample) EXPECT_LT(s, 100u);
}

TEST(Rng, SampleWithoutReplacementRejectsOversample) {
  Rng rng(1);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), fedbiad::CheckError);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(47);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto w = v;
  rng.shuffle(w);
  EXPECT_NE(v, w);  // astronomically unlikely to be identity
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

}  // namespace
}  // namespace fedbiad::tensor
