// Kernel-equivalence golden tests: the blocked GEMM substrate
// (tensor/gemm.hpp) and every layer routed through it must match the
// retained scalar reference implementations within 1e-4 on randomized
// shapes — including ragged/odd sizes that stress the register-tile edges
// and strided operands that exercise the bias-in-row layouts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <tuple>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/lstm.hpp"
#include "nn/parameter_store.hpp"
#include "tensor/gemm.hpp"
#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"
#include "tensor/workspace.hpp"

namespace fedbiad {
namespace {

using tensor::Matrix;
using tensor::Rng;

void expect_close(std::span<const float> got, std::span<const float> want,
                  const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float tol = 1e-4F * (1.0F + std::abs(want[i]));
    ASSERT_NEAR(got[i], want[i], tol) << what << " at flat index " << i;
  }
}

std::vector<float> random_vec(Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

// Shapes chosen to stress every tile-edge case: unit sizes, sub-tile,
// exact multiples of the 4×NR register tile, one-past multiples, and sizes
// straddling the 256-wide cache blocks.
class GemmEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmEquivalence, AbtMatchesReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(101);
  const auto a = random_vec(rng, static_cast<std::size_t>(m * k));
  const auto b = random_vec(rng, static_cast<std::size_t>(n * k));
  std::vector<float> got(static_cast<std::size_t>(m * n));
  auto want = got;
  tensor::gemm_abt(m, n, k, a.data(), k, b.data(), k, got.data(), n);
  tensor::ref::gemm_abt(m, n, k, a.data(), k, b.data(), k, want.data(), n);
  expect_close(got, want, "gemm_abt");
}

TEST_P(GemmEquivalence, AbtStridedWithBiasAndAccumulate) {
  const auto [m, n, k] = GetParam();
  const std::size_t ldb = static_cast<std::size_t>(k) + 5;  // bias at [k]
  Rng rng(103);
  const auto a = random_vec(rng, static_cast<std::size_t>(m * k));
  const auto b = random_vec(rng, static_cast<std::size_t>(n) * ldb);
  auto got = random_vec(rng, static_cast<std::size_t>(m * n));
  auto want = got;

  tensor::gemm_abt(m, n, k, a.data(), k, b.data(), ldb, got.data(), n,
                   /*accumulate=*/false, /*bias=*/b.data() + k, ldb);
  tensor::ref::gemm_abt(m, n, k, a.data(), k, b.data(), ldb, want.data(), n,
                        /*accumulate=*/false, /*bias=*/b.data() + k, ldb);
  expect_close(got, want, "gemm_abt strided+bias");

  tensor::gemm_abt(m, n, k, a.data(), k, b.data(), ldb, got.data(), n,
                   /*accumulate=*/true);
  tensor::ref::gemm_abt(m, n, k, a.data(), k, b.data(), ldb, want.data(), n,
                        /*accumulate=*/true);
  expect_close(got, want, "gemm_abt accumulate");
}

TEST_P(GemmEquivalence, AbMatchesReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(107);
  const auto a = random_vec(rng, static_cast<std::size_t>(m * k));
  const auto b = random_vec(rng, static_cast<std::size_t>(k * n));
  std::vector<float> got(static_cast<std::size_t>(m * n));
  auto want = got;
  tensor::gemm_ab(m, n, k, a.data(), k, b.data(), n, got.data(), n);
  tensor::ref::gemm_ab(m, n, k, a.data(), k, b.data(), n, want.data(), n);
  expect_close(got, want, "gemm_ab");
}

TEST_P(GemmEquivalence, AtbMatchesReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(109);
  const auto a = random_vec(rng, static_cast<std::size_t>(k * m));
  const auto b = random_vec(rng, static_cast<std::size_t>(k * n));
  auto got = random_vec(rng, static_cast<std::size_t>(m * n));
  auto want = got;  // atb accumulates — start from identical garbage
  tensor::gemm_atb(m, n, k, a.data(), m, b.data(), n, got.data(), n);
  tensor::ref::gemm_atb(m, n, k, a.data(), m, b.data(), n, want.data(), n);
  expect_close(got, want, "gemm_atb");
}

TEST_P(GemmEquivalence, PackedVariantsMatchUnpacked) {
  const auto [m, n, k] = GetParam();
  const std::size_t ldb = static_cast<std::size_t>(k) + 2;
  Rng rng(113);
  const auto a = random_vec(rng, static_cast<std::size_t>(m * k));
  const auto bt = random_vec(rng, static_cast<std::size_t>(n) * ldb);
  const auto b = random_vec(rng, static_cast<std::size_t>(k * n));
  std::vector<float> got(static_cast<std::size_t>(m * n));
  auto want = got;
  std::vector<float> packed(tensor::gemm_packed_size(n, k));

  tensor::gemm_pack_bt(n, k, bt.data(), ldb, packed.data());
  tensor::gemm_abt_packed(m, n, k, a.data(), k, packed.data(), got.data(), n);
  tensor::gemm_abt(m, n, k, a.data(), k, bt.data(), ldb, want.data(), n);
  expect_close(got, want, "gemm_abt_packed");

  tensor::gemm_pack_b(n, k, b.data(), n, packed.data());
  tensor::gemm_ab_packed(m, n, k, a.data(), k, packed.data(), got.data(), n);
  tensor::gemm_ab(m, n, k, a.data(), k, b.data(), n, want.data(), n);
  expect_close(got, want, "gemm_ab_packed");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmEquivalence,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{1, 17, 3},
                      std::tuple{2, 3, 5}, std::tuple{4, 16, 8},
                      std::tuple{5, 15, 7}, std::tuple{7, 31, 33},
                      std::tuple{8, 32, 64}, std::tuple{9, 33, 65},
                      std::tuple{32, 64, 128}, std::tuple{33, 257, 129},
                      std::tuple{64, 300, 260}));

// ---- gathered operands (dropout sub-models) --------------------------------
//
// A Gather must be exactly "the kernel applied to the explicitly compacted
// operand": same packed panels, same results bit for bit — and both within
// tolerance of the ref:: kernels on the compacted operand.

enum class Pick { kOne, kAll, kRagged, kRandom };

/// Ascending selection of `count` out of [0, full) — one, all, every other
/// plus the last, or a random ~60%.
std::vector<std::size_t> pick(Pick mode, std::size_t full, Rng& rng) {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < full; ++i) {
    const bool keep = mode == Pick::kOne      ? i == full / 2
                      : mode == Pick::kAll    ? true
                      : mode == Pick::kRagged ? (i % 2 == 0 || i + 1 == full)
                                              : rng.uniform(0.0, 1.0) < 0.6;
    if (keep) idx.push_back(i);
  }
  if (idx.empty()) idx.push_back(full - 1);
  return idx;
}

std::vector<std::size_t> offsets(const std::vector<std::size_t>& idx,
                                 std::size_t stride) {
  std::vector<std::size_t> off;
  for (const std::size_t i : idx) off.push_back(i * stride);
  return off;
}

/// Row-major (rows.size() × cols.size()) copy of the selected elements.
std::vector<float> compact(const std::vector<float>& full, std::size_t ld,
                           const std::vector<std::size_t>& rows,
                           const std::vector<std::size_t>& cols) {
  std::vector<float> out;
  for (const std::size_t r : rows) {
    for (const std::size_t c : cols) out.push_back(full[r * ld + c]);
  }
  return out;
}

void expect_bits_equal(std::span<const float> got, std::span<const float> want,
                       const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0)
      << what;
}

class GemmGather
    : public ::testing::TestWithParam<std::tuple<int, int, int, Pick>> {};

TEST_P(GemmGather, AbtAndPackBtMatchCompactedOperand) {
  const auto [mi, nf, kf, mode] = GetParam();
  const auto m = static_cast<std::size_t>(mi);
  const std::size_t ldb = static_cast<std::size_t>(kf) + 1;  // bias at [kf]
  Rng rng(201);
  const auto rows = pick(mode, static_cast<std::size_t>(nf), rng);
  const auto cols = pick(mode, static_cast<std::size_t>(kf), rng);
  const std::size_t n = rows.size();
  const std::size_t k = cols.size();
  const auto b = random_vec(rng, static_cast<std::size_t>(nf) * ldb);
  const auto a = random_vec(rng, m * k);
  const auto row_off = offsets(rows, ldb);
  const tensor::Gather g{row_off.data(), cols.data()};
  const auto bc = compact(b, ldb, rows, cols);
  std::vector<float> bias_c;
  for (const std::size_t r : rows) bias_c.push_back(b[r * ldb + kf]);

  std::vector<float> got(m * n), dense(m * n), want(m * n);
  tensor::gemm_abt(m, n, k, a.data(), k, b.data(), ldb, got.data(), n,
                   /*accumulate=*/false, /*bias=*/b.data() + kf, ldb, g);
  tensor::gemm_abt(m, n, k, a.data(), k, bc.data(), k, dense.data(), n,
                   /*accumulate=*/false, bias_c.data(), 1);
  tensor::ref::gemm_abt(m, n, k, a.data(), k, bc.data(), k, want.data(), n,
                        /*accumulate=*/false, bias_c.data(), 1);
  expect_bits_equal(got, dense, "gathered gemm_abt vs compacted");
  expect_close(got, want, "gathered gemm_abt vs ref");

  std::vector<float> packed(tensor::gemm_packed_size(n, k));
  std::vector<float> packed_c(packed.size());
  tensor::gemm_pack_bt(n, k, b.data(), ldb, packed.data(), g);
  tensor::gemm_pack_bt(n, k, bc.data(), k, packed_c.data());
  expect_bits_equal(packed, packed_c, "gathered gemm_pack_bt");
  tensor::gemm_abt_packed(m, n, k, a.data(), k, packed.data(), got.data(), n,
                          /*accumulate=*/true);
  tensor::gemm_abt(m, n, k, a.data(), k, bc.data(), k, dense.data(), n,
                   /*accumulate=*/true);
  expect_bits_equal(got, dense, "gathered packed accumulate");
}

TEST_P(GemmGather, AbAndPackBMatchCompactedOperand) {
  const auto [mi, nf, kf, mode] = GetParam();
  const auto m = static_cast<std::size_t>(mi);
  // B stored (kf × nf) with a padded stride; rows select k, columns n.
  const std::size_t ldb = static_cast<std::size_t>(nf) + 3;
  Rng rng(203);
  const auto rows = pick(mode, static_cast<std::size_t>(kf), rng);
  const auto cols = pick(mode, static_cast<std::size_t>(nf), rng);
  const std::size_t k = rows.size();
  const std::size_t n = cols.size();
  const auto b = random_vec(rng, static_cast<std::size_t>(kf) * ldb);
  const auto a = random_vec(rng, m * k);
  const auto row_off = offsets(rows, ldb);
  const tensor::Gather g{row_off.data(), cols.data()};
  const auto bc = compact(b, ldb, rows, cols);

  std::vector<float> got(m * n), dense(m * n), want(m * n);
  tensor::gemm_ab(m, n, k, a.data(), k, b.data(), ldb, got.data(), n,
                  /*accumulate=*/false, g);
  tensor::gemm_ab(m, n, k, a.data(), k, bc.data(), n, dense.data(), n);
  tensor::ref::gemm_ab(m, n, k, a.data(), k, bc.data(), n, want.data(), n);
  expect_bits_equal(got, dense, "gathered gemm_ab vs compacted");
  expect_close(got, want, "gathered gemm_ab vs ref");

  std::vector<float> packed(tensor::gemm_packed_size(n, k));
  std::vector<float> packed_c(packed.size());
  tensor::gemm_pack_b(n, k, b.data(), ldb, packed.data(), g);
  tensor::gemm_pack_b(n, k, bc.data(), n, packed_c.data());
  expect_bits_equal(packed, packed_c, "gathered gemm_pack_b");
}

TEST_P(GemmGather, AtbScattersIntoSelectedElementsOnly) {
  const auto [ki, mf, nf, mode] = GetParam();
  const auto k = static_cast<std::size_t>(ki);
  const std::size_t ldc = static_cast<std::size_t>(nf) + 1;  // bias column
  Rng rng(207);
  const auto rows = pick(mode, static_cast<std::size_t>(mf), rng);
  const auto cols = pick(mode, static_cast<std::size_t>(nf), rng);
  const std::size_t m = rows.size();
  const std::size_t n = cols.size();
  const auto a = random_vec(rng, k * m);
  const auto b = random_vec(rng, k * n);
  const auto c0 = random_vec(rng, static_cast<std::size_t>(mf) * ldc);
  const auto row_off = offsets(rows, ldc);

  // Column-gathered (tile) and row-only (in place) scatters.
  for (const bool gather_cols : {true, false}) {
    std::vector<std::size_t> all_cols(static_cast<std::size_t>(nf));
    for (std::size_t j = 0; j < all_cols.size(); ++j) all_cols[j] = j;
    const auto& cs = gather_cols ? cols : all_cols;
    const std::size_t nn = cs.size();
    const auto bb = gather_cols ? b : random_vec(rng, k * nn);
    auto got = c0;
    tensor::gemm_atb(m, nn, k, a.data(), m, bb.data(), nn, got.data(), ldc,
                     {row_off.data(), gather_cols ? cols.data() : nullptr});
    auto dense = compact(c0, ldc, rows, cs);
    auto want = dense;
    tensor::gemm_atb(m, nn, k, a.data(), m, bb.data(), nn, dense.data(), nn);
    tensor::ref::gemm_atb(m, nn, k, a.data(), m, bb.data(), nn, want.data(),
                          nn);
    expect_bits_equal(compact(got, ldc, rows, cs), dense,
                      "scattered gemm_atb vs compacted");
    expect_close(compact(got, ldc, rows, cs), want, "scattered gemm_atb");
    // Every element outside the selection is untouched.
    auto untouched = got;
    auto base = c0;
    for (const std::size_t r : rows) {
      for (const std::size_t c : cs) {
        untouched[r * ldc + c] = 0.0F;
        base[r * ldc + c] = 0.0F;
      }
    }
    expect_bits_equal(untouched, base, "elements outside the selection");
  }
}

// Full sizes from one element to past the 256-wide cache blocks; the picks
// give selections of length 1, all, and ragged counts that are not
// multiples of the MR×NR register tile.
INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmGather,
    ::testing::Combine(::testing::Values(1, 13),
                       ::testing::Values(1, 300),
                       ::testing::Values(7, 260),
                       ::testing::Values(Pick::kOne, Pick::kAll,
                                         Pick::kRagged, Pick::kRandom)));

// ---- layer golden models --------------------------------------------------

// Scalar Dense reference: out = x·Wᵀ + b over the in+1-strided rows.
void dense_forward_ref(std::span<const float> w, const Matrix& x,
                       std::size_t in, std::size_t out_dim, Matrix& out) {
  out.resize(x.rows(), out_dim);
  const std::size_t stride = in + 1;
  for (std::size_t b = 0; b < x.rows(); ++b) {
    for (std::size_t o = 0; o < out_dim; ++o) {
      const float* wr = w.data() + o * stride;
      float acc = wr[in];
      for (std::size_t i = 0; i < in; ++i) acc += x(b, i) * wr[i];
      out(b, o) = acc;
    }
  }
}

void dense_backward_ref(std::span<const float> w, const Matrix& x,
                        const Matrix& g_out, std::size_t in,
                        std::size_t out_dim, std::vector<float>& dw,
                        Matrix& g_in) {
  const std::size_t stride = in + 1;
  dw.assign(out_dim * stride, 0.0F);
  for (std::size_t o = 0; o < out_dim; ++o) {
    float* dwo = dw.data() + o * stride;
    for (std::size_t b = 0; b < x.rows(); ++b) {
      const float go = g_out(b, o);
      for (std::size_t i = 0; i < in; ++i) dwo[i] += go * x(b, i);
      dwo[in] += go;
    }
  }
  g_in.resize(x.rows(), in);
  g_in.fill(0.0F);
  for (std::size_t b = 0; b < x.rows(); ++b) {
    for (std::size_t o = 0; o < out_dim; ++o) {
      const float go = g_out(b, o);
      const float* wr = w.data() + o * stride;
      for (std::size_t i = 0; i < in; ++i) g_in(b, i) += go * wr[i];
    }
  }
}

class DenseEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DenseEquivalence, ForwardBackwardMatchReference) {
  const auto [batch, in, out_dim] = GetParam();
  nn::ParameterStore store;
  nn::Dense dense(store, "d", in, out_dim);
  store.finalize();
  Rng rng(211);
  dense.init(store, rng);

  Matrix x(batch, in), g_out(batch, out_dim);
  x.fill_uniform(rng, -1.0F, 1.0F);
  g_out.fill_uniform(rng, -1.0F, 1.0F);

  Matrix out, out_ref;
  dense.forward(store, x, out);
  dense_forward_ref(store.group_params(dense.group()), x, in, out_dim,
                    out_ref);
  expect_close(out.flat(), out_ref.flat(), "dense forward");

  store.zero_grads();
  Matrix g_in;
  dense.backward(store, x, g_out, &g_in);
  std::vector<float> dw_ref;
  Matrix g_in_ref;
  dense_backward_ref(store.group_params(dense.group()), x, g_out, in,
                     out_dim, dw_ref, g_in_ref);
  expect_close(store.group_grads(dense.group()), dw_ref, "dense dW");
  expect_close(g_in.flat(), g_in_ref.flat(), "dense g_in");
}

INSTANTIATE_TEST_SUITE_P(Shapes, DenseEquivalence,
                         ::testing::Values(std::tuple{1, 1, 1},
                                           std::tuple{3, 7, 5},
                                           std::tuple{16, 33, 17},
                                           std::tuple{32, 65, 130}));

// Scalar LSTM reference — the pre-GEMM implementation, kept verbatim as the
// golden model for forward and full BPTT.
struct LstmRef {
  std::size_t in, H, stride;
  std::span<const float> w;

  std::size_t wx_off(std::size_t gate) const { return gate * (in + 1); }
  std::size_t wh_off(std::size_t gate) const {
    return 4 * (in + 1) + gate * H;
  }

  static float sigmoid(float x) { return 1.0F / (1.0F + std::exp(-x)); }

  void forward(const Matrix& x_seq, std::size_t batch, std::size_t seq,
               Matrix& gates, Matrix& c, Matrix& tanh_c, Matrix& h) const {
    gates.resize(batch * seq, 4 * H);
    c.resize(batch * seq, H);
    tanh_c.resize(batch * seq, H);
    h.resize(batch * seq, H);
    for (std::size_t t = 0; t < seq; ++t) {
      for (std::size_t b = 0; b < batch; ++b) {
        const std::size_t idx = t * batch + b;
        const float* xb = x_seq.data() + idx * in;
        const float* hb =
            t == 0 ? nullptr : h.data() + ((t - 1) * batch + b) * H;
        const float* cpb =
            t == 0 ? nullptr : c.data() + ((t - 1) * batch + b) * H;
        for (std::size_t j = 0; j < H; ++j) {
          const float* row = w.data() + j * stride;
          float z[4];
          for (std::size_t gate = 0; gate < 4; ++gate) {
            const float* wx = row + wx_off(gate);
            float acc = wx[in];
            for (std::size_t i = 0; i < in; ++i) acc += xb[i] * wx[i];
            if (hb != nullptr) {
              const float* wh = row + wh_off(gate);
              for (std::size_t k = 0; k < H; ++k) acc += hb[k] * wh[k];
            }
            z[gate] = acc;
          }
          float* g4 = gates.data() + idx * 4 * H;
          g4[j] = sigmoid(z[0]);
          g4[H + j] = sigmoid(z[1]);
          g4[2 * H + j] = std::tanh(z[2]);
          g4[3 * H + j] = sigmoid(z[3]);
          const float c_in = cpb == nullptr ? 0.0F : cpb[j];
          const float c_new = g4[H + j] * c_in + g4[j] * g4[2 * H + j];
          c(idx, j) = c_new;
          tanh_c(idx, j) = std::tanh(c_new);
          h(idx, j) = g4[3 * H + j] * tanh_c(idx, j);
        }
      }
    }
  }

  void backward(const Matrix& x_seq, const Matrix& gates, const Matrix& c,
                const Matrix& tanh_c, const Matrix& h, const Matrix& g_h,
                std::size_t batch, std::size_t seq, std::vector<float>& dw,
                Matrix& g_x) const {
    dw.assign(H * stride, 0.0F);
    g_x.resize(batch * seq, in);
    for (std::size_t b = 0; b < batch; ++b) {
      std::vector<float> dh(H, 0.0F), dc(H, 0.0F), dz(4 * H);
      for (std::size_t t = seq; t-- > 0;) {
        const std::size_t idx = t * batch + b;
        const float* g4 = gates.data() + idx * 4 * H;
        const float* tc = tanh_c.data() + idx * H;
        const float* cpb =
            t == 0 ? nullptr : c.data() + ((t - 1) * batch + b) * H;
        const float* hpb =
            t == 0 ? nullptr : h.data() + ((t - 1) * batch + b) * H;
        const float* gh = g_h.data() + idx * H;
        for (std::size_t j = 0; j < H; ++j) {
          const float gi = g4[j], gf = g4[H + j], gg = g4[2 * H + j],
                      go = g4[3 * H + j];
          const float dh_total = dh[j] + gh[j];
          const float dct = dc[j] + dh_total * go * (1.0F - tc[j] * tc[j]);
          const float c_in = cpb == nullptr ? 0.0F : cpb[j];
          dz[j] = dct * gg * gi * (1.0F - gi);
          dz[H + j] = dct * c_in * gf * (1.0F - gf);
          dz[2 * H + j] = dct * gi * (1.0F - gg * gg);
          dz[3 * H + j] = dh_total * tc[j] * go * (1.0F - go);
          dc[j] = dct * gf;
        }
        const float* xb = x_seq.data() + idx * in;
        float* gxb = g_x.data() + idx * in;
        std::fill(gxb, gxb + in, 0.0F);
        std::fill(dh.begin(), dh.end(), 0.0F);
        for (std::size_t j = 0; j < H; ++j) {
          const float* row = w.data() + j * stride;
          float* drow = dw.data() + j * stride;
          for (std::size_t gate = 0; gate < 4; ++gate) {
            const float dzr = dz[gate * H + j];
            const float* wx = row + wx_off(gate);
            float* dwx = drow + wx_off(gate);
            for (std::size_t i = 0; i < in; ++i) {
              dwx[i] += dzr * xb[i];
              gxb[i] += dzr * wx[i];
            }
            dwx[in] += dzr;
            const float* wh = row + wh_off(gate);
            float* dwh = drow + wh_off(gate);
            for (std::size_t k = 0; k < H; ++k) {
              if (hpb != nullptr) dwh[k] += dzr * hpb[k];
              dh[k] += dzr * wh[k];
            }
          }
        }
      }
    }
  }
};

class LstmEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(LstmEquivalence, ForwardBackwardMatchReference) {
  const auto [batch, seq, in, H] = GetParam();
  nn::ParameterStore store;
  nn::LstmLayer lstm(store, "l", in, H);
  store.finalize();
  Rng rng(307);
  lstm.init(store, rng);

  Matrix x(batch * seq, in), g_h(batch * seq, H);
  x.fill_uniform(rng, -1.0F, 1.0F);
  g_h.fill_uniform(rng, -1.0F, 1.0F);

  nn::LstmLayer::Cache cache;
  lstm.forward(store, x, batch, seq, cache);

  LstmRef ref{static_cast<std::size_t>(in), static_cast<std::size_t>(H),
              lstm.row_len(), store.group_params(lstm.group())};
  Matrix gates_ref, c_ref, tanh_c_ref, h_ref;
  ref.forward(x, batch, seq, gates_ref, c_ref, tanh_c_ref, h_ref);
  expect_close(cache.h.flat(), h_ref.flat(), "lstm h");
  expect_close(cache.c.flat(), c_ref.flat(), "lstm c");
  expect_close(cache.gates.flat(), gates_ref.flat(), "lstm gates");

  store.zero_grads();
  Matrix g_x;
  lstm.backward(store, x, cache, g_h, g_x);
  std::vector<float> dw_ref;
  Matrix g_x_ref;
  ref.backward(x, gates_ref, c_ref, tanh_c_ref, h_ref, g_h, batch, seq,
               dw_ref, g_x_ref);
  expect_close(store.group_grads(lstm.group()), dw_ref, "lstm dW");
  expect_close(g_x.flat(), g_x_ref.flat(), "lstm g_x");
}

INSTANTIATE_TEST_SUITE_P(Shapes, LstmEquivalence,
                         ::testing::Values(std::tuple{1, 1, 1, 1},
                                           std::tuple{2, 3, 5, 7},
                                           std::tuple{4, 6, 16, 16},
                                           std::tuple{3, 5, 19, 33},
                                           std::tuple{8, 4, 32, 64}));

// ---- conv2d: im2row-GEMM path vs the retained naive reference -------------

struct ConvCase {
  int batch, in_c, out_c, kernel, h, w, stride, pad;
};

class ConvEquivalence : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvEquivalence, ForwardBackwardMatchNaiveReference) {
  const ConvCase p = GetParam();
  nn::ParameterStore store;
  nn::Conv2D conv(store, "c", p.in_c, p.out_c, p.kernel, p.h, p.w, p.stride,
                  p.pad);
  store.finalize();
  Rng rng(509);
  conv.init(store, rng);

  Matrix x(p.batch, static_cast<std::size_t>(p.in_c * p.h * p.w));
  x.fill_uniform(rng, -1.0F, 1.0F);

  Matrix out, out_ref;
  conv.forward(store, x, out);
  const auto w = store.group_params(conv.group());
  nn::ref::conv2d_forward(p.in_c, p.out_c, p.kernel, p.h, p.w, p.stride,
                          p.pad, w.data(), x, out_ref);
  ASSERT_EQ(out.rows(), out_ref.rows());
  ASSERT_EQ(out.cols(), out_ref.cols());
  ASSERT_EQ(out.cols(), conv.out_size());
  expect_close(out.flat(), out_ref.flat(), "conv forward");

  Matrix g_out(out.rows(), out.cols());
  g_out.fill_uniform(rng, -1.0F, 1.0F);
  store.zero_grads();
  Matrix g_in;
  conv.backward(store, x, g_out, &g_in);
  std::vector<float> dw_ref(w.size(), 0.0F);
  Matrix g_in_ref;
  nn::ref::conv2d_backward(p.in_c, p.out_c, p.kernel, p.h, p.w, p.stride,
                           p.pad, w.data(), dw_ref.data(), x, g_out,
                           &g_in_ref);
  expect_close(store.group_grads(conv.group()), dw_ref, "conv dW");
  expect_close(g_in.flat(), g_in_ref.flat(), "conv g_in");

  // The g_in == nullptr path must produce identical weight gradients.
  store.zero_grads();
  conv.backward(store, x, g_out, nullptr);
  expect_close(store.group_grads(conv.group()), dw_ref, "conv dW (no g_in)");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvEquivalence,
    ::testing::Values(
        ConvCase{1, 1, 1, 1, 1, 1, 1, 0},    // degenerate 1×1 everything
        ConvCase{2, 2, 3, 3, 6, 7, 1, 0},    // ragged, rectangular input
        ConvCase{3, 1, 8, 5, 12, 12, 1, 0},  // the ConvModel shape, small
        ConvCase{2, 3, 5, 2, 9, 5, 2, 1},    // stride 2 + padding 1
        ConvCase{1, 2, 4, 4, 8, 8, 2, 0},    // even kernel, stride 2
        ConvCase{2, 1, 2, 3, 7, 7, 3, 2},    // stride 3, pad 2 (ragged oh)
        ConvCase{2, 2, 17, 3, 6, 6, 1, 1},   // filters past one register tile
        ConvCase{1, 4, 16, 5, 11, 13, 1, 2}, // multi-channel, heavy padding
        ConvCase{4, 1, 1, 5, 5, 5, 1, 0}));  // kernel == input (1×1 output)

// ---- workspace ------------------------------------------------------------

TEST(Workspace, ScopesReleaseAndChunksAreStable) {
  auto& ws = tensor::Workspace::local();
  float* first = nullptr;
  {
    tensor::Workspace::Scope outer;
    auto a = ws.alloc<float>(100);
    first = a.data();
    a[0] = 1.0F;
    {
      tensor::Workspace::Scope inner;
      // Force growth past one chunk: earlier spans must stay valid.
      auto big = ws.alloc<double>(1 << 16);
      big[0] = 2.0;
      EXPECT_EQ(a.data(), first);
      EXPECT_FLOAT_EQ(a[0], 1.0F);
    }
    // After the inner scope dies, its space is reusable.
    auto b = ws.alloc<float>(50);
    EXPECT_NE(b.data(), nullptr);
  }
  {
    // A fresh scope at the same depth reuses the same chunk memory.
    tensor::Workspace::Scope again;
    auto c = ws.alloc<float>(100);
    EXPECT_EQ(c.data(), first);
  }
}

TEST(Workspace, AllocZeroZeroes) {
  tensor::Workspace::Scope scope;
  auto z = tensor::Workspace::local().alloc_zero<double>(257);
  for (double v : z) EXPECT_EQ(v, 0.0);
}

}  // namespace
}  // namespace fedbiad
