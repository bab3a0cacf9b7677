// Tests for the sketched-compression module: quantizers, top-k selection,
// DGC, STC, and their wire-size accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.hpp"
#include "compress/compressor.hpp"
#include "compress/dgc.hpp"
#include "compress/quantize.hpp"
#include "compress/stc.hpp"
#include "compress/topk.hpp"
#include "nn/parameter_store.hpp"
#include "tensor/rng.hpp"
#include "wire/accounting.hpp"
#include "wire/compact.hpp"

namespace fedbiad::compress {
namespace {

std::vector<float> random_update(std::size_t n, std::uint64_t seed) {
  tensor::Rng rng(seed);
  std::vector<float> u(n);
  for (auto& v : u) v = static_cast<float>(rng.normal(0.0, 1.0));
  return u;
}

TEST(TopK, SelectsLargestMagnitudes) {
  std::vector<float> v{0.1F, -5.0F, 2.0F, -0.2F, 3.0F};
  const auto idx = select_top_k(v, {}, 2);
  EXPECT_EQ(idx, (std::vector<std::uint32_t>{1, 4}));
}

TEST(TopK, RespectsPresenceMask) {
  std::vector<float> v{10.0F, -5.0F, 2.0F};
  std::vector<std::uint8_t> present{0, 1, 1};
  const auto idx = select_top_k(v, present, 1);
  EXPECT_EQ(idx, (std::vector<std::uint32_t>{1}));
}

TEST(TopK, KLargerThanCandidatesReturnsAll) {
  std::vector<float> v{1.0F, 2.0F};
  const auto idx = select_top_k(v, {}, 10);
  EXPECT_EQ(idx.size(), 2u);
}

TEST(TopK, ZeroKReturnsEmpty) {
  std::vector<float> v{1.0F};
  EXPECT_TRUE(select_top_k(v, {}, 0).empty());
}

TEST(CandidateCount, CountsMask) {
  std::vector<std::uint8_t> present{1, 0, 1, 1};
  EXPECT_EQ(candidate_count(4, present), 3u);
  EXPECT_EQ(candidate_count(4, {}), 4u);
}

TEST(FedPaq, QuantizationErrorBoundedByHalfStep) {
  const auto u = random_update(1000, 3);
  FedPaqCompressor comp;
  CompressorState state;
  const auto sparse = comp.compress(u, {}, state);
  ASSERT_TRUE(sparse.indices.empty());  // dense encoding
  float max_abs = 0.0F;
  for (const float v : u) max_abs = std::max(max_abs, std::abs(v));
  const float step = max_abs / 127.0F;
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_LE(std::abs(sparse.values[i] - u[i]), step / 2.0F + 1e-6F);
  }
}

TEST(FedPaq, WireBytesAreOneBytePerCandidate) {
  const auto u = random_update(500, 5);
  FedPaqCompressor comp;
  CompressorState state;
  EXPECT_EQ(comp.compress(u, {}, state).wire_bytes(),
            wire::int8_dense_bytes(500));
  EXPECT_EQ(wire::int8_dense_bytes(500), 500u + 4);
  std::vector<std::uint8_t> present(500, 1);
  for (std::size_t i = 0; i < 100; ++i) present[i] = 0;
  EXPECT_EQ(comp.compress(u, present, state).wire_bytes(),
            wire::int8_dense_bytes(400));
}

TEST(FedPaq, MaskedCoordinatesStayZero) {
  const auto u = random_update(100, 7);
  std::vector<std::uint8_t> present(100, 1);
  present[3] = 0;
  FedPaqCompressor comp;
  CompressorState state;
  const auto sparse = comp.compress(u, present, state);
  EXPECT_EQ(sparse.values[3], 0.0F);
}

TEST(SignSgd, TransmitsSignsTimesMeanMagnitude) {
  std::vector<float> u{1.0F, -3.0F, 2.0F, -2.0F};
  SignSgdCompressor comp;
  CompressorState state;
  const auto sparse = comp.compress(u, {}, state);
  const float scale = (1.0F + 3.0F + 2.0F + 2.0F) / 4.0F;
  EXPECT_FLOAT_EQ(sparse.values[0], scale);
  EXPECT_FLOAT_EQ(sparse.values[1], -scale);
  EXPECT_FLOAT_EQ(sparse.values[2], scale);
  EXPECT_FLOAT_EQ(sparse.values[3], -scale);
  EXPECT_EQ(sparse.wire_bytes(), wire::sign_mean_bytes(4));
  EXPECT_EQ(wire::sign_mean_bytes(4), 4u / 8 + 4 + (4 % 8 ? 1 : 0));
}

TEST(SignSgd, ThirtyTwoFoldCompression) {
  const auto u = random_update(3200, 11);
  SignSgdCompressor comp;
  CompressorState state;
  const auto sparse = comp.compress(u, {}, state);
  const double dense_bytes = 3200.0 * 4;
  EXPECT_NEAR(dense_bytes / static_cast<double>(sparse.wire_bytes()), 32.0,
              1.0);
}

TEST(Dgc, SelectsConfiguredSparsity) {
  const auto u = random_update(10000, 13);
  DgcCompressor comp({.sparsity = 0.01, .momentum = 0.0});
  CompressorState state;
  const auto sparse = comp.compress(u, {}, state);
  EXPECT_EQ(sparse.indices.size(), 100u);
  EXPECT_EQ(sparse.wire_bytes(), wire::sparse_fixed_bytes(100, 64));
  EXPECT_EQ(wire::sparse_fixed_bytes(100, 64), 100u * (4 + 8));
}

TEST(Dgc, ResidualAccumulationLosesNothing) {
  // After compression, transmitted values + residual must reconstruct the
  // full (momentum-corrected) update.
  const auto u = random_update(1000, 17);
  DgcCompressor comp({.sparsity = 0.05, .momentum = 0.0});
  CompressorState state;
  const auto sparse = comp.compress(u, {}, state);
  std::vector<float> reconstructed(state.residual);
  for (std::size_t i = 0; i < sparse.indices.size(); ++i) {
    reconstructed[sparse.indices[i]] += sparse.values[i];
  }
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_NEAR(reconstructed[i], u[i], 1e-6F);
  }
}

TEST(Dgc, ResidualFlushesEventually) {
  // A coordinate with a persistent small gradient must eventually be sent.
  DgcCompressor comp({.sparsity = 0.01, .momentum = 0.0});
  CompressorState state;
  std::vector<float> u(200, 0.0F);
  u[7] = 0.01F;  // small but persistent
  u[0] = 1.0F;   // dominating coordinate
  bool sent7 = false;
  for (int round = 0; round < 200 && !sent7; ++round) {
    const auto sparse = comp.compress(u, {}, state);
    sent7 = std::find(sparse.indices.begin(), sparse.indices.end(), 7u) !=
            sparse.indices.end();
  }
  EXPECT_TRUE(sent7);
}

TEST(Dgc, MomentumAmplifiesRepeatedGradients) {
  DgcCompressor comp({.sparsity = 0.5, .momentum = 0.9});
  CompressorState state;
  std::vector<float> u{1.0F, 0.0F};
  comp.compress(u, {}, state);
  // Momentum accumulates: u + m·u + m²·u … on unsent coordinates; on sent
  // ones it resets. Just verify the state buffers exist and evolve.
  EXPECT_EQ(state.momentum.size(), 2u);
  EXPECT_EQ(state.residual.size(), 2u);
}

TEST(Dgc, RespectsPresenceMask) {
  const auto u = random_update(1000, 19);
  std::vector<std::uint8_t> present(1000, 0);
  for (std::size_t i = 0; i < 500; ++i) present[i] = 1;
  DgcCompressor comp({.sparsity = 0.1, .momentum = 0.0});
  CompressorState state;
  const auto sparse = comp.compress(u, present, state);
  EXPECT_EQ(sparse.indices.size(), 50u);  // 10% of 500 candidates
  for (const auto idx : sparse.indices) {
    EXPECT_LT(idx, 500u);
  }
}

TEST(Dgc, RejectsInvalidConfig) {
  EXPECT_THROW(DgcCompressor({.sparsity = 0.0}), fedbiad::CheckError);
  EXPECT_THROW(DgcCompressor({.sparsity = 0.1, .momentum = 1.0}),
               fedbiad::CheckError);
}

TEST(Stc, ValuesAreTernary) {
  const auto u = random_update(1000, 23);
  StcCompressor comp({.sparsity = 0.02});
  CompressorState state;
  const auto sparse = comp.compress(u, {}, state);
  ASSERT_EQ(sparse.indices.size(), 20u);
  const float mu = std::abs(sparse.values.front());
  EXPECT_GT(mu, 0.0F);
  for (const float v : sparse.values) {
    EXPECT_FLOAT_EQ(std::abs(v), mu);
  }
}

TEST(Stc, ErrorFeedbackKeepsResidual) {
  std::vector<float> u{4.0F, -2.0F, 0.1F, 0.0F};
  StcCompressor comp({.sparsity = 0.5});
  CompressorState state;
  const auto sparse = comp.compress(u, {}, state);
  // Selected: indices 0 and 1; μ = 3; residual keeps 4−3 = 1 and −2+3 = 1.
  ASSERT_EQ(sparse.indices.size(), 2u);
  EXPECT_FLOAT_EQ(sparse.values[0], 3.0F);
  EXPECT_FLOAT_EQ(sparse.values[1], -3.0F);
  EXPECT_FLOAT_EQ(state.residual[0], 1.0F);
  EXPECT_FLOAT_EQ(state.residual[1], 1.0F);
}

TEST(Stc, WireBytesUseSixtyFiveBitsPerValue) {
  const auto u = random_update(8000, 29);
  StcCompressor comp({.sparsity = 0.01});
  CompressorState state;
  const auto sparse = comp.compress(u, {}, state);
  ASSERT_EQ(sparse.indices.size(), 80u);
  EXPECT_EQ(sparse.wire_bytes(), wire::ternary_bytes(80, 64));
  EXPECT_EQ(wire::ternary_bytes(80, 64), (80u * 65 + 7) / 8 + 4);
}

TEST(SparseUpdate, MaterializeSparse) {
  SparseUpdate s;
  s.dense_size = 5;
  s.indices = {1, 3};
  s.values = {2.0F, -4.0F};
  std::vector<float> out(5, 9.0F);
  std::vector<std::uint8_t> present(5, 9);
  s.materialize(out, present);
  EXPECT_EQ(out, (std::vector<float>{0, 2.0F, 0, -4.0F, 0}));
  EXPECT_EQ(present, (std::vector<std::uint8_t>{0, 1, 0, 1, 0}));
}

TEST(SparseUpdate, MaterializeDense) {
  SparseUpdate s;
  s.dense_size = 3;
  s.values = {1.0F, 2.0F, 3.0F};
  std::vector<float> out(3);
  std::vector<std::uint8_t> present(3, 0);
  s.materialize(out, present);
  EXPECT_EQ(out, (std::vector<float>{1.0F, 2.0F, 3.0F}));
  EXPECT_EQ(present, (std::vector<std::uint8_t>{1, 1, 1}));
}

class SparsitySweep : public ::testing::TestWithParam<double> {};

TEST_P(SparsitySweep, DgcWireSizeScalesLinearly) {
  const double q = GetParam();
  const auto u = random_update(20000, 31);
  DgcCompressor comp({.sparsity = q, .momentum = 0.0});
  CompressorState state;
  const auto sparse = comp.compress(u, {}, state);
  const auto expected_k = static_cast<std::size_t>(
      std::llround(q * 20000.0));
  EXPECT_EQ(sparse.indices.size(), std::max<std::size_t>(1, expected_k));
  EXPECT_EQ(sparse.wire_bytes(), sparse.indices.size() * 12);
}

INSTANTIATE_TEST_SUITE_P(Rates, SparsitySweep,
                         ::testing::Values(0.0001, 0.001, 0.01, 0.1));

// --- wire cross-checks: the server-side decoder must reconstruct exactly
// what materialize() (the in-memory reference) produces, and the measured
// payload must match the analytic accounting for every compressor ---

nn::ParameterStore flat_layout(std::size_t n) {
  nn::ParameterStore store;
  store.add_group("w", nn::GroupKind::kDense, n, 1);
  store.finalize();
  return store;
}

TEST(WireCrossCheck, DecodeMatchesMaterializeForEveryCompressor) {
  const std::size_t n = 600;
  const auto layout = flat_layout(n);
  const auto u = random_update(n, 37);
  const std::vector<std::shared_ptr<UpdateCompressor>> compressors{
      std::make_shared<DgcCompressor>(DgcConfig{.sparsity = 0.05}),
      std::make_shared<StcCompressor>(StcConfig{.sparsity = 0.05}),
      std::make_shared<FedPaqCompressor>(),
      std::make_shared<SignSgdCompressor>(),
  };
  for (const auto& comp : compressors) {
    CompressorState state;
    const SparseUpdate sparse = comp->compress(u, {}, state);
    std::vector<float> ref(n);
    std::vector<std::uint8_t> ref_mask(n);
    sparse.materialize(ref, ref_mask);
    const wire::Decoded dec =
        wire::expand(wire::decode_update_compact(layout, sparse.payload));
    ASSERT_EQ(dec.values.size(), n) << comp->name();
    EXPECT_EQ(dec.present, wire::Bitset::from_bytemask(ref_mask))
        << comp->name();
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(dec.values[i], ref[i])
          << comp->name() << " coordinate " << i;
    }
  }
}

TEST(WireCrossCheck, MeasuredBytesMatchOracleForEveryCompressor) {
  const std::size_t n = 1000;
  const auto u = random_update(n, 41);
  CompressorState state;
  {
    DgcCompressor dgc({.sparsity = 0.01, .momentum = 0.0});
    const auto s = dgc.compress(u, {}, state);
    EXPECT_EQ(s.payload.size(), wire::sparse_fixed_bytes(s.indices.size(), 64));
  }
  {
    CompressorState st;
    StcCompressor stc({.sparsity = 0.01});
    const auto s = stc.compress(u, {}, st);
    EXPECT_EQ(s.payload.size(), wire::ternary_bytes(s.indices.size(), 64));
  }
  {
    CompressorState st;
    FedPaqCompressor paq;
    EXPECT_EQ(paq.compress(u, {}, st).payload.size(),
              wire::int8_dense_bytes(n));
  }
  {
    CompressorState st;
    SignSgdCompressor sgn;
    EXPECT_EQ(sgn.compress(u, {}, st).payload.size(),
              wire::sign_mean_bytes(n));
  }
}

}  // namespace
}  // namespace fedbiad::compress
