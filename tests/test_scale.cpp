// Population-scale regression suite: the properties that let the engine
// run 1M registered clients with ~10k in flight.
//
//   * decode_update_compact, kind for kind, returns exactly what the
//     encoder was handed — expand() of the compact view is bit-identical to
//     the wide view implied by the encoder's inputs — and rejects malformed
//     buffers with the wire's exact DecodeError messages.
//   * ShardedAccumulator::aggregate/merge reproduce the dense kernels
//     (reference::aggregate and the coordinate-outer staleness merge) bit for bit
//     over mixed compact forms spanning multiple accumulator blocks.
//   * ClientRegistry: lazy profiles equal make_profiles exactly (random
//     access, repeats, backward jumps, homogeneous fast path); the
//     ClientState pool hands out value-fresh records and its high-water
//     mark tracks concurrency, not dispatches.
//   * IdleSet::select(j) equals the j-th element of the ascending idle
//     scan it replaces, including the fully-busy-prefix edge.
//   * Engine at scale: 100k registered / 1k in flight is thread-count
//     invariant; a 30-seed churn+faults fuzz holds the conservation ledger
//     with peak materialized state bounded by concurrency, independent of
//     the registered population; checkpoints at scale never serialize
//     dormant clients and resume bit-identically through the registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "baselines/fedavg.hpp"
#include "checkpoint/checkpoint.hpp"
#include "data/image_synth.hpp"
#include "data/partition.hpp"
#include "fl/async_simulation.hpp"
#include "fl/client_registry.hpp"
#include "fl/fused_aggregate.hpp"
#include "fl/strategy.hpp"
#include "netsim/client_profile.hpp"
#include "nn/lstm_lm_model.hpp"
#include "nn/mlp_model.hpp"
#include "nn/parameter_store.hpp"
#include "parallel/thread_pool.hpp"
#include "scenario/config.hpp"
#include "scenario/model.hpp"
#include "tensor/rng.hpp"
#include "tensor/workspace.hpp"
#include "wire/bitset.hpp"
#include "wire/compact.hpp"
#include "wire/reader.hpp"
#include "wire/update_codec.hpp"

#include "aggregate.hpp"

namespace fedbiad {
namespace {

namespace fs = std::filesystem;

// --- shared fixtures -------------------------------------------------------

/// Three groups of row widths 3, 5 and 7.
nn::ParameterStore ragged_store() {
  nn::ParameterStore store;
  store.add_group("fc", nn::GroupKind::kDense, 4, 3);
  store.add_group("head", nn::GroupKind::kDense, 2, 5);
  store.add_group("fc2", nn::GroupKind::kDense, 5, 7);
  store.finalize();
  return store;
}

/// Multi-group ragged layout wider than one accumulator block (4096), so
/// the fused kernels cross a block boundary and end on a partial block.
nn::ParameterStore wide_store() {
  nn::ParameterStore store;
  store.add_group("emb", nn::GroupKind::kEmbedding, 64, 40);
  store.add_group("fc", nn::GroupKind::kDense, 48, 50);
  store.add_group("head", nn::GroupKind::kDense, 2, 37);
  store.finalize();
  return store;
}

std::vector<float> hostile_values(std::size_t n, std::uint64_t seed) {
  tensor::Rng rng(seed);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 7) {
      case 0:
        v[i] = std::numeric_limits<float>::quiet_NaN();
        break;
      case 1:
        v[i] = std::numeric_limits<float>::infinity();
        break;
      case 2:
        v[i] = -std::numeric_limits<float>::infinity();
        break;
      case 3:
        v[i] = -0.0F;
        break;
      default:
        v[i] = static_cast<float>(rng.normal(0, 1));
        break;
    }
  }
  return v;
}

/// The wide view an encoder's inputs imply: coordinate i is transmitted
/// iff keep[i] != 0, and then decodes to want[i]; every other coordinate
/// is +0. Built from the inputs alone, independent of any decoder.
wire::Decoded implied(std::span<const float> want,
                      std::span<const std::uint8_t> keep) {
  wire::Decoded d;
  d.values.assign(want.size(), 0.0F);
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (keep[i] != 0) d.values[i] = want[i];
  }
  d.present = wire::Bitset::from_bytemask(keep);
  return d;
}

/// implied() for an index/value list over an n-coordinate model.
wire::Decoded implied_sparse(std::size_t n,
                             std::span<const std::uint32_t> indices,
                             std::span<const float> vals) {
  std::vector<float> want(n, 0.0F);
  std::vector<std::uint8_t> keep(n, 0);
  for (std::size_t k = 0; k < indices.size(); ++k) {
    want[indices[k]] = vals[k];
    keep[indices[k]] = 1;
  }
  return implied(want, keep);
}

/// Byte-per-coordinate coverage of a row pattern: every coordinate of each
/// kept row.
std::vector<std::uint8_t> row_coverage(const nn::ParameterStore& store,
                                       std::span<const std::uint8_t> kept) {
  std::vector<std::uint8_t> keep(store.size(), 0);
  for (std::size_t g = 0; g < store.groups().size(); ++g) {
    const nn::RowGroup& grp = store.group(g);
    for (std::size_t r = 0; r < grp.rows; ++r) {
      if (kept[store.droppable_index(g, r)] == 0) continue;
      std::fill_n(keep.begin() + static_cast<std::ptrdiff_t>(
                                     grp.offset + r * grp.row_len),
                  grp.row_len, std::uint8_t{1});
    }
  }
  return keep;
}

/// Decodes `payload` and demands the compact view expand to `want`
/// exactly: same presence set, bit-identical floats. The compact form
/// lands in *out (when given) for form assertions.
void expect_decodes_to(const nn::ParameterStore& store,
                       const wire::Payload& payload, const wire::Decoded& want,
                       const wire::Bitset* candidates = nullptr,
                       wire::CompactUpdate* out = nullptr) {
  wire::CompactUpdate compact =
      wire::decode_update_compact(store, payload, candidates);
  EXPECT_EQ(compact.size(), store.size());
  const wire::Decoded expanded = wire::expand(compact);
  EXPECT_EQ(expanded.present, want.present);
  EXPECT_EQ(compact.transmitted(), want.present.count());
  ASSERT_EQ(expanded.values.size(), want.values.size());
  for (std::size_t i = 0; i < want.values.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(expanded.values[i]),
              std::bit_cast<std::uint32_t>(want.values[i]))
        << "coordinate " << i;
  }
  if (out != nullptr) *out = std::move(compact);
}

// --- compact decode == the encoder's inputs, per payload kind --------------

TEST(CompactDecode, DenseF32) {
  const auto store = ragged_store();
  const auto values = hostile_values(store.size(), 301);
  const std::vector<std::uint8_t> all(store.size(), 1);
  wire::CompactUpdate compact;
  expect_decodes_to(store, wire::encode_dense_f32(values),
                    implied(values, all), nullptr, &compact);
  EXPECT_EQ(compact.form, wire::CompactUpdate::Form::kDense);
}

TEST(CompactDecode, RowMaskedAllPatterns) {
  const auto store = ragged_store();
  const std::size_t J = store.droppable_rows();
  const auto values = hostile_values(store.size(), 303);
  std::vector<std::uint8_t> all_kept(J, 1);
  std::vector<std::uint8_t> all_dropped(J, 0);
  std::vector<std::uint8_t> ragged(J, 0);
  for (std::size_t j = 0; j < J; j += 2) ragged[j] = 1;
  for (const auto& kept : {all_kept, all_dropped, ragged}) {
    expect_decodes_to(store, wire::encode_row_masked(store, kept, values),
                      implied(values, row_coverage(store, kept)));
  }
}

// On the real model layouts, over random β: the row-masked decoder's
// presence set is expand_row_mask of the transmitted β, and its values are
// the kept coordinates gathered element by element, row by row.
TEST(CompactDecode, RowMaskedMatchesExpandOnModelLayouts) {
  const nn::MlpModel mlp(nn::MlpConfig{});
  const nn::LstmLmModel lstm(nn::LstmLmConfig{});
  tensor::Rng rng(317);
  for (const nn::ParameterStore* store : {&mlp.store(), &lstm.store()}) {
    const std::size_t J = store->droppable_rows();
    const auto values = hostile_values(store->size(), 319);
    for (const double keep : {0.0, 0.1, 0.5, 0.9, 1.0}) {
      SCOPED_TRACE(testing::Message() << "J=" << J << " keep=" << keep);
      std::vector<std::uint8_t> kept(J);
      for (auto& k : kept) k = rng.bernoulli(keep) ? 1 : 0;
      const auto payload = wire::encode_row_masked(*store, kept, values);
      const auto compact = wire::decode_update_compact(*store, payload);
      const auto packed = std::span(payload.bytes).first((J + 7) / 8);
      EXPECT_EQ(compact.present, wire::expand_row_mask(*store, packed));
      EXPECT_EQ(compact.present,
                wire::Bitset::from_bytemask(row_coverage(*store, kept)));
      std::vector<float> gathered;
      for (std::size_t j = 0; j < J; ++j) {
        if (kept[j] == 0) continue;
        const auto ref = store->droppable_row(j);
        const nn::RowGroup& grp = store->group(ref.group);
        const std::size_t begin = grp.offset + ref.row * grp.row_len;
        for (std::size_t i = begin; i < begin + grp.row_len; ++i) {
          gathered.push_back(values[i]);
        }
      }
      ASSERT_EQ(compact.values.size(), gathered.size());
      for (std::size_t i = 0; i < gathered.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(compact.values[i]),
                  std::bit_cast<std::uint32_t>(gathered[i]))
            << "kept value " << i;
      }
    }
  }
}

TEST(CompactDecode, SparseFixedAndVarintIncludingEmptyAndFull) {
  const auto store = ragged_store();
  const std::size_t n = store.size();
  const auto values = hostile_values(n, 305);
  std::vector<std::uint32_t> every(n);
  for (std::size_t i = 0; i < n; ++i) every[i] = static_cast<std::uint32_t>(i);
  const std::vector<std::vector<std::uint32_t>> index_sets{
      {},
      {0},
      {static_cast<std::uint32_t>(n - 1)},
      {0, 1, 5, 17, static_cast<std::uint32_t>(n - 1)},
      every,
  };
  for (const auto& indices : index_sets) {
    std::vector<float> sparse_vals;
    for (const auto idx : indices) sparse_vals.push_back(values[idx]);
    for (const bool fixed : {true, false}) {
      const auto payload =
          fixed ? wire::encode_sparse_fixed(indices, sparse_vals, 64)
                : wire::encode_sparse_varint(indices, sparse_vals);
      wire::CompactUpdate compact;
      expect_decodes_to(store, payload,
                        implied_sparse(n, indices, sparse_vals), nullptr,
                        &compact);
      if (indices.empty()) {
        EXPECT_EQ(compact.transmitted(), 0u);
      }
    }
  }
}

TEST(CompactDecode, Ternary) {
  const auto store = ragged_store();
  const std::size_t n = store.size();
  const std::vector<std::uint32_t> indices{2, 3, 11, 40,
                                           static_cast<std::uint32_t>(n - 1)};
  const std::vector<std::uint8_t> negative{0, 1, 1, 0, 1};
  std::vector<float> signed_mu;
  for (const std::uint8_t neg : negative) {
    signed_mu.push_back(neg != 0 ? -0.125F : 0.125F);
  }
  expect_decodes_to(store, wire::encode_ternary(0.125F, indices, negative, 64),
                    implied_sparse(n, indices, signed_mu));
  // k = 0: the empty ternary section.
  expect_decodes_to(store, wire::encode_ternary(0.0F, {}, {}, 64),
                    implied_sparse(n, {}, {}));
}

TEST(CompactDecode, SignMeanWithAndWithoutCandidates) {
  const auto store = ragged_store();
  const std::size_t n = store.size();
  const auto values = hostile_values(n, 307);
  std::vector<float> signs(n);
  for (std::size_t i = 0; i < n; ++i) {
    signs[i] = std::signbit(values[i]) ? -0.25F : 0.25F;
  }
  {  // every coordinate is a candidate
    const auto payload = wire::encode_sign_mean(0.25F, {}, values);
    expect_decodes_to(store, payload,
                      implied(signs, std::vector<std::uint8_t>(n, 1)));
  }
  {  // a proper candidate subset
    std::vector<std::uint8_t> mask(n, 0);
    for (std::size_t i = 0; i < n; i += 3) mask[i] = 1;
    const auto candidates = wire::Bitset::from_bytemask(mask);
    const auto payload = wire::encode_sign_mean(0.25F, mask, values);
    expect_decodes_to(store, payload, implied(signs, mask), &candidates);
  }
}

TEST(CompactDecode, Int8DenseWithAndWithoutCandidates) {
  const auto store = ragged_store();
  const std::size_t n = store.size();
  tensor::Rng rng(309);
  auto random_quants = [&rng](std::size_t count) {
    std::vector<std::int8_t> quants(count);
    for (auto& q : quants) {
      q = static_cast<std::int8_t>(
          static_cast<int>(rng.uniform_index(255)) - 127);
    }
    return quants;
  };
  {
    const auto quants = random_quants(n);
    std::vector<float> want(n);
    for (std::size_t i = 0; i < n; ++i) {
      want[i] = static_cast<float>(quants[i]) * 0.01F;
    }
    const auto payload = wire::encode_int8_dense(0.01F, quants, n);
    expect_decodes_to(store, payload,
                      implied(want, std::vector<std::uint8_t>(n, 1)));
  }
  {
    std::vector<std::uint8_t> mask(n, 0);
    std::size_t count = 0;
    for (std::size_t i = 1; i < n; i += 4) {
      mask[i] = 1;
      ++count;
    }
    const auto candidates = wire::Bitset::from_bytemask(mask);
    const auto quants = random_quants(count);
    std::vector<float> want(n, 0.0F);
    std::size_t c = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask[i] != 0) want[i] = static_cast<float>(quants[c++]) * 0.01F;
    }
    const auto payload = wire::encode_int8_dense(0.01F, quants, count);
    expect_decodes_to(store, payload, implied(want, mask), &candidates);
  }
}

TEST(CompactDecode, PrunedBothEmittedVariants) {
  const auto store = ragged_store();
  const std::size_t n = store.size();
  const auto values = hostile_values(n, 311);
  // Dense mask (keep everything) and sparse mask (keep a few coordinates)
  // so both kPrunedBitmap and kPrunedVarint are hit. The mask is exactly
  // the transmitted set.
  std::vector<std::uint8_t> dense_mask(n, 1);
  std::vector<std::uint8_t> sparse_mask(n);
  for (std::size_t i = 0; i < n; ++i) {
    sparse_mask[i] = static_cast<std::uint8_t>(i % 13 == 5);
  }
  std::vector<wire::PayloadKind> kinds;
  for (const auto& mask : {dense_mask, sparse_mask}) {
    const auto payload = wire::encode_pruned(store, mask, values);
    kinds.push_back(payload.kind);
    expect_decodes_to(store, payload, implied(values, mask));
  }
  EXPECT_NE(kinds[0], kinds[1]) << "expected both pruned encodings covered";
}

// Malformed buffers are rejected with the wire's exact messages: the fault
// path reports them verbatim inside each rejection.
TEST(CompactDecode, RejectsMalformedBuffers) {
  const auto store = ragged_store();
  const auto values = hostile_values(store.size(), 313);
  std::vector<std::pair<wire::Payload, std::string>> malformed;
  {
    auto p = wire::encode_dense_f32(values);
    p.bytes = p.bytes.slice(0, p.bytes.size() - 3);
    malformed.emplace_back(std::move(p), "dense payload length mismatch");
  }
  {
    std::vector<std::uint8_t> kept(store.droppable_rows(), 1);
    auto p = wire::encode_row_masked(store, kept, values);
    auto bytes = std::move(p.bytes).release();
    bytes.push_back(0);
    p.bytes = std::move(bytes);
    malformed.emplace_back(std::move(p), "trailing bytes after payload");
  }
  {
    std::vector<std::uint8_t> kept(store.droppable_rows(), 1);
    auto p = wire::encode_row_masked(store, kept, values);
    p.bytes = p.bytes.slice(0, p.bytes.size() - 1);
    malformed.emplace_back(std::move(p), "payload truncated");
  }
  {
    const std::vector<std::uint32_t> bad{
        static_cast<std::uint32_t>(store.size())};
    const std::vector<float> v{1.0F};
    malformed.emplace_back(wire::encode_sparse_fixed(bad, v, 64),
                           "sparse index out of range");
  }
  {
    wire::Payload p{.kind = wire::PayloadKind::kSubModel,
                    .aux = 0,
                    .bytes = std::vector<std::uint8_t>(8, 0)};
    malformed.emplace_back(
        std::move(p), "payload kind sub-model has no layout-generic decoder");
  }
  for (const auto& [payload, message] : malformed) {
    std::string error;
    try {
      (void)wire::decode_update_compact(store, payload);
    } catch (const wire::DecodeError& e) {
      error = e.what();
    }
    EXPECT_EQ(error, message) << wire::to_string(payload.kind);
  }
}

TEST(CompactDecode, BitmapRankMatchesNaivePopcount) {
  const auto store = wide_store();
  const std::size_t n = store.size();
  const auto values = hostile_values(n, 315);
  std::vector<std::uint8_t> kept(store.droppable_rows(), 0);
  for (std::size_t j = 0; j < kept.size(); j += 3) kept[j] = 1;
  const auto compact = wire::decode_update_compact(
      store, wire::encode_row_masked(store, kept, values));
  ASSERT_EQ(compact.form, wire::CompactUpdate::Form::kBitmap);
  std::size_t naive = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 601 == 0 || i % wire::CompactUpdate::kRankStride == 0) {
      ASSERT_EQ(compact.rank(i), naive) << "rank at " << i;
    }
    if (compact.present.test(i)) ++naive;
  }
  ASSERT_EQ(compact.rank(n), naive);
}

// --- fused aggregate / merge == dense kernels ------------------------------

struct Batch {
  std::vector<fl::ClientOutcome> dense;       ///< values/present decode
  std::vector<wire::CompactUpdate> compact;   ///< owning storage
  std::vector<fl::FusedUpdate> fused;         ///< views into `compact`
};

/// One update per compact form (dense, bitmap, sparse, empty) with distinct
/// weights: the fused side decodes the wire payloads, the dense side holds
/// the wide views the encoders' inputs imply.
Batch mixed_batch(const nn::ParameterStore& store, bool is_update) {
  const std::size_t n = store.size();
  Batch b;
  std::vector<wire::Payload> payloads;
  std::vector<wire::Decoded> wide;
  {
    const auto values = hostile_values(n, 401);
    payloads.push_back(wire::encode_dense_f32(values));
    wide.push_back(implied(values, std::vector<std::uint8_t>(n, 1)));
  }
  {
    const auto values = hostile_values(n, 402);
    std::vector<std::uint8_t> kept(store.droppable_rows(), 0);
    for (std::size_t j = 0; j < kept.size(); j += 2) kept[j] = 1;
    payloads.push_back(wire::encode_row_masked(store, kept, values));
    wide.push_back(implied(values, row_coverage(store, kept)));
  }
  {
    const auto values = hostile_values(n, 403);
    std::vector<std::uint32_t> indices;
    std::vector<float> vals;
    for (std::size_t i = 0; i < n; i += 5) {
      indices.push_back(static_cast<std::uint32_t>(i));
      vals.push_back(values[i]);
    }
    payloads.push_back(wire::encode_sparse_varint(indices, vals));
    wide.push_back(implied_sparse(n, indices, vals));
  }
  payloads.push_back(wire::encode_sparse_varint({}, {}));
  wide.push_back(implied_sparse(n, {}, {}));
  const std::size_t samples[] = {3, 21, 8, 5};
  for (std::size_t k = 0; k < payloads.size(); ++k) {
    const wire::Decoded& d = wide[k];
    fl::ClientOutcome out;
    out.client_id = k;
    out.samples = samples[k];
    out.values = d.values;
    out.present = d.present;
    out.is_update = is_update;
    b.dense.push_back(std::move(out));
    b.compact.push_back(wire::decode_update_compact(store, payloads[k]));
  }
  for (std::size_t k = 0; k < b.compact.size(); ++k) {
    b.fused.push_back({&b.compact[k], static_cast<double>(samples[k]),
                       is_update});
  }
  return b;
}

void expect_params_bit_identical(std::span<const float> a,
                                 std::span<const float> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
              std::bit_cast<std::uint32_t>(b[i]))
        << "param " << i;
  }
}

TEST(FusedAggregate, MatchesDenseKernelPerRuleAndOutcomeType) {
  const auto store = wide_store();
  ASSERT_GT(store.size(), fl::ShardedAccumulator::kBlock)
      << "layout must span multiple accumulator blocks";
  std::vector<float> base(store.size());
  tensor::Rng rng(405);
  for (auto& v : base) v = static_cast<float>(rng.normal());
  fl::ShardedAccumulator sharded;
  for (const bool is_update : {false, true}) {
    const Batch b = mixed_batch(store, is_update);
    for (const auto rule : {fl::AggregationRule::kMaskedAverage,
                            fl::AggregationRule::kPerCoordinateNormalized}) {
      std::vector<float> dense_global = base;
      std::vector<float> fused_global = base;
      reference::aggregate(dense_global, b.dense, rule);
      sharded.aggregate(fused_global, b.fused, rule);
      expect_params_bit_identical(fused_global, dense_global);
    }
  }
}

/// The dense coordinate-outer staleness merge the engine used before the
/// fused path: per coordinate, deltas against the pre-merge global are
/// weight-averaged in batch order and the global steps by mixing_rate.
void reference_merge(std::span<float> global,
                     const std::vector<fl::ClientOutcome>& batch,
                     std::span<const double> weights, double mixing_rate) {
  for (std::size_t i = 0; i < global.size(); ++i) {
    double acc = 0.0;
    double w = 0.0;
    for (std::size_t k = 0; k < batch.size(); ++k) {
      if (!batch[k].present.test(i)) continue;
      const double v = static_cast<double>(batch[k].values[i]);
      const double delta =
          batch[k].is_update ? v : v - static_cast<double>(global[i]);
      acc += weights[k] * delta;
      w += weights[k];
    }
    if (w > 0.0) global[i] += static_cast<float>(mixing_rate * acc / w);
  }
}

TEST(FusedAggregate, MergeMatchesCoordinateOuterReference) {
  const auto store = wide_store();
  std::vector<float> base(store.size());
  tensor::Rng rng(407);
  for (auto& v : base) v = static_cast<float>(rng.normal());
  fl::ShardedAccumulator sharded;
  for (const bool is_update : {false, true}) {
    Batch b = mixed_batch(store, is_update);
    // Staleness-damped weights, like the engine's (1+τ)^-a per update.
    std::vector<double> weights;
    for (std::size_t k = 0; k < b.fused.size(); ++k) {
      b.fused[k].weight *= std::pow(1.0 + static_cast<double>(k), -0.5);
      weights.push_back(b.fused[k].weight);
    }
    std::vector<float> ref_global = base;
    std::vector<float> fused_global = base;
    reference_merge(ref_global, b.dense, weights, 0.6);
    sharded.merge(fused_global, b.fused, 0.6);
    expect_params_bit_identical(fused_global, ref_global);
  }
}

/// hostile_values(n, seed) moved `shift` coordinates left: the NaN, ±inf
/// and -0 classes land on different coordinates than an unshifted update's.
std::vector<float> shifted_hostile(std::size_t n, std::uint64_t seed,
                                   std::size_t shift) {
  const auto v = hostile_values(n + shift, seed);
  return {v.begin() + static_cast<std::ptrdiff_t>(shift), v.end()};
}

// All-dense batches take the register merge (no panels). FedAsync's single
// upload and FedBuff's K uploads, in both payload forms, with staleness-
// damped weights, must land on the coordinate-outer reference bit for bit:
// serially (inside a one-worker pool, where parallel_for runs inline) and
// split across the global pool (one worker per usable CPU; four on a
// 4-CPU machine). The store ends mid 4-lane group and mid block. The global carries NaN, ±inf and -0 where the updates do too, so
// -0 meets -0: a delta of -0.0 against a -0.0 global must come out +0.0,
// which only an accumulator started at 0.0 gets right.
TEST(FusedAggregate, DenseMergeMatchesCoordinateOuterReference) {
  nn::ParameterStore store;
  store.add_group("emb", nn::GroupKind::kEmbedding, 128, 70);
  store.add_group("fc", nn::GroupKind::kDense, 96, 81);
  store.add_group("head", nn::GroupKind::kDense, 3, 37);
  store.finalize();
  const std::size_t n = store.size();
  constexpr std::size_t kBlock = fl::ShardedAccumulator::kBlock;
  ASSERT_NE(n % 4, 0U);
  ASSERT_NE(n % kBlock, 0U);
  ASSERT_GT(n, 4 * kBlock) << "four workers need a block each";
  const std::vector<float> base = hostile_values(n, 409);

  // Each batch lists its updates' value shifts; a kEmpty update (-1) is
  // skipped by both merges and keeps the batch on the register path.
  const std::vector<std::vector<int>> batches = {
      {0}, {0, 0}, {0, 0, 1}, {2, -1, 0}};
  const std::size_t samples[] = {7, 30, 12};
  fl::ShardedAccumulator sharded;
  parallel::ThreadPool serial(1);
  for (const bool is_update : {false, true}) {
    for (const auto& shifts : batches) {
      std::vector<fl::ClientOutcome> dense;
      std::vector<wire::CompactUpdate> compact;
      std::vector<double> weights;
      for (std::size_t k = 0; k < shifts.size(); ++k) {
        fl::ClientOutcome out;
        out.client_id = k;
        out.samples = samples[k];
        out.is_update = is_update;
        if (shifts[k] < 0) {
          // Nothing transmitted: no payload decodes to kEmpty, so build it.
          out.values.assign(n, 0.0F);
          out.present = wire::Bitset(n);
          compact.emplace_back();
          compact.back().coords = n;
        } else {
          const std::vector<float> values =
              shifted_hostile(n, 411 + k, static_cast<std::size_t>(shifts[k]));
          const wire::Payload payload = wire::encode_dense_f32(values);
          out.values = values;
          out.present.assign(n, true);
          compact.push_back(wire::decode_update_compact(store, payload));
          ASSERT_EQ(compact.back().form, wire::CompactUpdate::Form::kDense);
        }
        dense.push_back(std::move(out));
        // Staleness τ = k + 1 under exponent 0.5, as the engine weighs it.
        weights.push_back(static_cast<double>(samples[k]) *
                          std::pow(2.0 + static_cast<double>(k), -0.5));
      }
      std::vector<fl::FusedUpdate> fused;
      for (std::size_t k = 0; k < compact.size(); ++k) {
        fused.push_back({&compact[k], weights[k], is_update});
      }
      std::vector<float> ref_global = base;
      reference_merge(ref_global, dense, weights, 0.6);
      SCOPED_TRACE(testing::Message() << "is_update " << is_update << " K "
                                      << shifts.size());

      std::vector<float> serial_global = base;
      serial.submit([&] { sharded.merge(serial_global, fused, 0.6); }).get();
      expect_params_bit_identical(serial_global, ref_global);

      std::vector<float> pooled_global = base;
      sharded.merge(pooled_global, fused, 0.6);
      expect_params_bit_identical(pooled_global, ref_global);

      // The -0 rule, at a coordinate where it bites: a delta upload's -0.0
      // against a -0.0 global.
      if (is_update && std::all_of(shifts.begin(), shifts.end(),
                                   [](int shift) { return shift == 0; })) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(base[3]), 0x80000000U);
        EXPECT_EQ(std::bit_cast<std::uint32_t>(pooled_global[3]), 0U);
      }
    }
  }
}

// The panel path — a dense, a bitmap, a sparse and an empty update in one
// batch — on any thread count and over stale scratch: the barrier
// aggregate under both rules and the staleness merge, for both payload
// types, must land on the dense oracle and the coordinate-outer reference
// bit for bit. Each batch runs inside a one-worker pool, where
// parallel_for runs inline and whose Workspace a task first fills with
// NaN, so a panel not zeroed per block shows; there the aggregates and the
// merge interleave over the same retained panels. It runs again split
// across the global pool. The store has five blocks, the last one ragged,
// so four workers get a block each.
TEST(FusedAggregate, PanelPathMatchesReferenceOnAnyThreadCountAndStaleScratch) {
  nn::ParameterStore store;
  store.add_group("emb", nn::GroupKind::kEmbedding, 128, 70);
  store.add_group("fc", nn::GroupKind::kDense, 96, 81);
  store.add_group("head", nn::GroupKind::kDense, 3, 37);
  store.finalize();
  const std::size_t n = store.size();
  constexpr std::size_t kBlock = fl::ShardedAccumulator::kBlock;
  ASSERT_NE(n % kBlock, 0U);
  ASSERT_GT(n, 4 * kBlock) << "four workers need a block each";
  std::vector<float> base(n);
  tensor::Rng rng(415);
  for (auto& v : base) v = static_cast<float>(rng.normal());

  parallel::ThreadPool serial(1);
  serial
      .submit([] {
        tensor::Workspace::Scope scope;
        auto scratch = tensor::Workspace::local().alloc<double>(4 * kBlock);
        std::fill(scratch.begin(), scratch.end(),
                  std::numeric_limits<double>::quiet_NaN());
      })
      .get();
  fl::ShardedAccumulator sharded;
  for (const bool is_update : {false, true}) {
    const Batch b = mixed_batch(store, is_update);
    std::vector<fl::FusedUpdate> damped = b.fused;
    std::vector<double> weights;
    for (std::size_t k = 0; k < damped.size(); ++k) {
      damped[k].weight *= std::pow(2.0 + static_cast<double>(k), -0.5);
      weights.push_back(damped[k].weight);
    }
    std::vector<float> ref_masked = base;
    std::vector<float> ref_normalized = base;
    std::vector<float> ref_merged = base;
    reference::aggregate(ref_masked, b.dense,
                         fl::AggregationRule::kMaskedAverage);
    reference::aggregate(ref_normalized, b.dense,
                         fl::AggregationRule::kPerCoordinateNormalized);
    reference_merge(ref_merged, b.dense, weights, 0.6);

    for (const bool pooled : {false, true}) {
      SCOPED_TRACE(testing::Message() << "is_update " << is_update
                                      << (pooled ? " pooled" : " serial"));
      std::vector<float> masked = base;
      std::vector<float> normalized = base;
      std::vector<float> merged = base;
      const auto commit = [&] {
        sharded.aggregate(masked, b.fused,
                          fl::AggregationRule::kMaskedAverage);
        sharded.merge(merged, damped, 0.6);
        sharded.aggregate(normalized, b.fused,
                          fl::AggregationRule::kPerCoordinateNormalized);
      };
      if (pooled) {
        commit();
      } else {
        serial.submit(commit).get();
      }
      expect_params_bit_identical(masked, ref_masked);
      expect_params_bit_identical(normalized, ref_normalized);
      expect_params_bit_identical(merged, ref_merged);
    }
  }
}

// --- vector kernels == scalar reference, bitwise ---------------------------

void expect_doubles_bit_identical(std::span<const double> a,
                                  std::span<const double> b,
                                  const char* what, std::size_t len) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << what << " len " << len << " coord " << i;
  }
}

// The vectorized fused kernels against their scalar fused::ref:: twins on
// every ragged length around the 4-lane boundaries, over hostile floats
// (NaN, ±inf, -0): each per-coordinate IEEE multiply and add must round
// identically, or the -ffp-contract=off contract is broken somewhere.
TEST(FusedKernels, VectorMatchesScalarRefBitwiseOnRaggedLengths) {
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{4}, std::size_t{5}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{15}, std::size_t{16}, std::size_t{17},
        std::size_t{63}, std::size_t{64}, std::size_t{65}, std::size_t{127},
        std::size_t{1000}}) {
    const auto values = hostile_values(len, 501 + len);
    const auto global = hostile_values(len, 601 + len);
    const double weight = 3.25;
    // Without a global the run adds the values; with one, their deltas.
    for (const float* g : {static_cast<const float*>(nullptr), global.data()}) {
      const char* what = g == nullptr ? "accumulate_run" : "delta run";
      std::vector<double> acc_v(len, 0.125), acc_r(len, 0.125);
      std::vector<double> w_v(len, 0.5), w_r(len, 0.5);
      fl::fused::accumulate_run(acc_v.data(), w_v.data(), values.data(), g,
                                len, weight);
      fl::fused::ref::accumulate_run(acc_r.data(), w_r.data(), values.data(),
                                     g, len, weight);
      expect_doubles_bit_identical(acc_v, acc_r, what, len);
      expect_doubles_bit_identical(w_v, w_r, what, len);
    }
  }
}

TEST(FusedKernels, SparseVectorMatchesScalarRefBitwise) {
  constexpr std::size_t kBlock = fl::ShardedAccumulator::kBlock;
  const std::size_t base = kBlock;  // a non-zero block
  for (const std::size_t count :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
        std::size_t{5}, std::size_t{13}, std::size_t{64}, std::size_t{257}}) {
    // Strictly ascending indices spread over the block.
    std::vector<std::uint32_t> indices(count);
    for (std::size_t c = 0; c < count; ++c) {
      indices[c] = static_cast<std::uint32_t>(base + c * (kBlock / 300 + 1));
    }
    const auto values = hostile_values(count, 701 + count);
    std::vector<float> global(kBlock);
    {
      const auto g = hostile_values(kBlock, 801 + count);
      global.assign(g.begin(), g.end());
    }
    // The delta form reads the global at absolute coordinates.
    std::vector<float> wide_global(base + kBlock);
    std::copy(global.begin(), global.end(), wide_global.begin() + base);
    const double weight = 0.375;
    const float* const globals[] = {nullptr, wide_global.data()};
    for (const float* g : globals) {
      const char* what = g == nullptr ? "accumulate_sparse" : "delta sparse";
      std::vector<double> acc_v(kBlock, 0.0625), acc_r(kBlock, 0.0625);
      std::vector<double> w_v(kBlock, 2.0), w_r(kBlock, 2.0);
      fl::fused::accumulate_sparse(acc_v.data(), w_v.data(), indices.data(),
                                   values.data(), g, count, base, weight);
      fl::fused::ref::accumulate_sparse(acc_r.data(), w_r.data(),
                                        indices.data(), values.data(), g,
                                        count, base, weight);
      expect_doubles_bit_identical(acc_v, acc_r, what, count);
      expect_doubles_bit_identical(w_v, w_r, what, count);
    }
  }
}

/// A delta-form update sending `values` at every coordinate.
wire::CompactUpdate dense_update(std::vector<float> values) {
  wire::CompactUpdate u;
  u.form = wire::CompactUpdate::Form::kDense;
  u.coords = values.size();
  u.values = std::move(values);
  return u;
}

// Random inputs almost never expose a one-ulp double error once the result
// is rounded to float, so this batch is built to: d and -d at weights
// 1 - 2^-30 and 1 + 2^-30 cancel to ~2^-29·d, and the rounding of the
// second product, which a fused multiply-add would skip, shows at float
// precision. The batch is merged by the register path and, with an empty
// sparse update appended, by the panel path; both must round every product
// before its add. The test first checks that a contracted evaluation does
// give different floats, so it can see the mistake it guards against.
TEST(FusedAggregate, MergeRoundsEachProductBeforeItsAdd) {
  constexpr std::size_t n = 1001;
  const double w1 = 1.0 - std::ldexp(1.0, -30);
  const double w2 = 1.0 + std::ldexp(1.0, -30);
  tensor::Rng rng(413);
  std::vector<float> d(n), neg(n);
  for (std::size_t i = 0; i < n; ++i) {
    d[i] = static_cast<float>(rng.normal(0, 1));
    neg[i] = -d[i];
  }
  std::vector<float> expect(n), contracted(n);
  for (std::size_t i = 0; i < n; ++i) {
    // volatile pins each rounding whatever this file's contraction mode.
    volatile double p1 = w1 * static_cast<double>(d[i]);
    volatile double p2 = w2 * static_cast<double>(neg[i]);
    volatile double acc = 0.0 + p1;
    acc = acc + p2;
    expect[i] = 0.0F + static_cast<float>(0.6 * acc / 2.0);
    const double fused = std::fma(w2, static_cast<double>(neg[i]), p1);
    contracted[i] = 0.0F + static_cast<float>(0.6 * fused / 2.0);
  }
  std::size_t visible = 0;
  for (std::size_t i = 0; i < n; ++i) {
    visible += std::bit_cast<std::uint32_t>(expect[i]) !=
               std::bit_cast<std::uint32_t>(contracted[i]);
  }
  ASSERT_GT(visible, n / 4);

  const wire::CompactUpdate a = dense_update(d);
  const wire::CompactUpdate b = dense_update(neg);
  wire::CompactUpdate none;  // transmits nothing, but forces the panels
  none.form = wire::CompactUpdate::Form::kSparse;
  none.coords = n;
  fl::ShardedAccumulator sharded;
  std::vector<fl::FusedUpdate> batch = {{&a, w1, true}, {&b, w2, true}};
  for (const bool panels : {false, true}) {
    if (panels) batch.push_back({&none, 1.0, true});
    std::vector<float> global(n, 0.0F);
    sharded.merge(global, batch, 0.6);
    SCOPED_TRACE(panels ? "panel path" : "register path");
    expect_params_bit_identical(global, expect);
  }
}

/// Hostile accumulator sums: NaN, ±inf, -0, magnitudes that overflow or
/// underflow float, and ordinary values.
std::vector<double> hostile_sums(std::size_t n, std::uint64_t seed) {
  tensor::Rng rng(seed);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 9) {
      case 0:
        v[i] = std::numeric_limits<double>::quiet_NaN();
        break;
      case 1:
        v[i] = std::numeric_limits<double>::infinity();
        break;
      case 2:
        v[i] = -std::numeric_limits<double>::infinity();
        break;
      case 3:
        v[i] = -0.0;
        break;
      case 4:
        v[i] = 1e300;
        break;
      case 5:
        v[i] = -1e-310;
        break;
      default:
        v[i] = rng.normal(0, 100);
        break;
    }
  }
  return v;
}

/// Denominators with dead lanes (0, -0, negative, NaN) between runs of
/// live positive weights, so 4-lane groups come out all-live, all-dead and
/// mixed.
std::vector<double> mixed_denominators(std::size_t n, std::uint64_t seed) {
  tensor::Rng rng(seed);
  std::vector<double> d(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 11) {
      case 0:
        d[i] = 0.0;
        break;
      case 1:
        d[i] = -0.0;
        break;
      case 2:
        d[i] = -2.5;
        break;
      case 3:
        d[i] = std::numeric_limits<double>::quiet_NaN();
        break;
      default:
        d[i] = rng.uniform(1e-3, 40.0);
        break;
    }
  }
  return d;
}

// The write-back kernels against their scalar fused::ref:: twins on ragged
// lengths: each lane's double divide, float rounding and (for the adding
// kernels) float add must match, and each dead lane must keep its bits.
TEST(FusedKernels, WriteBackMatchesScalarRefBitwiseOnRaggedLengths) {
  auto expect_floats = [](const std::vector<float>& a,
                          const std::vector<float>& b, const char* what,
                          std::size_t len) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
                std::bit_cast<std::uint32_t>(b[i]))
          << what << " len " << len << " coord " << i;
    }
  };
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{4}, std::size_t{5}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{15}, std::size_t{16}, std::size_t{17},
        std::size_t{63}, std::size_t{64}, std::size_t{65}, std::size_t{127},
        std::size_t{1000}}) {
    const auto acc = hostile_sums(len, 901 + len);
    const auto denom = mixed_denominators(len, 951 + len);
    const auto global = hostile_values(len, 991 + len);
    for (const double rate : {0.6, 1.0}) {
      std::vector<float> v = global, r = global;
      fl::fused::add_mean_run(v.data(), acc.data(), denom.data(), len, rate);
      fl::fused::ref::add_mean_run(r.data(), acc.data(), denom.data(), len,
                                   rate);
      expect_floats(v, r, "add_mean_run", len);
    }
    {
      std::vector<float> v = global, r = global;
      fl::fused::store_mean_run(v.data(), acc.data(), denom.data(), len);
      fl::fused::ref::store_mean_run(r.data(), acc.data(), denom.data(), len);
      expect_floats(v, r, "store_mean_run", len);
    }
    // kMaskedAverage's weight panel holds the batch's total weight at every
    // coordinate: at rate 1.0 the kernels are then the plain loops over one
    // positive denominator.
    for (const double d : {3.5, 1e-300}) {
      const std::vector<double> total(len, d);
      std::vector<float> add = global, store = global;
      std::vector<float> add_r = global, store_r = global;
      fl::fused::add_mean_run(add.data(), acc.data(), total.data(), len, 1.0);
      fl::fused::store_mean_run(store.data(), acc.data(), total.data(), len);
      for (std::size_t i = 0; i < len; ++i) {
        add_r[i] += static_cast<float>(acc[i] / d);
        store_r[i] = static_cast<float>(acc[i] / d);
      }
      expect_floats(add, add_r, "add_mean_run over a total", len);
      expect_floats(store, store_r, "store_mean_run over a total", len);
    }
  }
}

// --- ClientRegistry: lazy profiles and the state pool ----------------------

netsim::HeterogeneityConfig stressed_fleet() {
  netsim::HeterogeneityConfig h;
  h.compute_spread = 6.0;
  h.bandwidth_spread = 3.0;
  h.straggler_fraction = 0.3;
  h.straggler_multiplier = 4.0;
  return h;
}

void expect_same_profile(const netsim::ClientProfile& a,
                         const netsim::ClientProfile& b, std::size_t client) {
  EXPECT_EQ(a.link.down_mbps, b.link.down_mbps) << "client " << client;
  EXPECT_EQ(a.link.up_mbps, b.link.up_mbps) << "client " << client;
  EXPECT_EQ(a.compute_multiplier, b.compute_multiplier) << "client " << client;
  EXPECT_EQ(a.seconds_per_unit, b.seconds_per_unit) << "client " << client;
}

TEST(ClientRegistry, LazyProfilesMatchMakeProfilesInAnyAccessOrder) {
  // Span several profile strides so lookups hit the replay path, the memo,
  // and backward jumps across stride snapshots.
  const std::size_t population = 3 * fl::ClientRegistry::kProfileStride + 77;
  const auto fleet = stressed_fleet();
  const netsim::LinkModel base{.down_mbps = 80.0, .up_mbps = 10.0};
  const tensor::Rng profile_rng = tensor::Rng(123).split(0xA11C);
  const auto eager =
      netsim::make_profiles(population, fleet, base, profile_rng);
  fl::ClientRegistry registry(population, fleet, base, profile_rng);
  tensor::Rng order(17);
  std::vector<std::size_t> probes{population - 1, 0, population / 2, 0,
                                  population - 1};
  for (std::size_t i = 0; i < 200; ++i) {
    probes.push_back(order.uniform_index(population));
  }
  for (const std::size_t c : probes) {
    expect_same_profile(registry.profile(c), eager[c], c);
  }
}

TEST(ClientRegistry, HomogeneousProfilesAreExactlyTheBaseProfile) {
  const std::size_t population = 1u << 20;  // 1M clients, zero draws
  const netsim::LinkModel base{.down_mbps = 110.6, .up_mbps = 14.0};
  const netsim::HeterogeneityConfig fleet;  // homogeneous default
  const tensor::Rng profile_rng = tensor::Rng(9).split(0xA11C);
  const auto eager = netsim::make_profiles(3, fleet, base, profile_rng);
  fl::ClientRegistry registry(population, fleet, base, profile_rng);
  for (const std::size_t c :
       {std::size_t{0}, population / 2, population - 1}) {
    expect_same_profile(registry.profile(c), eager[0], c);
  }
}

TEST(ClientRegistry, PoolRecyclesValueFreshRecordsAndTracksPeak) {
  fl::ClientRegistry registry(16, {}, {}, tensor::Rng(1));
  fl::ClientState* a = registry.acquire();
  fl::ClientState* b = registry.acquire();
  fl::ClientState* c = registry.acquire();
  EXPECT_EQ(registry.active(), 3u);
  EXPECT_EQ(registry.peak_active(), 3u);
  EXPECT_EQ(registry.materialized(), 3u);
  // Dirty a record thoroughly, then release it.
  b->client = 7;
  b->version = 3;
  b->attempt = 9;
  b->churn_fails = true;
  b->release_on_duplicate = true;
  b->framed_bytes = 1234;
  b->pending = std::make_unique<fl::PendingUpdate>();
  registry.release(b);
  registry.release(c);
  EXPECT_EQ(registry.active(), 1u);
  // Re-acquire: recycled records are value-initialized, and the pool grows
  // no further — peak and materialization track concurrency.
  const fl::ClientState fresh;
  for (int i = 0; i < 2; ++i) {
    fl::ClientState* r = registry.acquire();
    EXPECT_TRUE(r == b || r == c);
    EXPECT_EQ(r->client, fresh.client);
    EXPECT_EQ(r->version, fresh.version);
    EXPECT_EQ(r->attempt, fresh.attempt);
    EXPECT_EQ(r->churn_fails, fresh.churn_fails);
    EXPECT_EQ(r->release_on_duplicate, fresh.release_on_duplicate);
    EXPECT_EQ(r->framed_bytes, fresh.framed_bytes);
    EXPECT_EQ(r->pending, nullptr);
    EXPECT_FALSE(r->snapshot);
  }
  EXPECT_EQ(registry.active(), 3u);
  EXPECT_EQ(registry.peak_active(), 3u);
  EXPECT_EQ(registry.materialized(), 3u);
  std::size_t seen = 0;
  registry.for_each_active([&](fl::ClientState&) { ++seen; });
  EXPECT_EQ(seen, 3u);
  registry.release(a);
}

// --- IdleSet: order statistics over the idle positions ---------------------

TEST(IdleSet, SelectMatchesNaiveAscendingScan) {
  const std::size_t n = 257;
  fl::IdleSet set(n);
  std::vector<bool> busy(n, false);
  auto naive_select = [&](std::size_t j) {
    for (std::size_t x = 0; x < n; ++x) {
      if (!busy[x] && j-- == 0) return x;
    }
    ADD_FAILURE() << "naive select out of range";
    return n;
  };
  auto check_all = [&] {
    ASSERT_EQ(set.idle_count(),
              static_cast<std::size_t>(std::count(busy.begin(), busy.end(),
                                                  false)));
    for (std::size_t j = 0; j < set.idle_count(); ++j) {
      ASSERT_EQ(set.select(j), naive_select(j)) << "order statistic " << j;
    }
  };
  tensor::Rng rng(21);
  for (std::size_t step = 0; step < 400; ++step) {
    const std::size_t pos = rng.uniform_index(n);
    if (busy[pos]) {
      set.set_idle(pos);
      busy[pos] = false;
    } else if (set.idle_count() > 1 || rng.bernoulli(0.5)) {
      set.set_busy(pos);
      busy[pos] = true;
    }
    if (step % 16 == 0) check_all();
    ASSERT_EQ(set.is_idle(pos), !busy[pos]);
  }
  check_all();
}

TEST(IdleSet, FullyBusyPrefixDoesNotUnderflow) {
  // The regression that motivated the subtraction-free predicate: when
  // positions 0..k are all busy, x − |busy ≤ x| underflows in unsigned
  // arithmetic and a naive binary search returns a busy position.
  const std::size_t n = 70;  // spans a 64-bit word boundary
  fl::IdleSet set(n);
  for (std::size_t k = 0; k + 1 < n; ++k) {
    set.set_busy(k);
    ASSERT_EQ(set.select(0), k + 1) << "prefix of " << k + 1 << " busy";
  }
  for (std::size_t k = n - 1; k-- > 0;) set.set_idle(k);
  ASSERT_EQ(set.select(0), 0u);
  ASSERT_EQ(set.idle_count(), n);
}

// --- engine at population scale --------------------------------------------

struct ScaleFixture {
  fl::SimulationConfig sim;
  data::DatasetPtr train;
  data::DatasetPtr test;
  data::Partition partition;
  nn::ModelFactory factory;
};

/// `population` registered clients, of which only `samples` hold data (iid
/// deal, one sample each) — the registered set dwarfs the populated set,
/// which dwarfs the in-flight set, exactly the cross-device shape.
ScaleFixture make_scale_fixture(std::size_t population, std::size_t samples,
                                double selection_fraction,
                                std::size_t threads, std::size_t rounds,
                                std::uint64_t seed) {
  ScaleFixture fx;
  fx.sim.rounds = rounds;
  fx.sim.selection_fraction = selection_fraction;
  fx.sim.train.local_iterations = 2;
  fx.sim.train.batch_size = 4;
  fx.sim.train.sgd = {.lr = 0.1F, .weight_decay = 0.0F, .clip_norm = 0.0F};
  fx.sim.seed = seed;
  fx.sim.threads = threads;
  auto img_cfg = data::ImageSynthConfig::mnist_like(3);
  img_cfg.train_samples = samples;
  img_cfg.test_samples = 20;
  img_cfg.height = 8;
  img_cfg.width = 8;
  const auto datasets = data::make_image_datasets(img_cfg);
  fx.train = datasets.train;
  fx.test = datasets.test;
  tensor::Rng prng(5);
  fx.partition = data::partition_iid(samples, population, prng);
  fx.factory = [] {
    return std::make_unique<nn::MlpModel>(
        nn::MlpConfig{.input = 64, .hidden = 6, .classes = 10});
  };
  return fx;
}

scenario::Config churn_faults_scenario(std::uint64_t seed) {
  scenario::Config sc;
  sc.name = "scale_fuzz";
  sc.seed = seed;
  sc.deadline_seconds = 2.5;
  sc.churn = scenario::ChurnConfig{.failure_rate = 0.15};
  sc.faults = scenario::FaultsConfig{
      .corruption_probability = 0.2,
      .corruption_mode = scenario::CorruptionMode::kBitFlip,
      .duplicate_probability = 0.1,
      .retry = {.max_attempts = 2,
                .backoff_seconds = 0.125,
                .backoff_multiplier = 2.0,
                .jitter_fraction = 0.5},
  };
  // No availability block: the model is trivial, so the engine keeps its
  // O(in-flight) selection fast path — what makes 100k registered viable.
  return sc;
}

fl::SimulationResult run_at_scale(const ScaleFixture& fx,
                                  fl::AsyncSimulationConfig cfg) {
  cfg.base = fx.sim;
  cfg.heterogeneity = stressed_fleet();
  fl::AsyncSimulation sim(cfg, fx.factory, fx.train, fx.test, fx.partition,
                          std::make_shared<baselines::FedAvgStrategy>());
  return sim.run();
}

void expect_conserved(const fl::SimulationResult& r) {
  EXPECT_EQ(r.total_dispatched, r.total_committed + r.total_abandoned +
                                    r.total_rejected + r.final_buffered +
                                    r.final_in_flight);
  std::size_t parts = 0;
  for (const auto& rec : r.rounds) parts += rec.participants;
  EXPECT_EQ(parts, r.total_committed);
  EXPECT_GE(r.total_rejected_deliveries, r.total_rejected);
}

void expect_identical(const fl::SimulationResult& a,
                      const fl::SimulationResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].participants, b.rounds[i].participants);
    EXPECT_EQ(a.rounds[i].uplink_bytes_total, b.rounds[i].uplink_bytes_total);
    EXPECT_EQ(a.rounds[i].train_loss, b.rounds[i].train_loss) << "round " << i;
    EXPECT_EQ(a.rounds[i].test_loss, b.rounds[i].test_loss) << "round " << i;
    EXPECT_EQ(a.rounds[i].clock_seconds, b.rounds[i].clock_seconds);
    EXPECT_EQ(a.rounds[i].mean_staleness, b.rounds[i].mean_staleness);
    EXPECT_EQ(a.rounds[i].abandoned, b.rounds[i].abandoned);
    EXPECT_EQ(a.rounds[i].rejected, b.rounds[i].rejected);
  }
  EXPECT_EQ(a.total_dispatched, b.total_dispatched);
  EXPECT_EQ(a.total_committed, b.total_committed);
  EXPECT_EQ(a.total_abandoned, b.total_abandoned);
  EXPECT_EQ(a.total_rejected, b.total_rejected);
  // Pool telemetry is deliberately absent here: like the wall-clock
  // fields, it describes the process, not the trajectory — a resumed run
  // never replays transient pre-snapshot peaks (e.g. duplicate holders).
  ASSERT_EQ(a.final_params.size(), b.final_params.size());
  for (std::size_t i = 0; i < a.final_params.size(); ++i) {
    ASSERT_EQ(a.final_params[i], b.final_params[i]) << "param " << i;
  }
}

// 100k registered, 1k in flight, buffered-K commits: worker-thread count
// must not move a single bit, and per-client server state must track the
// in-flight set, not the registered population or the dispatch count.
TEST(EngineScale, HundredThousandRegisteredIsThreadCountInvariant) {
  constexpr std::size_t kPopulation = 100'000;
  constexpr std::size_t kInFlight = 1'000;
  auto run = [&](std::size_t threads) {
    const ScaleFixture fx = make_scale_fixture(
        kPopulation, /*samples=*/2'000, /*selection_fraction=*/0.01, threads,
        /*rounds=*/2, /*seed=*/9);
    fl::AsyncSimulationConfig cfg;
    cfg.mode = fl::AggregationMode::kBufferedK;
    cfg.buffer_size = 500;
    return run_at_scale(fx, cfg);
  };
  const auto one = run(1);
  const auto four = run(4);
  expect_identical(one, four);
  EXPECT_EQ(one.peak_in_flight_states, four.peak_in_flight_states);
  EXPECT_EQ(one.materialized_states, four.materialized_states);
  expect_conserved(one);
  EXPECT_GE(one.total_dispatched, kInFlight);
  // No scenario → no duplicate holders: the pool is exactly the wave.
  EXPECT_EQ(one.peak_in_flight_states, kInFlight);
  EXPECT_EQ(one.materialized_states, one.peak_in_flight_states);
  EXPECT_LE(one.materialized_states, kInFlight);
}

// 30 seeds of churn + corruption + duplicates + deadline pressure over 100k
// registered clients: the conservation ledger holds, and peak materialized
// ClientState stays within a small headroom of the in-flight target —
// independent of both the registered population and the dispatch volume.
TEST(EngineScale, ConservationFuzzThirtySeedsAtHundredThousand) {
  constexpr std::size_t kPopulation = 100'000;
  constexpr std::size_t kTarget = 200;  // 0.002 × population
  const ScaleFixture base_fx = make_scale_fixture(
      kPopulation, /*samples=*/600, /*selection_fraction=*/0.002,
      /*threads=*/2, /*rounds=*/2, /*seed=*/0);
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    ScaleFixture fx = base_fx;
    fx.sim.seed = seed;
    fl::AsyncSimulationConfig cfg;
    cfg.mode = fl::AggregationMode::kBufferedK;
    cfg.buffer_size = 50;
    const scenario::Config sc = churn_faults_scenario(seed);
    cfg.hooks = scenario::make_engine_hooks(sc, kPopulation);
    cfg.scenario_name = sc.name;
    const auto r = run_at_scale(fx, cfg);
    expect_conserved(r);
    // The pool never grows past the wave plus the few records pinned by
    // pending duplicate deliveries — never toward total_dispatched, and
    // never toward the registered population.
    EXPECT_LE(r.peak_in_flight_states, 2 * kTarget) << "seed " << seed;
    EXPECT_EQ(r.materialized_states, r.peak_in_flight_states)
        << "seed " << seed;
    EXPECT_GT(r.total_dispatched, 0u) << "seed " << seed;
  }
}

// 30 seeds of churn + corruption + duplicates + deadline pressure, each run
// at 1, 4, and 8 worker threads: the block-owner partitioning in the fused
// committer must keep every round record and every final parameter bit
// identical — worker count may only change which thread adds, never the
// per-coordinate add order.
TEST(EngineScale, FuzzThirtySeedsBitIdenticalAcrossThreadCounts) {
  constexpr std::size_t kPopulation = 20'000;
  const ScaleFixture base_fx = make_scale_fixture(
      kPopulation, /*samples=*/600, /*selection_fraction=*/0.01,
      /*threads=*/1, /*rounds=*/2, /*seed=*/0);
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    auto run = [&](std::size_t threads) {
      ScaleFixture fx = base_fx;
      fx.sim.seed = seed;
      fx.sim.threads = threads;
      fl::AsyncSimulationConfig cfg;
      cfg.mode = fl::AggregationMode::kBufferedK;
      cfg.buffer_size = 50;
      const scenario::Config sc = churn_faults_scenario(seed);
      cfg.hooks = scenario::make_engine_hooks(sc, kPopulation);
      cfg.scenario_name = sc.name;
      return run_at_scale(fx, cfg);
    };
    const auto one = run(1);
    const auto four = run(4);
    const auto eight = run(8);
    expect_conserved(one);
    expect_identical(one, four);
    expect_identical(one, eight);
  }
}

std::string fresh_dir(const std::string& tag) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("fedbiad_scale_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// Checkpoints at scale: a snapshot holds the in-flight dispatches only —
// dormant registered clients are never serialized — and resuming through
// the registry reproduces the uninterrupted trajectory bit for bit.
TEST(EngineScale, CheckpointHoldsInFlightOnlyAndResumesBitIdentically) {
  constexpr std::size_t kPopulation = 10'000;
  constexpr std::size_t kTarget = 200;  // 0.02 × population
  auto run = [&](const std::string& dir, bool resume) {
    const ScaleFixture fx = make_scale_fixture(
        kPopulation, /*samples=*/600, /*selection_fraction=*/0.02,
        /*threads=*/2, /*rounds=*/2, /*seed=*/11);
    fl::AsyncSimulationConfig cfg;
    cfg.mode = fl::AggregationMode::kBufferedK;
    cfg.buffer_size = 100;
    const scenario::Config sc = churn_faults_scenario(77);
    cfg.hooks = scenario::make_engine_hooks(sc, kPopulation);
    cfg.scenario_name = sc.name;
    if (!dir.empty()) {
      cfg.checkpoint.directory = dir;
      cfg.checkpoint.every_rounds = 1;
      cfg.checkpoint.keep = 8;
      cfg.checkpoint.resume = resume;
    }
    return run_at_scale(fx, cfg);
  };
  const std::string full_dir = fresh_dir("full");
  const auto uninterrupted = run(full_dir, /*resume=*/false);
  const auto snapshots = checkpoint::list_snapshots(full_dir);
  ASSERT_GE(snapshots.size(), 2u);
  for (const auto& path : snapshots) {
    const auto snap = checkpoint::read_snapshot(path);
    // O(in-flight), not O(registered): 10k dormant clients never appear.
    EXPECT_LE(snap.jobs.size(), 2 * kTarget) << path;
  }
  const std::string resume_dir = fresh_dir("resume");
  fs::copy_file(snapshots[0],
                fs::path(resume_dir) / fs::path(snapshots[0]).filename());
  const auto resumed = run(resume_dir, /*resume=*/true);
  expect_identical(resumed, uninterrupted);
  EXPECT_LE(resumed.peak_in_flight_states, 2 * kTarget);
}

}  // namespace
}  // namespace fedbiad
