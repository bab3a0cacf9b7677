// Cross-module property tests: invariants that tie upload accounting,
// presence masks, aggregation, and the strategies together, plus
// failure-injection cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <span>

#include "baselines/fedavg.hpp"
#include "baselines/unit_mask.hpp"
#include "common/check.hpp"
#include "compress/compressed_strategy.hpp"
#include "compress/dgc.hpp"
#include "compress/quantize.hpp"
#include "compress/stc.hpp"
#include "core/drop_pattern.hpp"
#include "core/fedbiad_strategy.hpp"
#include "data/image_synth.hpp"
#include "data/partition.hpp"
#include "data/text_synth.hpp"
#include "fl/async_simulation.hpp"
#include "masked_step.hpp"
#include "nn/lstm_lm_model.hpp"
#include "nn/mlp_model.hpp"
#include "nn/optimizer.hpp"
#include "tensor/ops.hpp"
#include "wire/accounting.hpp"
#include "wire/compact.hpp"
#include "wire/reader.hpp"
#include "wire/writer.hpp"

#include "aggregate.hpp"

namespace fedbiad {
namespace {

/// Runs one client and then performs the server-side decode step exactly as
/// the engines do on upload arrival, so tests can inspect the dense view.
template <typename Strat>
fl::ClientOutcome run_decoded(Strat& strat, fl::ClientContext& ctx) {
  auto out = strat.run_client(ctx);
  fl::decode_outcome(strat, ctx.model.store(), out);
  return out;
}

// Presence mask and upload accounting must agree: bytes = 4·(#present
// coordinates) + packed pattern bits, for any rate and eligibility.
class PatternAccounting : public ::testing::TestWithParam<double> {};

TEST_P(PatternAccounting, BytesMatchPresence) {
  const double rate = GetParam();
  nn::LstmLmModel model({.vocab = 37, .embed = 8, .hidden = 12, .layers = 2});
  const auto& store = model.store();
  for (const auto& eligible :
       {core::eligible_all(), core::eligible_dense()}) {
    tensor::Rng rng(11);
    const auto p = core::DropPattern::sample(store, rate, eligible, rng);
    std::vector<std::uint8_t> present(store.size(), 1);
    p.mark_presence(store, present);
    const auto present_count = static_cast<std::uint64_t>(
        std::count(present.begin(), present.end(), std::uint8_t{1}));
    EXPECT_EQ(p.upload_bytes(store),
              present_count * 4 + (store.droppable_rows() + 7) / 8);
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, PatternAccounting,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75));

TEST(AggregateProperty, SingleClientIsIdentityOnPresentCoords) {
  tensor::Rng rng(5);
  std::vector<float> global(64);
  for (auto& g : global) g = static_cast<float>(rng.normal(0, 1));
  const auto before = global;
  fl::ClientOutcome o;
  o.samples = 3;
  o.values.resize(64);
  o.present = wire::Bitset(64);
  for (std::size_t i = 0; i < 64; ++i) {
    o.values[i] = static_cast<float>(rng.normal(0, 1));
    o.present.set(i, rng.bernoulli(0.5));
  }
  std::vector<fl::ClientOutcome> outs{o};
  reference::aggregate(global, outs,
                       fl::AggregationRule::kPerCoordinateNormalized);
  for (std::size_t i = 0; i < 64; ++i) {
    if (o.present[i]) {
      EXPECT_FLOAT_EQ(global[i], o.values[i]);
    } else {
      EXPECT_FLOAT_EQ(global[i], before[i]);
    }
  }
}

TEST(AggregateProperty, MaskedAverageEqualsManualEquationTen) {
  // Random instance of eq. 10 verified against a direct computation.
  tensor::Rng rng(7);
  const std::size_t n = 40;
  std::vector<float> global(n, 0.0F);
  std::vector<fl::ClientOutcome> outs(3);
  double total_w = 0.0;
  for (std::size_t k = 0; k < outs.size(); ++k) {
    outs[k].samples = k + 1;
    total_w += static_cast<double>(k + 1);
    outs[k].values.resize(n);
    outs[k].present = wire::Bitset(n);
    for (std::size_t i = 0; i < n; ++i) {
      outs[k].present.set(i, rng.bernoulli(0.6));
      outs[k].values[i] =
          outs[k].present[i] ? static_cast<float>(rng.normal(0, 1)) : 0.0F;
    }
  }
  reference::aggregate(global, outs, fl::AggregationRule::kMaskedAverage);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (const auto& o : outs) {
      acc += static_cast<double>(o.samples) * o.values[i];  // zeros included
    }
    EXPECT_NEAR(global[i], acc / total_w, 1e-5);
  }
}

TEST(FedBiadProperty, DroppedUnitWeightsNeverTrain) {
  // A row dropped for the whole round must come back bit-identical in the
  // uploaded variational parameters.
  auto cfg = data::ImageSynthConfig::mnist_like(31);
  cfg.train_samples = 64;
  cfg.test_samples = 8;
  const auto ds = data::make_image_datasets(cfg);
  nn::MlpModel model({.input = 784, .hidden = 16, .classes = 10});
  tensor::Rng init(1);
  model.init_params(init);
  std::vector<float> global(model.store().params().begin(),
                            model.store().params().end());
  std::vector<std::size_t> shard(ds.train->size());
  for (std::size_t i = 0; i < shard.size(); ++i) shard[i] = i;
  fl::TrainSettings settings;
  settings.local_iterations = 50;  // tau=60 → no resampling mid-round
  settings.batch_size = 8;
  settings.sgd = {.lr = 0.1F, .weight_decay = 0.0F, .clip_norm = 0.0F};
  core::FedBiadStrategy strat({.dropout_rate = 0.5,
                               .tau = 60,
                               .stage_boundary = 5,
                               .sample_posterior = false});
  fl::ClientContext ctx{.client_id = 0,
                        .round = 1,
                        .model = model,
                        .global_params = global,
                        .dataset = *ds.train,
                        .shard = shard,
                        .settings = settings,
                        .rng = tensor::Rng(2)};
  auto out = run_decoded(strat, ctx);
  const auto& store = model.store();
  // Dropped rows are not transmitted at all, so after per-coordinate
  // aggregation of this single client the global keeps its previous values
  // there bit for bit — the wire-level form of "dropped rows never train".
  std::vector<float> aggregated = global;
  reference::aggregate(aggregated, std::vector<fl::ClientOutcome>{out},
                       fl::AggregationRule::kPerCoordinateNormalized);
  bool any_dropped = false;
  for (std::size_t j = 0; j < store.droppable_rows(); ++j) {
    const auto ref = store.droppable_row(j);
    const auto& grp = store.group(ref.group);
    const std::size_t begin = grp.offset + ref.row * grp.row_len;
    if (out.present[begin]) continue;
    any_dropped = true;
    for (std::size_t i = begin; i < begin + grp.row_len; ++i) {
      ASSERT_EQ(out.values[i], 0.0F) << "dropped row " << j << " transmitted";
      ASSERT_EQ(aggregated[i], global[i]) << "dropped row " << j << " moved";
    }
  }
  EXPECT_TRUE(any_dropped);
}

TEST(FedBiadProperty, RunClientIsDeterministic) {
  auto cfg = data::ImageSynthConfig::mnist_like(37);
  cfg.train_samples = 64;
  cfg.test_samples = 8;
  const auto ds = data::make_image_datasets(cfg);
  std::vector<std::size_t> shard(ds.train->size());
  for (std::size_t i = 0; i < shard.size(); ++i) shard[i] = i;
  fl::TrainSettings settings;
  settings.local_iterations = 9;
  settings.batch_size = 8;
  settings.sgd = {.lr = 0.1F, .weight_decay = 0.0F, .clip_norm = 0.0F};

  auto run_once = [&] {
    nn::MlpModel model({.input = 784, .hidden = 12, .classes = 10});
    tensor::Rng init(3);
    model.init_params(init);
    std::vector<float> global(model.store().params().begin(),
                              model.store().params().end());
    core::FedBiadStrategy strat(
        {.dropout_rate = 0.5, .tau = 2, .stage_boundary = 5});
    fl::ClientContext ctx{.client_id = 4,
                          .round = 1,
                          .model = model,
                          .global_params = global,
                          .dataset = *ds.train,
                          .shard = shard,
                          .settings = settings,
                          .rng = tensor::Rng(99)};
    return run_decoded(strat, ctx);
  };
  const auto a = run_once();
  const auto b = run_once();
  // The encoded buffers themselves must be byte-identical, not just their
  // decoded views.
  EXPECT_EQ(a.payload.bytes, b.payload.bytes);
  EXPECT_EQ(a.present, b.present);
  EXPECT_EQ(a.uplink_bytes, b.uplink_bytes);
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    ASSERT_FLOAT_EQ(a.values[i], b.values[i]);
  }
}

class WidthRatioSweep : public ::testing::TestWithParam<double> {};

TEST_P(WidthRatioSweep, SubmodelBytesMonotone) {
  const double ratio = GetParam();
  nn::LstmLmModel model({.vocab = 50, .embed = 16, .hidden = 16, .layers = 2});
  const auto plan = baselines::WidthPlan::for_lstm_lm(model);
  const auto bytes = plan.submodel_bytes(model.store(), ratio);
  const auto bytes_wider =
      plan.submodel_bytes(model.store(), std::min(1.0, ratio + 0.25));
  EXPECT_LE(bytes, bytes_wider);
  EXPECT_LE(bytes, core::dense_model_bytes(model.store()) + 8);
}

INSTANTIATE_TEST_SUITE_P(Ratios, WidthRatioSweep,
                         ::testing::Values(0.125, 0.25, 0.5, 0.75, 1.0));

TEST(ComposedProperty, EveryCompressorComposesWithFedBiad) {
  auto cfg = data::ImageSynthConfig::mnist_like(41);
  cfg.train_samples = 120;
  cfg.test_samples = 40;
  const auto ds = data::make_image_datasets(cfg);
  tensor::Rng prng(42);
  auto partition = data::partition_iid(ds.train->size(), 6, prng);
  auto factory = [] {
    return std::make_unique<nn::MlpModel>(
        nn::MlpConfig{.input = 784, .hidden = 12, .classes = 10});
  };
  fl::SimulationConfig sim_cfg;
  sim_cfg.rounds = 2;
  sim_cfg.selection_fraction = 0.5;
  sim_cfg.train.local_iterations = 4;
  sim_cfg.train.batch_size = 8;
  sim_cfg.train.sgd = {.lr = 0.1F, .weight_decay = 0.0F, .clip_norm = 0.0F};
  sim_cfg.threads = 2;

  const std::vector<compress::CompressorPtr> compressors{
      std::make_shared<compress::DgcCompressor>(),
      std::make_shared<compress::StcCompressor>(),
      std::make_shared<compress::SignSgdCompressor>(),
      std::make_shared<compress::FedPaqCompressor>(),
  };
  for (const auto& comp : compressors) {
    auto inner = std::make_shared<core::FedBiadStrategy>(
        core::FedBiadConfig{.dropout_rate = 0.5,
                            .tau = 2,
                            .stage_boundary = 2,
                            .sample_posterior = false});
    auto composed = std::make_shared<compress::ComposedStrategy>(inner, comp);
    fl::AsyncSimulation sim({.base = sim_cfg}, factory, ds.train, ds.test,
                            partition, composed);
    const auto result = sim.run();
    ASSERT_EQ(result.rounds.size(), 2u) << comp->name();
    EXPECT_GT(result.rounds.front().uplink_bytes_total, 0u) << comp->name();
    // Composition can never cost more than the dropout upload it wraps.
    nn::MlpModel probe({.input = 784, .hidden = 12, .classes = 10});
    EXPECT_LT(result.mean_upload_bytes(),
              static_cast<double>(core::dense_model_bytes(probe.store())))
        << comp->name();
  }
}

TEST(TextSynthProperty, StructureProbControlsBigramFollowRate) {
  // The fraction of transitions following the topic permutation should
  // track structure_prob (up to chance collisions).
  for (const double sp : {0.2, 0.8}) {
    auto cfg = data::TextSynthConfig::ptb_like(51);
    cfg.vocab = 200;
    cfg.topics = 1;
    cfg.structure_prob = sp;
    cfg.train_sequences = 400;
    cfg.test_sequences = 10;
    const auto ds = data::make_text_datasets_iid(cfg, 1);
    // Reconstruct the permutation empirically: the most frequent successor
    // of each token is perm[token] when sp is large; instead we measure the
    // repeat rate of the modal successor, which grows with sp.
    std::vector<std::size_t> idx(ds.train->size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    const auto batch = ds.train->make_batch(idx);
    std::map<std::pair<int, int>, int> bigram;
    std::map<int, int> prev_count;
    for (std::size_t i = 0; i < batch.tokens.size(); ++i) {
      bigram[{batch.tokens[i], batch.targets[i]}]++;
      prev_count[batch.tokens[i]]++;
    }
    double modal_mass = 0.0;
    double total = 0.0;
    std::map<int, int> modal;
    for (const auto& [key, count] : bigram) {
      modal[key.first] = std::max(modal[key.first], count);
    }
    for (const auto& [tok, count] : prev_count) {
      if (count < 5) continue;
      modal_mass += modal[tok];
      total += count;
    }
    const double rate = modal_mass / total;
    if (sp > 0.5) {
      EXPECT_GT(rate, 0.6);
    } else {
      EXPECT_LT(rate, 0.6);
    }
  }
}

TEST(SimulationFailure, RejectsBadConfigurations) {
  auto cfg = data::ImageSynthConfig::mnist_like(61);
  cfg.train_samples = 20;
  cfg.test_samples = 4;
  const auto ds = data::make_image_datasets(cfg);
  auto factory = [] {
    return std::make_unique<nn::MlpModel>(
        nn::MlpConfig{.input = 784, .hidden = 4, .classes = 10});
  };
  fl::SimulationConfig sim_cfg;
  // Null strategy.
  EXPECT_THROW(fl::AsyncSimulation({.base = sim_cfg}, factory, ds.train,
                                   ds.test, data::Partition{{0, 1}}, nullptr),
               CheckError);
  // Empty partition.
  EXPECT_THROW(fl::AsyncSimulation(
                   {.base = sim_cfg}, factory, ds.train, ds.test,
                   data::Partition{},
                   std::make_shared<baselines::FedAvgStrategy>()),
               CheckError);
  // All shards empty.
  fl::AsyncSimulation sim({.base = sim_cfg}, factory, ds.train, ds.test,
                          data::Partition{{}, {}},
                          std::make_shared<baselines::FedAvgStrategy>());
  EXPECT_THROW(sim.run(), CheckError);
}

TEST(SimulationFailure, SelectionSkipsEmptyShards) {
  auto cfg = data::ImageSynthConfig::mnist_like(67);
  cfg.train_samples = 40;
  cfg.test_samples = 8;
  const auto ds = data::make_image_datasets(cfg);
  auto factory = [] {
    return std::make_unique<nn::MlpModel>(
        nn::MlpConfig{.input = 784, .hidden = 4, .classes = 10});
  };
  // 4 clients, two of them empty; selecting half must still work.
  data::Partition partition(4);
  for (std::size_t i = 0; i < ds.train->size(); ++i) {
    partition[i % 2].push_back(i);
  }
  fl::SimulationConfig sim_cfg;
  sim_cfg.rounds = 2;
  sim_cfg.selection_fraction = 0.5;
  sim_cfg.train.local_iterations = 2;
  sim_cfg.train.batch_size = 4;
  sim_cfg.threads = 2;
  fl::AsyncSimulation sim({.base = sim_cfg}, factory, ds.train, ds.test,
                          partition,
                          std::make_shared<baselines::FedAvgStrategy>());
  const auto result = sim.run();
  EXPECT_EQ(result.rounds.size(), 2u);
}

// --- wire subsystem properties: primitive round trips, payload round trips
// over hostile value sets (NaN/Inf, ±0, ragged/all-dropped/all-kept/empty),
// and rejection of truncated or corrupted buffers without UB (the ubsan CI
// job runs these under -fsanitize=undefined) ---

/// A deliberately ragged layout: three groups of different row widths, so
/// kept-row runs cross group boundaries of every width pair.
nn::ParameterStore ragged_store() {
  nn::ParameterStore store;
  store.add_group("fc", nn::GroupKind::kDense, 4, 3);
  store.add_group("head", nn::GroupKind::kDense, 2, 5);
  store.add_group("fc2", nn::GroupKind::kDense, 5, 7);
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

void expect_bit_identical(std::span<const float> a, std::span<const float> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
              std::bit_cast<std::uint32_t>(b[i]))
        << "coordinate " << i;
  }
}

TEST(WirePrimitives, FixedWidthAndVarintRoundTrip) {
  wire::Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFU);
  w.u64(0x0123456789ABCDEFULL);
  w.f32(std::numeric_limits<float>::quiet_NaN());
  w.f64(-0.0);
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{127}, std::uint64_t{128},
        std::uint64_t{16383}, std::uint64_t{16384},
        ~std::uint64_t{0}}) {
    w.varint(v);
  }
  const auto bytes = std::move(w).take();
  wire::Reader r(bytes);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFU);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(std::isnan(r.f32()));
  EXPECT_TRUE(std::signbit(r.f64()));
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{127}, std::uint64_t{128},
        std::uint64_t{16383}, std::uint64_t{16384},
        ~std::uint64_t{0}}) {
    EXPECT_EQ(r.varint(), v);
  }
  r.expect_done();
}

TEST(WirePrimitives, ReaderRejectsTruncationAndBadVarints) {
  const std::vector<std::uint8_t> empty;
  EXPECT_THROW(wire::Reader(empty).u8(), wire::DecodeError);
  EXPECT_THROW(wire::Reader(empty).varint(), wire::DecodeError);
  const std::vector<std::uint8_t> three{1, 2, 3};
  EXPECT_THROW(wire::Reader(three).u32(), wire::DecodeError);
  // Continuation bit set on the last available byte.
  const std::vector<std::uint8_t> dangling{0x80};
  EXPECT_THROW(wire::Reader(dangling).varint(), wire::DecodeError);
  // 10-byte varint whose final byte overflows 64 bits.
  std::vector<std::uint8_t> overflow(10, 0x80);
  overflow[9] = 0x02;
  EXPECT_THROW(wire::Reader(overflow).varint(), wire::DecodeError);
  // Trailing garbage after a complete field.
  const std::vector<std::uint8_t> trailing{0x01, 0x02};
  wire::Reader r(trailing);
  (void)r.u8();
  EXPECT_THROW(r.expect_done(), wire::DecodeError);
}

TEST(WirePrimitives, BitRunsRoundTripAcrossByteBoundaries) {
  tensor::Rng rng(77);
  std::vector<std::pair<std::uint64_t, unsigned>> runs;
  for (unsigned width = 1; width <= 64; ++width) {
    const std::uint64_t mask =
        width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    runs.emplace_back(rng.next_u64() & mask, width);
  }
  wire::Writer w;
  {
    wire::BitWriter bw(w);
    for (const auto& [v, width] : runs) bw.bits(v, width);
  }
  const auto bytes = std::move(w).take();
  wire::Reader r(bytes);
  wire::BitReader br(r);
  for (const auto& [v, width] : runs) {
    ASSERT_EQ(br.bits(width), v) << "width " << width;
  }
  br.expect_padding_zero();
  r.expect_done();
}

TEST(WireBitset, PackedRoundTripCountAndRanges) {
  tensor::Rng rng(78);
  for (const std::size_t bits : {0UL, 1UL, 7UL, 8UL, 63UL, 64UL, 65UL,
                                 1000UL}) {
    wire::Bitset b(bits);
    std::size_t expected = 0;
    for (std::size_t i = 0; i < bits; ++i) {
      if (rng.bernoulli(0.4)) {
        b.set(i);
        ++expected;
      }
    }
    EXPECT_EQ(b.count(), expected);
    EXPECT_EQ(wire::Bitset::from_packed(b.packed_bytes(), bits), b);
    EXPECT_EQ(wire::Bitset::from_bytemask(b.to_bytemask()), b);
  }
  // Nonzero padding past the declared size is corruption.
  wire::Bitset b(12);
  auto packed = b.packed_bytes();
  packed[1] |= 0xF0;  // bits 12..15
  EXPECT_THROW(wire::Bitset::from_packed(packed, 12), wire::DecodeError);
  // set_range agrees with bit-by-bit sets across word boundaries.
  wire::Bitset ranged(200);
  ranged.set_range(3, 170);
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(ranged.test(i), i >= 3 && i < 170);
  }
}

TEST(WireCodec, RowMaskedRoundTripHostileValuesAndEdgePatterns) {
  const auto store = ragged_store();
  const std::size_t J = store.droppable_rows();
  const auto values = hostile_values(store.size(), 81);
  std::vector<std::uint8_t> all_kept(J, 1);
  std::vector<std::uint8_t> all_dropped(J, 0);
  std::vector<std::uint8_t> ragged(J, 0);
  for (std::size_t j = 0; j < J; j += 2) ragged[j] = 1;
  for (const auto& row_kept : {all_kept, all_dropped, ragged}) {
    const auto payload = wire::encode_row_masked(store, row_kept, values);
    const auto decoded =
        wire::expand(wire::decode_update_compact(store, payload));
    // The pattern's coverage: every coordinate of each kept row.
    std::vector<std::uint8_t> covered(store.size(), 0);
    for (std::size_t g = 0; g < store.groups().size(); ++g) {
      const nn::RowGroup& grp = store.group(g);
      for (std::size_t r = 0; r < grp.rows; ++r) {
        if (row_kept[store.droppable_index(g, r)] == 0) continue;
        for (std::size_t c = 0; c < grp.row_len; ++c) {
          covered[grp.offset + r * grp.row_len + c] = 1;
        }
      }
    }
    // Measured == the analytic §IV-B oracle via the shared helper.
    const auto kept_weights = static_cast<std::uint64_t>(
        std::count(covered.begin(), covered.end(), std::uint8_t{1}));
    EXPECT_EQ(payload.size(),
              wire::row_masked_bytes(kept_weights, J));
    EXPECT_EQ(decoded.present, wire::Bitset::from_bytemask(covered));
    for (std::size_t i = 0; i < store.size(); ++i) {
      if (covered[i] != 0) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(decoded.values[i]),
                  std::bit_cast<std::uint32_t>(values[i]));
      } else {
        ASSERT_EQ(decoded.values[i], 0.0F);
      }
    }
  }
}

TEST(WireCodec, DenseAndSparseRoundTripsIncludingEmpty) {
  const auto store = ragged_store();
  const std::size_t n = store.size();
  const auto values = hostile_values(n, 83);
  {
    const auto payload = wire::encode_dense_f32(values);
    EXPECT_EQ(payload.size(), wire::dense_f32_bytes(n));
    const auto decoded =
        wire::expand(wire::decode_update_compact(store, payload));
    expect_bit_identical(decoded.values, values);
    EXPECT_EQ(decoded.present.count(), n);
  }
  const std::vector<std::vector<std::uint32_t>> index_sets{
      {},  // empty update
      {0},
      {static_cast<std::uint32_t>(n - 1)},
      {0, 1, 5, 17, static_cast<std::uint32_t>(n - 1)},
  };
  for (const auto& indices : index_sets) {
    std::vector<float> sparse_vals;
    for (const auto idx : indices) sparse_vals.push_back(values[idx]);
    for (const bool fixed : {true, false}) {
      const auto payload =
          fixed ? wire::encode_sparse_fixed(indices, sparse_vals, 64)
                : wire::encode_sparse_varint(indices, sparse_vals);
      EXPECT_EQ(payload.size(),
                fixed ? wire::sparse_fixed_bytes(indices.size(), 64)
                      : wire::sparse_varint_bytes(
                            std::span<const std::uint32_t>(indices)));
      const auto decoded =
          wire::expand(wire::decode_update_compact(store, payload));
      EXPECT_EQ(decoded.present.count(), indices.size());
      for (std::size_t k = 0; k < indices.size(); ++k) {
        ASSERT_TRUE(decoded.present.test(indices[k]));
        ASSERT_EQ(std::bit_cast<std::uint32_t>(decoded.values[indices[k]]),
                  std::bit_cast<std::uint32_t>(sparse_vals[k]));
      }
    }
  }
}

// Uploads queue at the server with the capacity they were built with: every
// encoder sizes its buffer for the payload and its CRC trailer, so sealing
// appends in place and nothing rides along as growth slack.
void expect_exact_capacity(wire::Payload payload) {
  // The payload is its bytes' only holder, so release() hands back the
  // encoder's own vector and its capacity can be read.
  const auto slack = [](wire::Payload& p) {
    std::vector<std::uint8_t> bytes = std::move(p.bytes).release();
    const std::size_t unused = bytes.capacity() - bytes.size();
    p.bytes = std::move(bytes);
    return unused;
  };
  EXPECT_LE(slack(payload), wire::kCrcTrailerBytes);
  const std::uint64_t body = payload.size();
  const std::uint8_t* before = payload.bytes.data();
  wire::seal_payload(payload);
  EXPECT_EQ(payload.size(), wire::framed_bytes(body));
  if (body > 0) EXPECT_EQ(payload.bytes.data(), before);
  EXPECT_LE(slack(payload), wire::kCrcTrailerBytes);
}

// The MNIST MLP's 101,770 coordinates, with every tenth one selected.
struct CapacityFixture {
  nn::MlpModel model{{.input = 784, .hidden = 128, .classes = 10}};
  std::vector<float> values = hostile_values(model.store().size(), 87);
  std::vector<std::uint32_t> indices;
  std::vector<float> picked;
  std::vector<std::uint8_t> mask = std::vector<std::uint8_t>(values.size());

  CapacityFixture() {
    for (std::size_t i = 0; i < values.size(); i += 10) {
      indices.push_back(static_cast<std::uint32_t>(i));
      picked.push_back(values[i]);
      mask[i] = 1;
    }
  }
};

TEST(WireCapacity, DenseF32) {
  const CapacityFixture f;
  expect_exact_capacity(wire::encode_dense_f32(f.values));
  expect_exact_capacity(wire::encode_dense_f32({}));
}

TEST(WireCapacity, RowMasked) {
  const CapacityFixture f;
  const nn::ParameterStore& store = f.model.store();
  std::vector<std::uint8_t> kept(store.droppable_rows(), 1);
  for (std::size_t j = 0; j < kept.size(); j += 5) kept[j] = 0;
  expect_exact_capacity(wire::encode_row_masked(store, kept, f.values));
}

TEST(WireCapacity, SparseFixed) {
  const CapacityFixture f;
  for (const std::size_t bits : {32, 64}) {
    expect_exact_capacity(
        wire::encode_sparse_fixed(f.indices, f.picked, bits));
  }
  const std::vector<std::uint32_t> low(f.indices.begin(),
                                       f.indices.begin() + 100);
  const std::vector<float> low_vals(f.picked.begin(), f.picked.begin() + 100);
  expect_exact_capacity(wire::encode_sparse_fixed(low, low_vals, 16));
}

TEST(WireCapacity, SparseVarint) {
  const CapacityFixture f;
  expect_exact_capacity(wire::encode_sparse_varint(f.indices, f.picked));
}

TEST(WireCapacity, Ternary) {
  const CapacityFixture f;
  std::vector<std::uint8_t> negative(f.indices.size());
  for (std::size_t k = 0; k < negative.size(); k += 3) negative[k] = 1;
  expect_exact_capacity(wire::encode_ternary(0.5F, f.indices, negative, 32));
}

TEST(WireCapacity, SignMean) {
  const CapacityFixture f;
  expect_exact_capacity(wire::encode_sign_mean(0.5F, {}, f.values));
  expect_exact_capacity(wire::encode_sign_mean(0.5F, f.mask, f.values));
}

TEST(WireCapacity, Int8Dense) {
  const CapacityFixture f;
  const std::vector<std::int8_t> quants(f.indices.size(), -3);
  expect_exact_capacity(
      wire::encode_int8_dense(0.5F, quants, f.indices.size()));
}

TEST(WireCapacity, Pruned) {
  const CapacityFixture f;
  const nn::ParameterStore& store = f.model.store();
  // Every tenth coordinate favours the varint variant (one byte per gap,
  // under the bitmap's one bit per coordinate only below 1/8 density);
  // every second one favours the bitmap.
  auto varint = wire::encode_pruned(store, f.mask, f.values);
  EXPECT_EQ(varint.kind, wire::PayloadKind::kPrunedVarint);
  expect_exact_capacity(std::move(varint));
  std::vector<std::uint8_t> dense(f.mask.size());
  for (std::size_t i = 0; i < dense.size(); i += 2) dense[i] = 1;
  auto bitmap = wire::encode_pruned(store, dense, f.values);
  EXPECT_EQ(bitmap.kind, wire::PayloadKind::kPrunedBitmap);
  expect_exact_capacity(std::move(bitmap));
}

TEST(WireCodec, TruncatedAndCorruptedPayloadsAreRejected) {
  const auto store = ragged_store();
  const std::size_t J = store.droppable_rows();
  const auto values = hostile_values(store.size(), 85);
  std::vector<std::uint8_t> kept(J, 1);
  kept[2] = 0;
  const auto base = wire::encode_row_masked(store, kept, values);

  // Truncation and extension at the payload level.
  for (const std::size_t cut : {std::size_t{1}, base.bytes.size() / 2}) {
    wire::Payload truncated = base;
    truncated.bytes = base.bytes.slice(0, base.bytes.size() - cut);
    EXPECT_THROW((void)wire::decode_update_compact(store, truncated),
                 wire::DecodeError);
  }
  wire::Payload extended = base;
  auto longer = std::move(extended.bytes).release();
  longer.push_back(0);
  extended.bytes = std::move(longer);
  EXPECT_THROW((void)wire::decode_update_compact(store, extended),
               wire::DecodeError);

  // Nonzero padding bits in the packed row pattern.
  wire::Payload padded = base;
  const std::size_t pattern_bytes = (J + 7) / 8;
  if (J % 8 != 0) {
    auto bytes = std::move(padded.bytes).release();
    bytes[pattern_bytes - 1] |= std::uint8_t{1} << (J % 8);
    padded.bytes = std::move(bytes);
    EXPECT_THROW((void)wire::decode_update_compact(store, padded),
                 wire::DecodeError);
  }

  // A corrupted pattern byte changes the kept count, so the value section
  // length no longer matches and decode must reject rather than misread.
  wire::Payload flipped = base;
  auto flipped_bytes = std::move(flipped.bytes).release();
  flipped_bytes[0] ^= 0x01;
  flipped.bytes = std::move(flipped_bytes);
  EXPECT_THROW((void)wire::decode_update_compact(store, flipped),
               wire::DecodeError);

  // Sparse: out-of-range and unsorted indices.
  {
    const std::vector<std::uint32_t> bad_idx{
        static_cast<std::uint32_t>(store.size())};
    const std::vector<float> v{1.0F};
    auto payload = wire::encode_sparse_fixed(bad_idx, v, 64);
    EXPECT_THROW((void)wire::decode_update_compact(store, payload),
                 wire::DecodeError);
  }
  {
    std::vector<std::uint32_t> idx{3, 1};
    std::vector<float> v{1.0F, 2.0F};
    wire::Writer w;
    for (std::size_t i = 0; i < idx.size(); ++i) {
      w.u64(idx[i]);
      w.f32(v[i]);
    }
    wire::Payload unsorted{.kind = wire::PayloadKind::kSparseFixed,
                           .aux = 64,
                           .bytes = std::move(w).take()};
    EXPECT_THROW((void)wire::decode_update_compact(store, unsorted),
                 wire::DecodeError);
  }
  // Sparse-varint whose declared count exceeds the model.
  {
    wire::Writer w;
    w.varint(store.size() + 1);
    wire::Payload bogus{.kind = wire::PayloadKind::kSparseVarint,
                        .aux = 0,
                        .bytes = std::move(w).take()};
    EXPECT_THROW((void)wire::decode_update_compact(store, bogus),
                 wire::DecodeError);
  }
  // Ternary whose body is not a whole number of 65-bit entries.
  {
    wire::Payload bogus{.kind = wire::PayloadKind::kTernary,
                        .aux = 64,
                        .bytes = std::vector<std::uint8_t>(7, 0)};
    EXPECT_THROW((void)wire::decode_update_compact(store, bogus),
                 wire::DecodeError);
  }
  // Sub-model with an out-of-range (or NaN) ratio.
  {
    nn::MlpModel model({.input = 6, .hidden = 4, .classes = 3});
    const auto plan = baselines::WidthPlan::for_mlp(model);
    for (const double ratio : {0.0, 1.5, std::nan("")}) {
      wire::Writer w;
      w.f64(ratio);
      wire::Payload bogus{.kind = wire::PayloadKind::kSubModel,
                          .aux = 0,
                          .bytes = std::move(w).take()};
      EXPECT_THROW((void)plan.decode_submodel(model.store(), bogus),
                   wire::DecodeError);
    }
  }
}

TEST(WireOracle, StrategyUplinkIsMeasuredAndMatchesAnalytic) {
  // Acceptance sweep: FedAvg (dense), FedBIAD (row-masked), top-k-family
  // DGC (sparse fixed-64) and STC (ternary) — in every case uplink_bytes is
  // the size of the actually-decoded buffer and equals the analytic oracle.
  auto cfg = data::ImageSynthConfig::mnist_like(91);
  cfg.train_samples = 64;
  cfg.test_samples = 8;
  const auto ds = data::make_image_datasets(cfg);
  nn::MlpModel model({.input = 784, .hidden = 12, .classes = 10});
  const auto& store = model.store();
  std::vector<std::size_t> shard(ds.train->size());
  for (std::size_t i = 0; i < shard.size(); ++i) shard[i] = i;
  fl::TrainSettings settings;
  settings.local_iterations = 4;
  settings.batch_size = 8;
  settings.sgd = {.lr = 0.1F, .weight_decay = 0.0F, .clip_norm = 0.0F};
  auto context = [&](std::size_t client) {
    tensor::Rng init(11);
    model.init_params(init);
    return fl::ClientContext{.client_id = client,
                             .round = 1,
                             .model = model,
                             .global_params = {},
                             .dataset = *ds.train,
                             .shard = shard,
                             .settings = settings,
                             .rng = tensor::Rng(13)};
  };
  std::vector<float> global(store.size());
  {
    auto ctx = context(0);
    tensor::copy(store.params(), global);
    ctx.global_params = global;
    baselines::FedAvgStrategy fedavg;
    const auto out = run_decoded(fedavg, ctx);
    EXPECT_EQ(out.uplink_bytes, out.payload.size());
    EXPECT_EQ(out.uplink_bytes, core::dense_model_bytes(store));
  }
  {
    auto ctx = context(1);
    tensor::copy(store.params(), global);
    ctx.global_params = global;
    core::FedBiadStrategy fedbiad({.dropout_rate = 0.5,
                                   .tau = 3,
                                   .stage_boundary = 5,
                                   .sample_posterior = false});
    const auto out = run_decoded(fedbiad, ctx);
    EXPECT_EQ(out.uplink_bytes, out.payload.size());
    EXPECT_EQ(out.uplink_bytes,
              wire::row_masked_bytes(out.present.count(),
                                     store.droppable_rows()));
  }
  for (const bool use_stc : {false, true}) {
    auto ctx = context(2);
    tensor::copy(store.params(), global);
    ctx.global_params = global;
    compress::CompressorPtr comp;
    if (use_stc) {
      comp = std::make_shared<compress::StcCompressor>(
          compress::StcConfig{.sparsity = 0.01});
    } else {
      // DGC with zero momentum is plain top-k with residual accumulation.
      comp = std::make_shared<compress::DgcCompressor>(
          compress::DgcConfig{.sparsity = 0.01, .momentum = 0.0});
    }
    compress::SketchedStrategy sketched(comp);
    const auto out = run_decoded(sketched, ctx);
    const std::size_t k = out.present.count();
    EXPECT_EQ(out.uplink_bytes, out.payload.size());
    EXPECT_EQ(out.uplink_bytes, use_stc ? wire::ternary_bytes(k, 64)
                                        : wire::sparse_fixed_bytes(k, 64));
  }
}

TEST(SgdProperty, MaskedRowsStayZeroUnderWeightDecay) {
  // Weight decay must not resurrect dropped rows: decay of zero is zero.
  nn::ParameterStore store;
  store.add_group("w", nn::GroupKind::kDense, 4, 3);
  store.finalize();
  for (auto& v : store.params()) v = 1.0F;
  for (auto& g : store.grads()) g = 0.5F;
  core::DropPattern pattern(4);
  pattern.set(1, false);
  pattern.apply_to_params(store);
  reference::zero_dropped_grads(pattern, store);
  nn::sgd_step(store, {.lr = 0.1F, .weight_decay = 0.3F, .clip_norm = 0.0F});
  for (const float v : store.row_params(0, 1)) {
    EXPECT_EQ(v, 0.0F);
  }
  for (const float v : store.row_params(0, 0)) {
    EXPECT_NE(v, 1.0F);  // kept rows trained
  }
}

}  // namespace
}  // namespace fedbiad
