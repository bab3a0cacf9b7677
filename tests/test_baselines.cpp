// Tests for the baseline strategies: FedAvg, FedDrop, AFD, FedMP, FjORD,
// HeteroFL, and the width-plan machinery they share.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "baselines/afd.hpp"
#include "baselines/fedavg.hpp"
#include "baselines/feddrop.hpp"
#include "baselines/fedmp.hpp"
#include "baselines/heterofl.hpp"
#include "baselines/unit_mask.hpp"
#include "common/check.hpp"
#include "core/drop_pattern.hpp"
#include "masked_step.hpp"
#include "data/image_synth.hpp"
#include "data/text_synth.hpp"
#include "nn/lstm_lm_model.hpp"
#include "nn/mlp_model.hpp"
#include "wire/accounting.hpp"
#include "wire/compact.hpp"
#include "wire/reader.hpp"
#include "wire/writer.hpp"

namespace fedbiad::baselines {
namespace {

/// Runs one client and then performs the server-side decode step exactly as
/// the engines do on upload arrival, so tests can inspect the dense view.
template <typename Strat>
fl::ClientOutcome run_decoded(Strat& strat, fl::ClientContext& ctx) {
  auto out = strat.run_client(ctx);
  fl::decode_outcome(strat, ctx.model.store(), out);
  return out;
}

struct ImageHarness {
  explicit ImageHarness(std::uint64_t seed = 5, std::size_t hidden = 12) {
    auto cfg = data::ImageSynthConfig::mnist_like(seed);
    cfg.train_samples = 80;
    cfg.test_samples = 10;
    cfg.height = 10;
    cfg.width = 10;
    datasets = data::make_image_datasets(cfg);
    model = std::make_unique<nn::MlpModel>(
        nn::MlpConfig{.input = 100, .hidden = hidden, .classes = 10});
    tensor::Rng init(seed);
    model->init_params(init);
    shard.resize(datasets.train->size());
    for (std::size_t i = 0; i < shard.size(); ++i) shard[i] = i;
    settings.local_iterations = 6;
    settings.batch_size = 8;
    settings.sgd = {.lr = 0.1F, .weight_decay = 0.0F, .clip_norm = 0.0F};
    global.assign(model->store().params().begin(),
                  model->store().params().end());
  }

  fl::ClientContext context(std::size_t client, std::size_t round) {
    return fl::ClientContext{.client_id = client,
                             .round = round,
                             .model = *model,
                             .global_params = global,
                             .dataset = *datasets.train,
                             .shard = shard,
                             .settings = settings,
                             .rng = tensor::Rng(round * 7919 + client)};
  }

  data::ImageDatasets datasets;
  std::unique_ptr<nn::MlpModel> model;
  std::vector<std::size_t> shard;
  fl::TrainSettings settings;
  std::vector<float> global;
};

struct TextHarness {
  explicit TextHarness(std::uint64_t seed = 6, std::size_t hidden = 10) {
    auto cfg = data::TextSynthConfig::ptb_like(seed);
    cfg.vocab = 40;
    cfg.train_sequences = 60;
    cfg.test_sequences = 10;
    cfg.seq_len = 6;
    datasets = data::make_text_datasets_iid(cfg, 3);
    model = std::make_unique<nn::LstmLmModel>(nn::LstmLmConfig{
        .vocab = 40, .embed = 8, .hidden = hidden, .layers = 2});
    tensor::Rng init(seed);
    model->init_params(init);
    shard = datasets.client_indices[0];
    settings.local_iterations = 4;
    settings.batch_size = 4;
    settings.topk = 3;
    settings.sgd = {.lr = 0.5F, .weight_decay = 0.0F, .clip_norm = 5.0F};
    global.assign(model->store().params().begin(),
                  model->store().params().end());
  }

  fl::ClientContext context(std::size_t client, std::size_t round) {
    return fl::ClientContext{.client_id = client,
                             .round = round,
                             .model = *model,
                             .global_params = global,
                             .dataset = *datasets.train,
                             .shard = shard,
                             .settings = settings,
                             .rng = tensor::Rng(round * 104729 + client)};
  }

  data::TextDatasets datasets;
  std::unique_ptr<nn::LstmLmModel> model;
  std::vector<std::size_t> shard;
  fl::TrainSettings settings;
  std::vector<float> global;
};

TEST(FedAvg, UploadsFullDenseModel) {
  ImageHarness h;
  FedAvgStrategy strat;
  auto ctx = h.context(0, 1);
  const auto out = run_decoded(strat, ctx);
  EXPECT_EQ(out.uplink_bytes, h.model->store().size() * 4);
  EXPECT_TRUE(std::all_of(out.present.begin(), out.present.end(),
                          [](std::uint8_t p) { return p == 1; }));
  EXPECT_FALSE(out.is_update);
}

TEST(FedAvg, TrainingChangesParameters) {
  ImageHarness h;
  FedAvgStrategy strat;
  auto ctx = h.context(0, 1);
  const auto out = run_decoded(strat, ctx);
  double delta = 0.0;
  for (std::size_t i = 0; i < out.values.size(); ++i) {
    delta += std::abs(out.values[i] - h.global[i]);
  }
  EXPECT_GT(delta, 0.0);
}

TEST(FedDrop, RejectsInvalidRate) {
  EXPECT_THROW(FedDropStrategy(1.0), fedbiad::CheckError);
  EXPECT_THROW(FedDropStrategy(-0.1), fedbiad::CheckError);
}

TEST(FedDrop, DropsFcRowsOnMlp) {
  ImageHarness h;
  FedDropStrategy strat(0.5);
  auto ctx = h.context(0, 1);
  const auto out = run_decoded(strat, ctx);
  const double dense =
      static_cast<double>(core::dense_model_bytes(h.model->store()));
  EXPECT_NEAR(static_cast<double>(out.uplink_bytes) / dense, 0.5, 0.05);
}

TEST(FedDrop, NeverDropsRecurrentRowsOnLstm) {
  TextHarness h;
  FedDropStrategy strat(0.5);
  auto ctx = h.context(0, 1);
  const auto out = run_decoded(strat, ctx);
  const auto& store = h.model->store();
  // FedDrop drops fully connected rows only: every recurrent and every
  // embedding coordinate must be present.
  std::size_t embedding_groups = 0;
  for (const auto& grp : store.groups()) {
    if (grp.kind == nn::GroupKind::kDense) continue;
    embedding_groups += grp.kind == nn::GroupKind::kEmbedding ? 1 : 0;
    for (std::size_t i = grp.offset; i < grp.offset + grp.size(); ++i) {
      ASSERT_EQ(out.present[i], 1)
          << nn::to_string(grp.kind) << " coordinate dropped";
    }
  }
  EXPECT_EQ(embedding_groups, 1u);
  // Save ratio is therefore far below 2× — the paper's observation that
  // FedDrop compresses RNN models poorly.
  const double dense =
      static_cast<double>(core::dense_model_bytes(store));
  EXPECT_GT(static_cast<double>(out.uplink_bytes) / dense, 0.6);
}

TEST(FedDrop, DifferentClientsGetDifferentPatterns) {
  ImageHarness h;
  FedDropStrategy strat(0.5);
  auto ctx0 = h.context(0, 1);
  const auto out0 = run_decoded(strat, ctx0);
  auto ctx1 = h.context(1, 1);
  const auto out1 = run_decoded(strat, ctx1);
  EXPECT_NE(out0.present, out1.present);
}

TEST(Afd, AllClientsShareTheRoundPattern) {
  ImageHarness h;
  AfdStrategy strat(0.5);
  strat.begin_round(1, h.global);
  auto ctx0 = h.context(0, 1);
  const auto out0 = run_decoded(strat, ctx0);
  auto ctx1 = h.context(1, 1);
  const auto out1 = run_decoded(strat, ctx1);
  EXPECT_EQ(out0.present, out1.present);
}

TEST(Afd, ScoresUpdateFromAggregatedDelta) {
  ImageHarness h;
  AfdStrategy strat(0.5, 0.0, 0.0);  // no momentum/exploration: pure |Δ|
  strat.begin_round(1, h.global);
  auto ctx = h.context(0, 1);
  strat.run_client(ctx);
  std::vector<float> new_global = h.global;
  new_global[0] += 1.0F;  // move only coordinates of row 0
  strat.end_round(1, h.global, new_global);
  const auto& scores = strat.row_scores();
  ASSERT_FALSE(scores.empty());
  EXPECT_GT(scores[0], 0.0);
  EXPECT_DOUBLE_EQ(scores[1], 0.0);
}

TEST(Afd, SecondRoundDropsLowScoredRows) {
  ImageHarness h;
  AfdStrategy strat(0.5, 0.0, 0.0);
  strat.begin_round(1, h.global);
  auto ctx = h.context(0, 1);
  strat.run_client(ctx);
  // Craft a delta that makes the first half of fc1's rows clearly active.
  std::vector<float> new_global = h.global;
  const auto& store = h.model->store();
  const auto& fc1 = store.group(h.model->fc1_group());
  for (std::size_t r = 0; r < fc1.rows / 2; ++r) {
    for (std::size_t c = 0; c < fc1.row_len; ++c) {
      new_global[fc1.offset + r * fc1.row_len + c] += 1.0F;
    }
  }
  strat.end_round(1, h.global, new_global);
  strat.begin_round(2, h.global);
  auto ctx2 = h.context(1, 2);
  const auto out = run_decoded(strat, ctx2);
  // Active rows must be kept.
  for (std::size_t r = 0; r < fc1.rows / 2; ++r) {
    ASSERT_EQ(out.present[fc1.offset + r * fc1.row_len], 1)
        << "active row " << r << " was dropped";
  }
}

TEST(FedMp, PrunesSmallestMagnitudes) {
  ImageHarness h;
  FedMpStrategy strat(0.5);
  auto ctx = h.context(0, 1);
  const auto out = run_decoded(strat, ctx);
  const std::size_t absent = static_cast<std::size_t>(
      std::count(out.present.begin(), out.present.end(), std::uint8_t{0}));
  EXPECT_NEAR(static_cast<double>(absent) /
                  static_cast<double>(out.present.size()),
              0.5, 0.02);
  // Present values must dominate absent ones in magnitude: compare the
  // maximum pruned magnitude against the minimum kept magnitude.
  float max_pruned = 0.0F;
  float min_kept = 1e9F;
  auto params = h.model->store().params();
  for (std::size_t i = 0; i < out.present.size(); ++i) {
    if (out.present[i] == 0) {
      max_pruned = std::max(max_pruned, std::abs(params[i]));
    } else {
      min_kept = std::min(min_kept, std::abs(params[i]));
    }
  }
  EXPECT_LE(max_pruned, min_kept + 1e-6F);
}

TEST(FedMp, ZeroRateKeepsEverything) {
  ImageHarness h;
  FedMpStrategy strat(0.0);
  auto ctx = h.context(0, 1);
  const auto out = run_decoded(strat, ctx);
  EXPECT_TRUE(std::all_of(out.present.begin(), out.present.end(),
                          [](std::uint8_t p) { return p == 1; }));
}

TEST(FedMp, UploadAccountsPositions) {
  ImageHarness h;
  FedMpStrategy strat(0.5);
  auto ctx = h.context(0, 1);
  const auto out = run_decoded(strat, ctx);
  const std::size_t n = h.model->store().size();
  // ≈ half the values at 4 bytes plus the 1-bit occupancy bitmap (cheaper
  // than 16-bit positions at this rate).
  EXPECT_NEAR(static_cast<double>(out.uplink_bytes),
              0.5 * static_cast<double>(n) * 4.0 + n / 8.0,
              0.05 * static_cast<double>(n) * 4.0);
}

TEST(WidthPlan, MlpMaskCutsRowsAndColumns) {
  nn::MlpModel model({.input = 6, .hidden = 4, .classes = 3});
  const auto plan = WidthPlan::for_mlp(model);
  const auto& store = model.store();
  std::vector<std::uint8_t> present(store.size(), 1);
  plan.build_mask(store, 0.5, present);
  const auto& fc1 = store.group(model.fc1_group());
  const auto& fc2 = store.group(model.fc2_group());
  // Hidden units 2,3 cut: their fc1 rows are absent.
  EXPECT_EQ(present[fc1.offset + 1 * fc1.row_len], 1);
  EXPECT_EQ(present[fc1.offset + 2 * fc1.row_len], 0);
  EXPECT_EQ(present[fc1.offset + 3 * fc1.row_len], 0);
  // fc2 columns 2,3 cut in every row; bias column (index 4) kept.
  for (std::size_t r = 0; r < fc2.rows; ++r) {
    EXPECT_EQ(present[fc2.offset + r * fc2.row_len + 1], 1);
    EXPECT_EQ(present[fc2.offset + r * fc2.row_len + 2], 0);
    EXPECT_EQ(present[fc2.offset + r * fc2.row_len + 3], 0);
    EXPECT_EQ(present[fc2.offset + r * fc2.row_len + 4], 1);
  }
}

TEST(WidthPlan, FullRatioMasksNothing) {
  nn::MlpModel model({.input = 6, .hidden = 4, .classes = 3});
  const auto plan = WidthPlan::for_mlp(model);
  std::vector<std::uint8_t> present(model.store().size(), 1);
  plan.build_mask(model.store(), 1.0, present);
  EXPECT_TRUE(std::all_of(present.begin(), present.end(),
                          [](std::uint8_t p) { return p == 1; }));
}

TEST(WidthPlan, SubModelsAreNested) {
  // Ordered dropout's defining property: a narrower sub-model is contained
  // in every wider one.
  nn::LstmLmModel model({.vocab = 30, .embed = 8, .hidden = 8, .layers = 2});
  const auto plan = WidthPlan::for_lstm_lm(model);
  const auto& store = model.store();
  std::vector<std::uint8_t> narrow(store.size(), 1);
  std::vector<std::uint8_t> wide(store.size(), 1);
  plan.build_mask(store, 0.25, narrow);
  plan.build_mask(store, 0.75, wide);
  for (std::size_t i = 0; i < store.size(); ++i) {
    if (narrow[i] == 1) {
      ASSERT_EQ(wide[i], 1) << "narrow sub-model not nested at " << i;
    }
  }
}

TEST(WidthPlan, LstmUnitRowsAndRecurrentColumnsCut) {
  nn::LstmLmModel model({.vocab = 30, .embed = 8, .hidden = 8, .layers = 1});
  const auto plan = WidthPlan::for_lstm_lm(model);
  const auto& store = model.store();
  std::vector<std::uint8_t> present(store.size(), 1);
  plan.build_mask(store, 0.5, present);
  const auto& unit = store.group(model.unit_group(0));
  const auto& layer = model.lstm_layer(0);
  // Units 4..7 cut: their rows are fully absent.
  EXPECT_EQ(present[unit.offset + 2 * unit.row_len], 1);
  EXPECT_EQ(present[unit.offset + 6 * unit.row_len], 0);
  // Surviving unit 0's recurrent weights reading cut unit 6 are absent,
  // those reading surviving unit 2 are present — in all four gates.
  for (std::size_t gate = 0; gate < 4; ++gate) {
    EXPECT_EQ(present[unit.offset + 0 * unit.row_len +
                      layer.wh_offset(gate) + 2], 1);
    EXPECT_EQ(present[unit.offset + 0 * unit.row_len +
                      layer.wh_offset(gate) + 6], 0);
  }
}

TEST(WidthPlan, BytesShrinkWithRatio) {
  nn::LstmLmModel model({.vocab = 30, .embed = 8, .hidden = 8, .layers = 2});
  const auto plan = WidthPlan::for_lstm_lm(model);
  const auto full = plan.submodel_bytes(model.store(), 1.0);
  const auto half = plan.submodel_bytes(model.store(), 0.5);
  const auto quarter = plan.submodel_bytes(model.store(), 0.25);
  EXPECT_GT(full, half);
  EXPECT_GT(half, quarter);
}

/// Expected width of a hidden layer, counted without floating point:
/// ceil(num·H / den) for a ratio num/den.
std::size_t kept_units_of(std::size_t h, std::size_t num, std::size_t den) {
  return std::max<std::size_t>(1, (num * h + den - 1) / den);
}

TEST(WidthPlan, PatternDropsSuffixUnitsOfRowGroups) {
  nn::MlpModel mlp({.input = 6, .hidden = 8, .classes = 3});
  nn::LstmLmModel lstm({.vocab = 30, .embed = 8, .hidden = 8, .layers = 2});
  const std::vector<std::pair<const nn::Model*, WidthPlan>> cases = {
      {&mlp, WidthPlan::for_mlp(mlp)}, {&lstm, WidthPlan::for_lstm_lm(lstm)}};
  for (const auto& [model, plan] : cases) {
    const auto& store = model->store();
    std::set<std::size_t> row_groups;
    for (const auto& rule : plan.rules()) {
      if (rule.axis == WidthPlan::Rule::Axis::kRows) {
        row_groups.insert(rule.group);
      }
    }
    ASSERT_FALSE(row_groups.empty());
    for (const std::size_t quarters : {1, 2, 3, 4}) {
      const double ratio = static_cast<double>(quarters) / 4.0;
      SCOPED_TRACE(testing::Message() << "ratio " << ratio);
      const auto beta = plan.pattern(store, ratio);
      ASSERT_EQ(beta.rows(), store.droppable_rows());
      std::vector<std::uint8_t> present(store.size(), 1);
      plan.build_mask(store, ratio, present);
      for (std::size_t j = 0; j < beta.rows(); ++j) {
        const auto ref = store.droppable_row(j);
        const bool cut = row_groups.contains(ref.group) &&
                         ref.row >= kept_units_of(8, quarters, 4);
        EXPECT_EQ(beta.kept(j), !cut) << store.group(ref.group).name
                                       << " row " << ref.row;
        // A row is dropped exactly when the coordinate mask cuts all of it.
        const auto& grp = store.group(ref.group);
        const auto first = present.begin() + static_cast<std::ptrdiff_t>(
                                                  grp.offset +
                                                  ref.row * grp.row_len);
        const bool any_present =
            std::any_of(first, first + static_cast<std::ptrdiff_t>(grp.row_len),
                        [](std::uint8_t p) { return p != 0; });
        EXPECT_EQ(beta.kept(j), any_present) << grp.name << " row " << ref.row;
      }
    }
  }
}

TEST(WidthPlan, PatternsAreNested) {
  nn::LstmLmModel model({.vocab = 30, .embed = 8, .hidden = 10, .layers = 2});
  const auto plan = WidthPlan::for_lstm_lm(model);
  const auto& store = model.store();
  const std::vector<double> ladder = {0.25, 0.3, 0.5, 0.75, 1.0};
  for (std::size_t i = 0; i + 1 < ladder.size(); ++i) {
    const auto narrow = plan.pattern(store, ladder[i]);
    const auto wide = plan.pattern(store, ladder[i + 1]);
    EXPECT_LE(narrow.kept_count(), wide.kept_count()) << ladder[i];
    for (std::size_t j = 0; j < narrow.rows(); ++j) {
      if (narrow.kept(j)) {
        ASSERT_TRUE(wide.kept(j)) << "row " << j << " at " << ladder[i];
      }
    }
  }
  EXPECT_EQ(plan.pattern(store, 1.0).dropped_count(), 0u);
}

TEST(WidthPlan, WidthRoundsProductsNearAnInteger) {
  // 1 - 0.7 is 0.30000000000000004: ceil of its product with a multiple of
  // ten would keep one unit too many.
  for (const std::size_t h : {10u, 20u, 200u}) {
    nn::MlpModel model({.input = 4, .hidden = h, .classes = 3});
    const auto plan = WidthPlan::for_mlp(model);
    const auto beta = plan.pattern(model.store(), 1.0 - 0.7);
    EXPECT_EQ(beta.kept_count(), 3 * h / 10 + 3) << "hidden " << h;
  }
  // A product that is not near an integer still rounds up.
  nn::MlpModel model({.input = 4, .hidden = 12, .classes = 3});
  const auto plan = WidthPlan::for_mlp(model);
  EXPECT_EQ(plan.pattern(model.store(), 0.3).kept_count(), 4u + 3u);
}

TEST(Fjord, UploadsOnlySubmodel) {
  ImageHarness h;
  const auto plan = WidthPlan::for_mlp(*h.model);
  auto strat = HeteroFlStrategy::fjord(plan, 0.5);
  EXPECT_EQ(strat.name(), "FjORD");
  EXPECT_EQ(strat.levels(), std::vector<double>{0.5});
  EXPECT_DOUBLE_EQ(strat.compute_cost_multiplier(), 0.25);
  auto ctx = h.context(0, 1);
  const auto out = run_decoded(strat, ctx);
  EXPECT_EQ(out.uplink_bytes, plan.submodel_bytes(h.model->store(), 0.5));
  // Cut coordinates are absent and zero-valued.
  for (std::size_t i = 0; i < out.present.size(); ++i) {
    if (out.present[i] == 0) {
      EXPECT_EQ(out.values[i], 0.0F);
    }
  }
}

TEST(Fjord, SamePatternForAllClients) {
  ImageHarness h;
  auto strat = HeteroFlStrategy::fjord(WidthPlan::for_mlp(*h.model), 0.5);
  auto ctx0 = h.context(0, 1);
  const auto out0 = run_decoded(strat, ctx0);
  auto ctx1 = h.context(5, 1);
  const auto out1 = run_decoded(strat, ctx1);
  EXPECT_EQ(out0.present, out1.present);  // ordered dropout is deterministic
}

TEST(Fjord, KeepsThreeOfTenUnitsAtRate07) {
  ImageHarness h(5, 10);
  const auto plan = WidthPlan::for_mlp(*h.model);
  auto strat = HeteroFlStrategy::fjord(plan, 0.7);
  const auto& store = h.model->store();
  const auto beta = plan.pattern(store, strat.levels()[0]);
  for (std::size_t u = 0; u < 10; ++u) {
    EXPECT_EQ(beta.kept(store.droppable_index(h.model->fc1_group(), u)), u < 3)
        << "unit " << u;
  }
  auto ctx = h.context(0, 1);
  const auto out = run_decoded(strat, ctx);
  EXPECT_EQ(out.uplink_bytes, plan.submodel_bytes(store, strat.levels()[0]));
  // 3 fc1 rows of 100 inputs + bias; 10 fc2 rows reading 3 units + bias.
  EXPECT_EQ(out.uplink_bytes, wire::submodel_bytes(3 * 101 + 10 * 4));
}

TEST(HeteroFl, LevelsAssignByClientId) {
  ImageHarness h;
  const auto plan = WidthPlan::for_mlp(*h.model);
  HeteroFlStrategy strat(plan, {1.0, 0.5});
  EXPECT_EQ(strat.name(), "HeteroFL");
  auto ctx0 = h.context(0, 1);  // level 1.0
  const auto out0 = run_decoded(strat, ctx0);
  auto ctx1 = h.context(1, 1);  // level 0.5
  const auto out1 = run_decoded(strat, ctx1);
  EXPECT_GT(out0.uplink_bytes, out1.uplink_bytes);
  // Full-width client transmits everything.
  EXPECT_TRUE(std::all_of(out0.present.begin(), out0.present.end(),
                          [](std::uint8_t p) { return p == 1; }));
}

TEST(HeteroFl, DefaultLevelsAreValid) {
  for (const double p : {0.1, 0.5, 0.7}) {
    const auto levels = HeteroFlStrategy::default_levels(p);
    ASSERT_EQ(levels.size(), 3u);
    for (const double s : levels) {
      EXPECT_GT(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
  }
}

TEST(HeteroFl, RejectsEmptyOrInvalidLevels) {
  nn::MlpModel model({.input = 4, .hidden = 4, .classes = 2});
  const auto plan = WidthPlan::for_mlp(model);
  EXPECT_THROW(HeteroFlStrategy(plan, {}), fedbiad::CheckError);
  EXPECT_THROW(HeteroFlStrategy(plan, {0.0}), fedbiad::CheckError);
  EXPECT_THROW(HeteroFlStrategy(plan, {1.5}), fedbiad::CheckError);
}

// --- sub-model compact decode (FjORD / HeteroFL) ---------------------------

/// Every coordinate a distinct float, with NaN, ±inf and -0 mixed in, so a
/// value landing on the wrong coordinate or losing its bits shows.
std::vector<float> hostile_values(std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 5) {
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
        v[i] = 0.5F + static_cast<float>(i);
        break;
    }
  }
  return v;
}

/// Encodes `values` at `ratio`, decodes through the strategy and checks the
/// compact form against the encoder's input under the plan's mask: kDense
/// when the ratio keeps every coordinate, else kBitmap whose rank() matches
/// a naive popcount at every coordinate.
void expect_submodel_decode(const fl::Strategy& strat, const WidthPlan& plan,
                            const nn::ParameterStore& store, double ratio) {
  SCOPED_TRACE(testing::Message() << strat.name() << " ratio " << ratio);
  const std::size_t n = store.size();
  const std::vector<float> values = hostile_values(n);
  const wire::CompactUpdate u = strat.decode_payload_compact(
      store, plan.encode_submodel(store, ratio, values));
  std::vector<std::uint8_t> mask(n, 1);
  plan.build_mask(store, ratio, mask);
  const auto kept = static_cast<std::size_t>(
      std::count(mask.begin(), mask.end(), std::uint8_t{1}));
  ASSERT_EQ(u.size(), n);
  ASSERT_EQ(u.transmitted(), kept);
  ASSERT_EQ(u.values().size(), kept);
  if (kept == n) {
    ASSERT_EQ(u.form, wire::CompactUpdate::Form::kDense);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(u.values()[i]),
                std::bit_cast<std::uint32_t>(values[i]))
          << "coordinate " << i;
    }
    return;
  }
  ASSERT_EQ(u.form, wire::CompactUpdate::Form::kBitmap);
  ASSERT_EQ(u.present.size(), n);
  std::size_t naive = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(u.rank(i), naive) << "rank at " << i;
    ASSERT_EQ(u.present.test(i), mask[i] != 0) << "coordinate " << i;
    if (mask[i] == 0) continue;
    ASSERT_EQ(std::bit_cast<std::uint32_t>(u.values()[naive]),
              std::bit_cast<std::uint32_t>(values[i]))
        << "coordinate " << i;
    ++naive;
  }
  ASSERT_EQ(u.rank(n), naive);
}

/// Sub-model payloads whose ratio is NaN, infinite or outside (0, 1], plus
/// one carrying a valid ratio and a value short, must be rejected.
void expect_malformed_submodels_rejected(const fl::Strategy& strat,
                                         const WidthPlan& plan,
                                         const nn::ParameterStore& store) {
  for (const double ratio :
       {0.0, -0.5, 1.5, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    wire::Writer w;
    w.f64(ratio);
    const wire::Payload bogus{.kind = wire::PayloadKind::kSubModel,
                              .aux = 0,
                              .bytes = std::move(w).take()};
    EXPECT_THROW((void)strat.decode_payload_compact(store, bogus),
                 wire::DecodeError)
        << strat.name() << " ratio " << ratio;
  }
  wire::Payload short_by_one =
      plan.encode_submodel(store, 0.5, hostile_values(store.size()));
  short_by_one.bytes =
      short_by_one.bytes.slice(0, short_by_one.bytes.size() - sizeof(float));
  EXPECT_THROW((void)strat.decode_payload_compact(store, short_by_one),
               wire::DecodeError)
      << strat.name();
}

TEST(SubModelDecode, FjordCompactFormsMatchEncoderInput) {
  // 300·24 + 24 + 24·10 + 10 coordinates: the bitmap spans more than one
  // rank-directory stride.
  nn::MlpModel model({.input = 300, .hidden = 24, .classes = 10});
  ASSERT_GT(model.store().size(), wire::CompactUpdate::kRankStride);
  const auto plan = WidthPlan::for_mlp(model);
  const auto strat = HeteroFlStrategy::fjord(plan, 0.5);
  for (const double ratio : {1.0, 0.5, 0.3}) {
    expect_submodel_decode(strat, plan, model.store(), ratio);
  }
  expect_malformed_submodels_rejected(strat, plan, model.store());
}

TEST(SubModelDecode, HeteroFlCompactFormsMatchEncoderInput) {
  nn::LstmLmModel model(
      {.vocab = 120, .embed = 16, .hidden = 16, .layers = 2});
  ASSERT_GT(model.store().size(), wire::CompactUpdate::kRankStride);
  const auto plan = WidthPlan::for_lstm_lm(model);
  const HeteroFlStrategy strat(plan, {1.0, 0.5});
  for (const double ratio : {1.0, 0.5, 0.25}) {
    expect_submodel_decode(strat, plan, model.store(), ratio);
  }
  expect_malformed_submodels_rejected(strat, plan, model.store());
}

// --- width parity: the kept-row loop against the masked loop ---------------

/// Trains `client` of `strat` through run_client on `a`, and the same client
/// through the masked reference loop on `b` (an identically seeded harness),
/// then compares the payload bytes, the surviving coordinates and both
/// losses bit for bit.
template <typename Harness>
void expect_matches_masked_loop(HeteroFlStrategy& strat, const WidthPlan& plan,
                                Harness& a, Harness& b, std::size_t client) {
  const double ratio = strat.levels()[client % strat.levels().size()];
  SCOPED_TRACE(testing::Message() << strat.name() << " ratio " << ratio);
  auto ctx = a.context(client, 1);
  const auto out = strat.run_client(ctx);

  nn::ParameterStore& ref_store = b.model->store();
  std::vector<std::uint8_t> mask(ref_store.size(), 1);
  plan.build_mask(ref_store, ratio, mask);
  auto ref_ctx = b.context(client, 1);
  const auto ref = reference::train_rounds_masked(ref_ctx, mask);
  const auto ref_payload =
      plan.encode_submodel(ref_store, ratio, ref_store.params());

  EXPECT_EQ(out.payload.kind, ref_payload.kind);
  EXPECT_EQ(out.payload.bytes, ref_payload.bytes);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(out.mean_loss),
            std::bit_cast<std::uint64_t>(ref.mean_loss));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(out.last_loss),
            std::bit_cast<std::uint64_t>(ref.last_loss));
  const auto got = a.model->store().params();
  const auto want = ref_store.params();
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i] == 0) continue;
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << "coordinate " << i;
  }
}

/// Weight decay and a clip norm the first steps exceed, so both the decay
/// and the clip scale act on every kept row.
template <typename Harness>
Harness parity_harness(std::size_t hidden) {
  Harness h(11, hidden);
  h.settings.sgd.weight_decay = 1e-4F;
  h.settings.sgd.clip_norm = 0.25F;
  return h;
}

constexpr double kParityRates[] = {0.0, 0.25, 0.5, 0.7, 0.75};

template <typename Harness, typename MakePlan>
void check_fjord_parity(std::size_t hidden, MakePlan make_plan) {
  for (const double p : kParityRates) {
    auto a = parity_harness<Harness>(hidden);
    auto b = parity_harness<Harness>(hidden);
    const WidthPlan plan = make_plan(*a.model);
    auto strat = HeteroFlStrategy::fjord(plan, p);
    expect_matches_masked_loop(strat, plan, a, b, 3);
  }
}

template <typename Harness, typename MakePlan>
void check_heterofl_parity(std::size_t hidden, MakePlan make_plan) {
  const std::vector<std::vector<double>> ladders = {
      {1.0, 0.75, 0.5, 0.3, 0.25}, HeteroFlStrategy::default_levels(0.7)};
  for (const auto& ladder : ladders) {
    for (std::size_t client = 0; client < ladder.size(); ++client) {
      auto a = parity_harness<Harness>(hidden);
      auto b = parity_harness<Harness>(hidden);
      const WidthPlan plan = make_plan(*a.model);
      HeteroFlStrategy strat(plan, ladder);
      expect_matches_masked_loop(strat, plan, a, b, client);
    }
  }
}

TEST(WidthParity, FjordMlpMatchesMaskedLoop) {
  for (const std::size_t hidden : {12u, 16u, 128u}) {
    SCOPED_TRACE(testing::Message() << "hidden " << hidden);
    check_fjord_parity<ImageHarness>(
        hidden, [](const nn::MlpModel& m) { return WidthPlan::for_mlp(m); });
  }
}

TEST(WidthParity, FjordLstmLmMatchesMaskedLoop) {
  for (const std::size_t hidden : {10u, 64u}) {
    SCOPED_TRACE(testing::Message() << "hidden " << hidden);
    check_fjord_parity<TextHarness>(hidden, [](const nn::LstmLmModel& m) {
      return WidthPlan::for_lstm_lm(m);
    });
  }
}

TEST(WidthParity, HeteroFlMlpMatchesMaskedLoop) {
  for (const std::size_t hidden : {12u, 16u, 128u}) {
    SCOPED_TRACE(testing::Message() << "hidden " << hidden);
    check_heterofl_parity<ImageHarness>(
        hidden, [](const nn::MlpModel& m) { return WidthPlan::for_mlp(m); });
  }
}

TEST(WidthParity, HeteroFlLstmLmMatchesMaskedLoop) {
  for (const std::size_t hidden : {10u, 64u}) {
    SCOPED_TRACE(testing::Message() << "hidden " << hidden);
    check_heterofl_parity<TextHarness>(hidden, [](const nn::LstmLmModel& m) {
      return WidthPlan::for_lstm_lm(m);
    });
  }
}

}  // namespace
}  // namespace fedbiad::baselines
