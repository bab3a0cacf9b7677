// Tests for the paper's core machinery: dropping patterns (§III-C), the
// loss-trend controller (eq. 8), the weight score vector (eq. 9), and the
// FedBIAD client strategy (Algorithm 1).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/check.hpp"
#include "core/drop_pattern.hpp"
#include "core/fedbiad_strategy.hpp"
#include "core/loss_trend.hpp"
#include "core/weight_score.hpp"
#include "data/image_synth.hpp"
#include "masked_step.hpp"
#include "nn/mlp_model.hpp"
#include "nn/lstm_lm_model.hpp"

namespace fedbiad::core {
namespace {

/// Runs one client and then performs the server-side decode step exactly as
/// the engines do on upload arrival, so tests can inspect the dense view.
template <typename Strat>
fl::ClientOutcome run_decoded(Strat& strat, fl::ClientContext& ctx) {
  auto out = strat.run_client(ctx);
  fl::decode_outcome(strat, ctx.model.store(), out);
  return out;
}

/// Ragged three-group layout: 8×5 dense, 2×3 embedding, 4×5 recurrent.
/// J = 14 rows; only fc1 is kDense.
nn::ParameterStore make_store() {
  nn::ParameterStore store;
  store.add_group("fc1", nn::GroupKind::kDense, 8, 5);
  store.add_group("emb", nn::GroupKind::kEmbedding, 2, 3);
  store.add_group("wx", nn::GroupKind::kRecurrentUnit, 4, 5);
  store.finalize();
  return store;
}

TEST(DropPattern, AllKeptByDefault) {
  DropPattern p(10);
  EXPECT_EQ(p.kept_count(), 10u);
  EXPECT_EQ(p.dropped_count(), 0u);
}

TEST(DropPattern, SampleDropsExactPerGroupCounts) {
  auto store = make_store();
  tensor::Rng rng(3);
  const auto p = DropPattern::sample(store, 0.5, eligible_all(), rng);
  // fc1: 8 rows → 4 dropped; emb: 2 → 1; wx: 4 → 2. J = 14, kept = 7.
  EXPECT_EQ(p.rows(), 14u);
  EXPECT_EQ(p.kept_count(), 7u);
  std::size_t fc1_kept = 0;
  for (std::size_t r = 0; r < 8; ++r) {
    fc1_kept += p.kept(store.droppable_index(0, r)) ? 1 : 0;
  }
  EXPECT_EQ(fc1_kept, 4u);
}

TEST(DropPattern, EligibilityProtectsRecurrentRows) {
  auto store = make_store();
  tensor::Rng rng(5);
  const auto p = DropPattern::sample(store, 0.5, eligible_dense(), rng);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_TRUE(p.kept(store.droppable_index(2, r)))
        << "recurrent row " << r << " must never be dropped by FC-only drop";
  }
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_TRUE(p.kept(store.droppable_index(1, r)))
        << "embedding row " << r << " must never be dropped by FC-only drop";
  }
  EXPECT_EQ(p.dropped_count(), 4u);  // only fc1's half
}

TEST(DropPattern, ZeroRateKeepsEverything) {
  auto store = make_store();
  tensor::Rng rng(7);
  const auto p = DropPattern::sample(store, 0.0, eligible_all(), rng);
  EXPECT_EQ(p.kept_count(), p.rows());
}

TEST(DropPattern, RejectsFullDropOfAGroup) {
  auto store = make_store();
  tensor::Rng rng(9);
  EXPECT_THROW(DropPattern::sample(store, 0.95, eligible_all(), rng),
               fedbiad::CheckError);
}

TEST(DropPattern, ApplyZeroesDroppedRowsOnly) {
  auto store = make_store();
  for (auto& v : store.params()) v = 1.0F;
  tensor::Rng rng(11);
  const auto p = DropPattern::sample(store, 0.5, eligible_all(), rng);
  p.apply_to_params(store);
  for (std::size_t j = 0; j < p.rows(); ++j) {
    const auto ref = store.droppable_row(j);
    for (const float v : store.row_params(ref.group, ref.row)) {
      if (p.kept(j)) {
        EXPECT_EQ(v, 1.0F);
      } else {
        EXPECT_EQ(v, 0.0F);
      }
    }
  }
}

TEST(DropPattern, ApplyToGradsMirrorsParams) {
  auto store = make_store();
  for (auto& g : store.grads()) g = 2.0F;
  tensor::Rng rng(13);
  const auto p = DropPattern::sample(store, 0.25, eligible_all(), rng);
  reference::zero_dropped_grads(p, store);
  std::size_t zeroed = 0;
  for (std::size_t j = 0; j < p.rows(); ++j) {
    const auto ref = store.droppable_row(j);
    if (!p.kept(j)) {
      for (const float g : store.row_grads(ref.group, ref.row)) {
        EXPECT_EQ(g, 0.0F);
      }
      ++zeroed;
    }
  }
  EXPECT_EQ(zeroed, p.dropped_count());
}

TEST(DropPattern, PresenceMarksDroppedCoordinates) {
  auto store = make_store();
  tensor::Rng rng(17);
  const auto p = DropPattern::sample(store, 0.5, eligible_all(), rng);
  std::vector<std::uint8_t> present(store.size(), 1);
  p.mark_presence(store, present);
  std::size_t absent = 0;
  for (const auto b : present) absent += b == 0 ? 1 : 0;
  std::size_t dropped_coords = 0;
  for (std::size_t j = 0; j < p.rows(); ++j) {
    const auto ref = store.droppable_row(j);
    const auto row = store.row_params(ref.group, ref.row);
    const std::size_t begin =
        static_cast<std::size_t>(row.data() - store.params().data());
    for (std::size_t i = begin; i < begin + row.size(); ++i) {
      EXPECT_EQ(present[i], p.kept(j) ? 1 : 0) << "row " << j;
    }
    if (!p.kept(j)) dropped_coords += row.size();
  }
  EXPECT_EQ(absent, dropped_coords);
  EXPECT_EQ(absent, 4 * 5 + 1 * 3 + 2 * 5);
}

TEST(DropPattern, UploadBytesMatchesPaperAccounting) {
  auto store = make_store();
  tensor::Rng rng(19);
  const auto p = DropPattern::sample(store, 0.5, eligible_all(), rng);
  // kept rows: 4 + 2 rows × 5 floats and 1 row × 3; mask: 14 bits → 2
  // bytes.
  const std::uint64_t expected = (6 * 5 + 3) * 4 + 2;
  EXPECT_EQ(p.upload_bytes(store), expected);
  EXPECT_EQ(dense_model_bytes(store), store.size() * 4);
}

TEST(DropPattern, FullPatternUploadApproachesDense) {
  auto store = make_store();
  DropPattern p(store.droppable_rows());
  EXPECT_EQ(p.upload_bytes(store), dense_model_bytes(store) + 2);
}

class DropRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(DropRateSweep, KeptFractionTracksRate) {
  const double rate = GetParam();
  nn::ParameterStore store;
  store.add_group("w", nn::GroupKind::kDense, 200, 10);
  store.finalize();
  tensor::Rng rng(23);
  const auto p = DropPattern::sample(store, rate, eligible_all(), rng);
  const double kept_frac =
      static_cast<double>(p.kept_count()) / static_cast<double>(p.rows());
  EXPECT_NEAR(kept_frac, 1.0 - rate, 0.01);
  // Upload must track (1-p)·dense + mask bits.
  const double upload_frac =
      static_cast<double>(p.upload_bytes(store)) -
      static_cast<double>((p.rows() + 7) / 8);
  EXPECT_NEAR(upload_frac / static_cast<double>(dense_model_bytes(store)),
              1.0 - rate, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Rates, DropRateSweep,
                         ::testing::Values(0.1, 0.2, 0.3, 0.5, 0.7));

TEST(LossTrend, NeedsTwoWindows) {
  LossTrendController t(3);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(t.should_evaluate());
    t.record(1.0);
  }
  EXPECT_FALSE(t.should_evaluate());  // v = 5 is not a multiple of 3
  t.record(1.0);
  EXPECT_TRUE(t.should_evaluate());  // v = 6 = 2τ
}

TEST(LossTrend, GapSignReflectsTrend) {
  LossTrendController down(2);
  for (const double l : {4.0, 3.0, 2.0, 1.0}) down.record(l);
  ASSERT_TRUE(down.should_evaluate());
  EXPECT_LT(down.loss_gap(), 0.0);

  LossTrendController up(2);
  for (const double l : {1.0, 1.0, 3.0, 3.0}) up.record(l);
  ASSERT_TRUE(up.should_evaluate());
  EXPECT_GT(up.loss_gap(), 0.0);
}

TEST(LossTrend, GapMatchesEquationEight) {
  LossTrendController t(2);
  for (const double l : {1.0, 2.0, 3.0, 5.0}) t.record(l);
  // L̄ recent = (3+5)/2 = 4; L̄ previous = (1+2)/2 = 1.5; ΔL = 2.5.
  EXPECT_DOUBLE_EQ(t.loss_gap(), 2.5);
}

TEST(LossTrend, EvaluatesEveryTauIterations) {
  LossTrendController t(3);
  std::vector<std::size_t> eval_points;
  for (std::size_t v = 1; v <= 12; ++v) {
    t.record(1.0);
    if (t.should_evaluate()) eval_points.push_back(v);
  }
  EXPECT_EQ(eval_points, (std::vector<std::size_t>{6, 9, 12}));
}

TEST(LossTrend, MeanAndLast) {
  LossTrendController t(2);
  t.record(2.0);
  t.record(4.0);
  EXPECT_DOUBLE_EQ(t.mean_loss(), 3.0);
  EXPECT_DOUBLE_EQ(t.last_loss(), 4.0);
}

TEST(LossTrend, RejectsZeroTau) {
  EXPECT_THROW(LossTrendController(0), fedbiad::CheckError);
}

TEST(WeightScore, UpdateFollowsEquationNine) {
  WeightScoreVector scores(4);
  DropPattern held(4);
  held.set(2, false);  // rows 0,1,3 held
  DropPattern next(4);
  next.set(0, false);  // rows 1,2,3 kept next

  // Case ΔL ≤ 0: every held row gains 1.
  scores.update(held, true, held);
  EXPECT_EQ(scores.score(0), 1.0);
  EXPECT_EQ(scores.score(1), 1.0);
  EXPECT_EQ(scores.score(2), 0.0);  // not held → unchanged
  EXPECT_EQ(scores.score(3), 1.0);

  // Case ΔL > 0: held rows gain e_j = [kept in next pattern].
  scores.update(held, false, next);
  EXPECT_EQ(scores.score(0), 1.0);  // held but dropped next → +0
  EXPECT_EQ(scores.score(1), 2.0);  // held and kept next → +1
  EXPECT_EQ(scores.score(2), 0.0);
  EXPECT_EQ(scores.score(3), 2.0);
}

TEST(WeightScore, QuantileInterpolates) {
  WeightScoreVector s(std::vector<double>{0.0, 1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 1.5);
}

TEST(WeightScore, MakePatternKeepsTopScoredRows) {
  nn::ParameterStore store;
  store.add_group("w", nn::GroupKind::kDense, 6, 3);
  store.finalize();
  WeightScoreVector s(std::vector<double>{5.0, 1.0, 4.0, 0.0, 3.0, 2.0});
  tensor::Rng rng(29);
  const auto p = s.make_pattern(store, 0.5, eligible_all(), rng);
  // Drop 3 lowest scores: rows 1, 3, 5.
  EXPECT_TRUE(p.kept(0));
  EXPECT_FALSE(p.kept(1));
  EXPECT_TRUE(p.kept(2));
  EXPECT_FALSE(p.kept(3));
  EXPECT_TRUE(p.kept(4));
  EXPECT_FALSE(p.kept(5));
}

TEST(WeightScore, MakePatternRespectsEligibility) {
  auto store = make_store();
  WeightScoreVector s(store.droppable_rows());
  tensor::Rng rng(31);
  const auto p = s.make_pattern(store, 0.5, eligible_dense(), rng);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_TRUE(p.kept(store.droppable_index(2, r)));
  }
}

TEST(WeightScore, TieBreaksAreRandomNotIndexOrdered) {
  nn::ParameterStore store;
  store.add_group("w", nn::GroupKind::kDense, 100, 2);
  store.finalize();
  WeightScoreVector s(100);  // all-zero scores: pure tie
  tensor::Rng r1(1), r2(2);
  const auto p1 = s.make_pattern(store, 0.5, eligible_all(), r1);
  const auto p2 = s.make_pattern(store, 0.5, eligible_all(), r2);
  EXPECT_NE(p1.bits(), p2.bits());
}

TEST(StructureOf, DerivesPlausibleDimensions) {
  nn::LstmLmModel model({.vocab = 50, .embed = 8, .hidden = 16, .layers = 2});
  const auto s = structure_of(model.store(), 0.5);
  EXPECT_GT(s.sparsity, 0u);
  EXPECT_LT(s.sparsity, model.store().size());
  EXPECT_GE(s.width, 50u);  // widest group: the vocabulary rows
  EXPECT_GE(s.layers, 3u);
  EXPECT_GE(s.weight_bound, 2.0);
}

TEST(FedBiadStrategy, ValidatesConfig) {
  EXPECT_THROW(FedBiadStrategy({.dropout_rate = 1.0}), fedbiad::CheckError);
  EXPECT_THROW(FedBiadStrategy({.dropout_rate = 0.5, .tau = 0}),
               fedbiad::CheckError);
}

struct ClientHarness {
  explicit ClientHarness(std::uint64_t seed = 99) {
    auto cfg = data::ImageSynthConfig::mnist_like(seed);
    cfg.train_samples = 120;
    cfg.test_samples = 10;
    cfg.height = 12;
    cfg.width = 12;
    datasets = data::make_image_datasets(cfg);
    model = std::make_unique<nn::MlpModel>(
        nn::MlpConfig{.input = 144, .hidden = 16, .classes = 10});
    tensor::Rng init(seed);
    model->init_params(init);
    shard.resize(datasets.train->size());
    for (std::size_t i = 0; i < shard.size(); ++i) shard[i] = i;
    settings.local_iterations = 12;
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
                             .rng = tensor::Rng(round * 1000 + client)};
  }

  data::ImageDatasets datasets;
  std::unique_ptr<nn::Model> model;
  std::vector<std::size_t> shard;
  fl::TrainSettings settings;
  std::vector<float> global;
};

TEST(FedBiadStrategy, UploadIsRoughlyOneMinusPOfDense) {
  ClientHarness h;
  FedBiadStrategy strat({.dropout_rate = 0.5, .tau = 3, .stage_boundary = 5,
                         .sample_posterior = false});
  auto ctx = h.context(0, 1);
  const auto out = run_decoded(strat, ctx);
  const double dense = static_cast<double>(
      dense_model_bytes(h.model->store()));
  EXPECT_NEAR(static_cast<double>(out.uplink_bytes) / dense, 0.5, 0.05);
  EXPECT_FALSE(out.is_update);
  EXPECT_EQ(out.samples, h.shard.size());
}

TEST(FedBiadStrategy, PresenceMatchesDroppedRows) {
  ClientHarness h;
  FedBiadStrategy strat({.dropout_rate = 0.5, .tau = 3, .stage_boundary = 5,
                         .sample_posterior = false});
  auto ctx = h.context(1, 1);
  const auto out = run_decoded(strat, ctx);
  std::size_t absent = 0;
  for (const auto p : out.present) absent += p == 0 ? 1 : 0;
  EXPECT_GT(absent, 0u);
  // Absent coordinates carry no information; their values are never read by
  // the per-coordinate aggregator, but presence must cover whole rows.
  const auto& store = h.model->store();
  for (std::size_t j = 0; j < store.droppable_rows(); ++j) {
    const auto ref = store.droppable_row(j);
    const auto& grp = store.group(ref.group);
    const std::size_t begin = grp.offset + ref.row * grp.row_len;
    const auto first = out.present[begin];
    for (std::size_t i = begin; i < begin + grp.row_len; ++i) {
      EXPECT_EQ(out.present[i], first) << "row " << j << " partially present";
    }
  }
}

TEST(FedBiadStrategy, AccumulatesClientScores) {
  ClientHarness h;
  FedBiadStrategy strat({.dropout_rate = 0.5, .tau = 2, .stage_boundary = 10,
                         .sample_posterior = false});
  EXPECT_EQ(strat.client_scores(7), nullptr);
  auto ctx = h.context(7, 1);
  strat.run_client(ctx);
  const auto* scores = strat.client_scores(7);
  ASSERT_NE(scores, nullptr);
  double total = 0.0;
  for (const double s : scores->scores()) total += s;
  EXPECT_GT(total, 0.0);  // at least one ΔL evaluation happened
}

TEST(FedBiadStrategy, StageTwoUsesScorePattern) {
  ClientHarness h;
  FedBiadStrategy strat({.dropout_rate = 0.5, .tau = 2, .stage_boundary = 2,
                         .sample_posterior = false});
  // Two stage-one rounds accumulate experience…
  for (std::size_t r = 1; r <= 2; ++r) {
    auto ctx = h.context(3, r);
    strat.run_client(ctx);
  }
  // …then stage two must keep exactly the top-half rows by score, i.e. two
  // consecutive stage-two rounds with identical scores produce identical
  // presence masks (no random resampling anymore).
  auto ctx3 = h.context(3, 3);
  const auto out3 = run_decoded(strat, ctx3);
  auto cfg = strat.config();
  ASSERT_GT(ctx3.round, cfg.stage_boundary);
  auto ctx4 = h.context(3, 4);
  const auto out4 = run_decoded(strat, ctx4);
  // Stage-two score updates can perturb ranking only via held rows, whose
  // scores all rise equally, so the chosen pattern is stable.
  EXPECT_EQ(out3.present, out4.present);
}

TEST(FedBiadStrategy, PosteriorVarianceFollowsTheory) {
  ClientHarness h;
  FedBiadStrategy strat({.dropout_rate = 0.5, .sample_posterior = true,
                         .posterior_variance = -1.0});
  const double v1 = strat.effective_posterior_variance(h.model->store(), 1,
                                                       100, 20);
  const double v2 = strat.effective_posterior_variance(h.model->store(), 10,
                                                       100, 20);
  EXPECT_GT(v1, 0.0);
  EXPECT_GT(v1, v2);  // variance shrinks as data accumulates (eq. 13)
  FedBiadStrategy fixed({.dropout_rate = 0.5, .sample_posterior = true,
                         .posterior_variance = 0.123});
  EXPECT_DOUBLE_EQ(
      fixed.effective_posterior_variance(h.model->store(), 1, 100, 20),
      0.123);
  FedBiadStrategy off({.dropout_rate = 0.5, .sample_posterior = false});
  EXPECT_DOUBLE_EQ(
      off.effective_posterior_variance(h.model->store(), 1, 100, 20), 0.0);
}

TEST(FedBiadStrategy, TrainingLossDecreasesLocally) {
  ClientHarness h;
  h.settings.local_iterations = 40;
  FedBiadStrategy strat({.dropout_rate = 0.3, .tau = 3, .stage_boundary = 50,
                         .sample_posterior = false});
  auto ctx = h.context(0, 1);
  const auto out = run_decoded(strat, ctx);
  EXPECT_LT(out.last_loss, out.mean_loss * 1.25);
}

}  // namespace
}  // namespace fedbiad::core
