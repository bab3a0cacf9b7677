// Tests for the FL engine: aggregation rules, client-state store, metrics,
// the network model, and the simulation loop.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "baselines/fedavg.hpp"
#include "common/check.hpp"
#include "data/image_synth.hpp"
#include "data/partition.hpp"
#include "fl/async_simulation.hpp"
#include "fl/client_state.hpp"
#include "fl/metrics.hpp"
#include "netsim/link.hpp"
#include "netsim/tta.hpp"
#include "nn/mlp_model.hpp"

#include "aggregate.hpp"

namespace fedbiad::fl {
namespace {

using reference::aggregate;

ClientOutcome make_outcome(std::vector<float> values,
                           std::vector<std::uint8_t> present,
                           std::size_t samples, bool is_update = false) {
  ClientOutcome o;
  o.values = std::move(values);
  o.present = wire::Bitset::from_bytemask(present);
  o.samples = samples;
  o.is_update = is_update;
  return o;
}

TEST(Aggregate, WeightedMeanWhenAllPresent) {
  std::vector<float> global{0.0F, 0.0F};
  std::vector<ClientOutcome> outs;
  outs.push_back(make_outcome({1.0F, 2.0F}, {1, 1}, 1));
  outs.push_back(make_outcome({3.0F, 6.0F}, {1, 1}, 3));
  aggregate(global, outs, AggregationRule::kPerCoordinateNormalized);
  EXPECT_FLOAT_EQ(global[0], (1.0F + 9.0F) / 4.0F);
  EXPECT_FLOAT_EQ(global[1], (2.0F + 18.0F) / 4.0F);
}

TEST(Aggregate, RulesAgreeWhenNothingIsDropped) {
  std::vector<float> a{5.0F, 5.0F};
  std::vector<float> b{5.0F, 5.0F};
  std::vector<ClientOutcome> outs;
  outs.push_back(make_outcome({2.0F, 4.0F}, {1, 1}, 2));
  outs.push_back(make_outcome({4.0F, 8.0F}, {1, 1}, 2));
  aggregate(a, outs, AggregationRule::kMaskedAverage);
  aggregate(b, outs, AggregationRule::kPerCoordinateNormalized);
  EXPECT_EQ(a, b);
}

TEST(Aggregate, MaskedAverageCountsZeros) {
  // Literal eq. 10: the dropped client contributes a zero, shrinking the row.
  std::vector<float> global{0.0F};
  std::vector<ClientOutcome> outs;
  outs.push_back(make_outcome({4.0F}, {1}, 1));
  outs.push_back(make_outcome({0.0F}, {0}, 1));
  aggregate(global, outs, AggregationRule::kMaskedAverage);
  EXPECT_FLOAT_EQ(global[0], 2.0F);
}

TEST(Aggregate, NormalizedAveragesOverTransmitters) {
  std::vector<float> global{0.0F};
  std::vector<ClientOutcome> outs;
  outs.push_back(make_outcome({4.0F}, {1}, 1));
  outs.push_back(make_outcome({0.0F}, {0}, 1));
  aggregate(global, outs, AggregationRule::kPerCoordinateNormalized);
  EXPECT_FLOAT_EQ(global[0], 4.0F);
}

TEST(Aggregate, NormalizedKeepsOldValueWhenNobodyTransmits) {
  std::vector<float> global{7.0F};
  std::vector<ClientOutcome> outs;
  outs.push_back(make_outcome({0.0F}, {0}, 1));
  aggregate(global, outs, AggregationRule::kPerCoordinateNormalized);
  EXPECT_FLOAT_EQ(global[0], 7.0F);
}

TEST(Aggregate, UpdateOutcomesAddToGlobal) {
  std::vector<float> global{10.0F, 10.0F};
  std::vector<ClientOutcome> outs;
  outs.push_back(make_outcome({1.0F, 0.0F}, {1, 0}, 1, true));
  outs.push_back(make_outcome({3.0F, 0.0F}, {1, 0}, 1, true));
  aggregate(global, outs, AggregationRule::kPerCoordinateNormalized);
  EXPECT_FLOAT_EQ(global[0], 12.0F);
  EXPECT_FLOAT_EQ(global[1], 10.0F);  // nobody updated coordinate 1
}

TEST(Aggregate, SampleWeightingMattersForUpdates) {
  std::vector<float> global{0.0F};
  std::vector<ClientOutcome> outs;
  outs.push_back(make_outcome({3.0F}, {1}, 9, true));
  outs.push_back(make_outcome({0.0F}, {1}, 1, true));
  aggregate(global, outs, AggregationRule::kPerCoordinateNormalized);
  EXPECT_FLOAT_EQ(global[0], 2.7F);
}

TEST(Aggregate, RejectsMixedOutcomeTypes) {
  std::vector<float> global{0.0F};
  std::vector<ClientOutcome> outs;
  outs.push_back(make_outcome({1.0F}, {1}, 1, false));
  outs.push_back(make_outcome({1.0F}, {1}, 1, true));
  EXPECT_THROW(aggregate(global, outs, AggregationRule::kMaskedAverage),
               fedbiad::CheckError);
}

TEST(Aggregate, RejectsEmptyAndMismatched) {
  std::vector<float> global{0.0F};
  std::vector<ClientOutcome> empty;
  EXPECT_THROW(aggregate(global, empty, AggregationRule::kMaskedAverage),
               fedbiad::CheckError);
  std::vector<ClientOutcome> bad;
  bad.push_back(make_outcome({1.0F, 2.0F}, {1, 1}, 1));
  EXPECT_THROW(aggregate(global, bad, AggregationRule::kMaskedAverage),
               fedbiad::CheckError);
}

// --- edge cases for the blocked streaming loop (PR 2's loop inversion) ---

TEST(Aggregate, SingleClientParamsReplaceGlobal) {
  for (const auto rule : {AggregationRule::kMaskedAverage,
                          AggregationRule::kPerCoordinateNormalized}) {
    std::vector<float> global{9.0F, 9.0F, 9.0F};
    std::vector<ClientOutcome> outs;
    outs.push_back(make_outcome({1.0F, 2.0F, 3.0F}, {1, 1, 1}, 5));
    aggregate(global, outs, rule);
    EXPECT_EQ(global, (std::vector<float>{1.0F, 2.0F, 3.0F}));
  }
}

TEST(Aggregate, SingleClientUpdateAddsItsDelta) {
  std::vector<float> global{1.0F, 1.0F};
  std::vector<ClientOutcome> outs;
  outs.push_back(make_outcome({0.5F, 0.0F}, {1, 0}, 3, true));
  aggregate(global, outs, AggregationRule::kPerCoordinateNormalized);
  EXPECT_FLOAT_EQ(global[0], 1.5F);
  EXPECT_FLOAT_EQ(global[1], 1.0F);
}

TEST(Aggregate, RejectsZeroWeightClient) {
  std::vector<float> global{0.0F};
  std::vector<ClientOutcome> outs;
  outs.push_back(make_outcome({1.0F}, {1}, 1));
  outs.push_back(make_outcome({2.0F}, {1}, 0));  // |D_k| = 0
  EXPECT_THROW(aggregate(global, outs, AggregationRule::kMaskedAverage),
               fedbiad::CheckError);
  EXPECT_THROW(
      aggregate(global, outs, AggregationRule::kPerCoordinateNormalized),
      fedbiad::CheckError);
}

TEST(Aggregate, RejectsRaggedParameterSizes) {
  std::vector<float> global{0.0F, 0.0F};
  // Client vector longer than the global.
  std::vector<ClientOutcome> longer;
  longer.push_back(make_outcome({1.0F, 2.0F, 3.0F}, {1, 1, 1}, 1));
  EXPECT_THROW(aggregate(global, longer, AggregationRule::kMaskedAverage),
               fedbiad::CheckError);
  // Shorter than the global.
  std::vector<ClientOutcome> shorter;
  shorter.push_back(make_outcome({1.0F}, {1}, 1));
  EXPECT_THROW(aggregate(global, shorter, AggregationRule::kMaskedAverage),
               fedbiad::CheckError);
  // values/present disagreeing with each other.
  std::vector<ClientOutcome> mask_ragged;
  mask_ragged.push_back(make_outcome({1.0F, 2.0F}, {1}, 1));
  EXPECT_THROW(
      aggregate(global, mask_ragged, AggregationRule::kPerCoordinateNormalized),
      fedbiad::CheckError);
  // One well-formed client must not mask a ragged co-participant.
  std::vector<ClientOutcome> mixed;
  mixed.push_back(make_outcome({1.0F, 2.0F}, {1, 1}, 1));
  mixed.push_back(make_outcome({1.0F}, {1}, 1));
  EXPECT_THROW(aggregate(global, mixed, AggregationRule::kMaskedAverage),
               fedbiad::CheckError);
}

// n larger than the 4096-coordinate streaming block: results must agree
// with a scalar per-coordinate reference across block boundaries.
TEST(Aggregate, MatchesScalarReferenceAcrossBlockBoundaries) {
  const std::size_t n = 3 * 4096 + 17;
  std::vector<float> global(n);
  for (std::size_t i = 0; i < n; ++i) {
    global[i] = static_cast<float>(i % 7) - 3.0F;
  }
  std::vector<float> reference = global;
  std::vector<ClientOutcome> outs;
  for (std::size_t k = 0; k < 3; ++k) {
    std::vector<float> values(n);
    std::vector<std::uint8_t> present(n);
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = static_cast<float>((i + k) % 5) * 0.25F;
      present[i] = (i + k) % 3 != 0 ? 1 : 0;
    }
    outs.push_back(make_outcome(std::move(values), std::move(present), k + 1));
  }
  aggregate(global, outs, AggregationRule::kPerCoordinateNormalized);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    double weight = 0.0;
    for (const ClientOutcome& o : outs) {
      if (o.present[i] == 0) continue;
      acc += static_cast<double>(o.samples) * o.values[i];
      weight += static_cast<double>(o.samples);
    }
    const float expected =
        weight > 0.0 ? static_cast<float>(acc / weight) : reference[i];
    ASSERT_EQ(global[i], expected) << "coordinate " << i;
  }
}

TEST(ClientStateStore, CreatesOncePerClient) {
  ClientStateStore<int> store;
  int created = 0;
  auto& a = store.get_or_create(1, [&] {
    ++created;
    return 41;
  });
  a += 1;
  auto& b = store.get_or_create(1, [&] {
    ++created;
    return 0;
  });
  EXPECT_EQ(created, 1);
  EXPECT_EQ(b, 42);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.find(2), nullptr);
  store.get_or_create(2, [] { return 7; });
  EXPECT_EQ(store.size(), 2u);
}

TEST(Link, TimingMatchesRates) {
  netsim::LinkModel link;  // 110.6 down / 14.0 up
  // 14 Mbit = 1.75 MB uploads in exactly one second.
  EXPECT_NEAR(link.upload_seconds(14'000'000 / 8), 1.0, 1e-9);
  EXPECT_NEAR(link.download_seconds(110'600'000 / 8), 1.0, 1e-9);
  // The uplink is ~7.9× slower — the paper's motivating asymmetry.
  EXPECT_NEAR(link.upload_seconds(1000) / link.download_seconds(1000),
              110.6 / 14.0, 1e-9);
}

TEST(Metrics, RoundsAndTimeToAccuracy) {
  SimulationResult result;
  for (std::size_t r = 1; r <= 5; ++r) {
    RoundRecord rec;
    rec.round = r;
    rec.top1 = 0.1 * static_cast<double>(r);
    rec.topk = 0.2 * static_cast<double>(r);
    rec.lttr_seconds = 1.0;
    rec.upload_seconds = 0.5;
    rec.download_seconds = 0.25;
    rec.aggregate_seconds = 0.25;
    rec.participants = 2;
    rec.uplink_bytes_total = 200;
    result.rounds.push_back(rec);
  }
  EXPECT_EQ(result.rounds_to_accuracy(0.3, false).value(), 3u);
  EXPECT_EQ(result.rounds_to_accuracy(0.6, true).value(), 3u);
  EXPECT_FALSE(result.rounds_to_accuracy(0.9, false).has_value());
  EXPECT_DOUBLE_EQ(result.time_to_accuracy(0.3, false).value(), 6.0);
  EXPECT_DOUBLE_EQ(result.best_accuracy(false), 0.5);
  EXPECT_DOUBLE_EQ(result.final_accuracy(true), 1.0);
  EXPECT_DOUBLE_EQ(result.mean_upload_bytes(), 100.0);
  EXPECT_DOUBLE_EQ(result.mean_lttr_seconds(), 1.0);
}

TEST(Metrics, CsvHasHeaderAndRows) {
  SimulationResult result;
  RoundRecord rec;
  rec.round = 1;
  result.rounds.push_back(rec);
  std::ostringstream os;
  result.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("round,train_loss"), std::string::npos);
  EXPECT_NE(csv.find('\n'), std::string::npos);
}

TEST(Tta, UploadSummaryAndFormatting) {
  SimulationResult result;
  RoundRecord rec;
  rec.participants = 2;
  rec.uplink_bytes_total = 1000;
  result.rounds.push_back(rec);
  const auto summary = netsim::summarize_upload(result, 2000);
  EXPECT_DOUBLE_EQ(summary.mean_bytes, 500.0);
  EXPECT_DOUBLE_EQ(summary.save_ratio, 4.0);
  EXPECT_EQ(netsim::format_bytes(531.0 * 1024), "531KB");
  EXPECT_EQ(netsim::format_bytes(29.8 * 1024 * 1024), "29.8MB");
  EXPECT_EQ(netsim::format_bytes(12.0), "12B");
  EXPECT_EQ(netsim::format_seconds(0.5), "500ms");
  EXPECT_EQ(netsim::format_seconds(12.34), "12.3s");
  EXPECT_EQ(netsim::format_seconds(180.0), "3.0min");
}

class SimulationFixture : public ::testing::Test {
 protected:
  SimulationConfig make_config() {
    SimulationConfig cfg;
    cfg.rounds = 3;
    cfg.selection_fraction = 0.5;
    cfg.train.local_iterations = 4;
    cfg.train.batch_size = 8;
    cfg.train.sgd = {.lr = 0.1F, .weight_decay = 0.0F, .clip_norm = 0.0F};
    cfg.seed = 7;
    cfg.threads = 2;
    return cfg;
  }

  AsyncSimulation make_simulation(const SimulationConfig& cfg) {
    auto img_cfg = data::ImageSynthConfig::mnist_like(3);
    img_cfg.train_samples = 100;
    img_cfg.test_samples = 30;
    img_cfg.height = 10;
    img_cfg.width = 10;
    auto datasets = data::make_image_datasets(img_cfg);
    tensor::Rng prng(5);
    auto partition = data::partition_iid(datasets.train->size(), 4, prng);
    auto factory = [] {
      return std::make_unique<nn::MlpModel>(
          nn::MlpConfig{.input = 100, .hidden = 8, .classes = 10});
    };
    return AsyncSimulation({.base = cfg}, factory, datasets.train,
                           datasets.test, std::move(partition),
                           std::make_shared<baselines::FedAvgStrategy>());
  }
};

TEST_F(SimulationFixture, ProducesOneRecordPerRound) {
  auto sim = make_simulation(make_config());
  const auto result = sim.run();
  ASSERT_EQ(result.rounds.size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(result.rounds[r].round, r + 1);
    EXPECT_EQ(result.rounds[r].participants, 2u);
    EXPECT_GT(result.rounds[r].uplink_bytes_total, 0u);
    EXPECT_GT(result.rounds[r].lttr_seconds, 0.0);
    EXPECT_GT(result.rounds[r].wall_seconds(), 0.0);
  }
  EXPECT_EQ(result.strategy, "FedAvg");
  EXPECT_FALSE(result.final_params.empty());
}

TEST_F(SimulationFixture, DeterministicAccuracyForSameSeed) {
  auto sim1 = make_simulation(make_config());
  auto sim2 = make_simulation(make_config());
  const auto r1 = sim1.run();
  const auto r2 = sim2.run();
  ASSERT_EQ(r1.rounds.size(), r2.rounds.size());
  for (std::size_t i = 0; i < r1.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.rounds[i].top1, r2.rounds[i].top1);
    EXPECT_DOUBLE_EQ(r1.rounds[i].test_loss, r2.rounds[i].test_loss);
    EXPECT_EQ(r1.rounds[i].uplink_bytes_total, r2.rounds[i].uplink_bytes_total);
  }
  for (std::size_t i = 0; i < r1.final_params.size(); ++i) {
    ASSERT_FLOAT_EQ(r1.final_params[i], r2.final_params[i]);
  }
}

TEST_F(SimulationFixture, EvalEverySkipsEvaluationButCarriesForward) {
  auto cfg = make_config();
  cfg.rounds = 4;
  cfg.eval_every = 2;
  auto sim = make_simulation(cfg);
  const auto result = sim.run();
  // Rounds 1 and 3 carry forward; rounds 2 and 4 evaluate.
  EXPECT_DOUBLE_EQ(result.rounds[2].top1, result.rounds[1].top1);
}

}  // namespace
}  // namespace fedbiad::fl
