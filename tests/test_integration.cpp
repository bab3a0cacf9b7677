// End-to-end integration tests: full federated simulations exercising the
// paper's main claims at miniature scale.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/fedavg.hpp"
#include "baselines/feddrop.hpp"
#include "baselines/heterofl.hpp"
#include "compress/compressed_strategy.hpp"
#include "compress/dgc.hpp"
#include "core/fedbiad_strategy.hpp"
#include "data/image_synth.hpp"
#include "data/partition.hpp"
#include "data/text_synth.hpp"
#include "fl/async_simulation.hpp"
#include "netsim/tta.hpp"
#include "nn/lstm_lm_model.hpp"
#include "nn/mlp_model.hpp"

namespace fedbiad {
namespace {

struct ImageWorld {
  data::ImageDatasets datasets;
  data::Partition partition;
  nn::ModelFactory factory;
  std::uint64_t dense_bytes = 0;

  explicit ImageWorld(std::uint64_t seed = 11) {
    auto cfg = data::ImageSynthConfig::mnist_like(seed);
    cfg.train_samples = 600;
    cfg.test_samples = 200;
    datasets = data::make_image_datasets(cfg);
    tensor::Rng prng(seed + 1);
    partition = data::partition_iid(datasets.train->size(), 10, prng);
    factory = [] {
      return std::make_unique<nn::MlpModel>(
          nn::MlpConfig{.input = 784, .hidden = 32, .classes = 10});
    };
    nn::MlpModel probe({.input = 784, .hidden = 32, .classes = 10});
    dense_bytes = core::dense_model_bytes(probe.store());
  }

  fl::SimulationConfig sim_config(std::size_t rounds) const {
    fl::SimulationConfig cfg;
    cfg.rounds = rounds;
    cfg.selection_fraction = 0.3;
    cfg.train.local_iterations = 10;
    cfg.train.batch_size = 16;
    cfg.train.topk = 1;
    cfg.train.sgd = {.lr = 0.2F, .weight_decay = 1e-4F, .clip_norm = 5.0F};
    cfg.seed = 13;
    cfg.threads = 4;
    return cfg;
  }

  fl::SimulationResult run(fl::StrategyPtr strategy,
                           std::size_t rounds = 12) const {
    fl::AsyncSimulation sim({.base = sim_config(rounds)}, factory,
                            datasets.train, datasets.test, partition,
                            std::move(strategy));
    return sim.run();
  }
};

TEST(Integration, FedAvgLearnsImages) {
  ImageWorld world;
  const auto result =
      world.run(std::make_shared<baselines::FedAvgStrategy>(), 15);
  EXPECT_GT(result.final_accuracy(false), 0.5);
  EXPECT_LT(result.rounds.back().test_loss, result.rounds.front().test_loss);
}

TEST(Integration, FedBiadMatchesAccuracyWithHalfUpload) {
  ImageWorld world;
  const auto fedavg =
      world.run(std::make_shared<baselines::FedAvgStrategy>(), 30);
  const auto fedbiad = world.run(
      std::make_shared<core::FedBiadStrategy>(
          core::FedBiadConfig{.dropout_rate = 0.5,
                              .tau = 3,
                              .stage_boundary = 25,
                              .sample_posterior = false}),
      30);
  // ~2× upload saving (paper Table I).
  const auto avg_summary = netsim::summarize_upload(fedavg, world.dense_bytes);
  const auto biad_summary =
      netsim::summarize_upload(fedbiad, world.dense_bytes);
  EXPECT_NEAR(avg_summary.save_ratio, 1.0, 0.01);
  EXPECT_GT(biad_summary.save_ratio, 1.8);
  // Accuracy in the same ballpark as the dense baseline.
  EXPECT_GT(fedbiad.best_accuracy(false),
            fedavg.best_accuracy(false) - 0.12);
}

TEST(Integration, FedBiadBeatsRandomDropoutOnImages) {
  ImageWorld world;
  const auto feddrop =
      world.run(std::make_shared<baselines::FedDropStrategy>(0.5), 14);
  const auto fedbiad = world.run(
      std::make_shared<core::FedBiadStrategy>(
          core::FedBiadConfig{.dropout_rate = 0.5,
                              .tau = 3,
                              .stage_boundary = 11,
                              .sample_posterior = false}),
      14);
  // The adaptive pattern should not lose to random dropout (paper's claim);
  // allow a small tolerance at this miniature scale.
  EXPECT_GE(fedbiad.best_accuracy(false), feddrop.best_accuracy(false) - 0.05);
}

TEST(Integration, NonIidShardsStillConverge) {
  ImageWorld world;
  tensor::Rng prng(17);
  auto noniid =
      data::partition_shards(*world.datasets.train, 10, 2, prng);
  fl::AsyncSimulation sim({.base = world.sim_config(14)}, world.factory,
                          world.datasets.train, world.datasets.test,
                          std::move(noniid),
                          std::make_shared<core::FedBiadStrategy>(
                              core::FedBiadConfig{.dropout_rate = 0.3,
                                                  .tau = 3,
                                                  .stage_boundary = 12,
                                                  .sample_posterior = false}));
  const auto result = sim.run();
  EXPECT_GT(result.final_accuracy(false), 0.3);
}

TEST(Integration, FedBiadHandlesRecurrentModels) {
  auto cfg = data::TextSynthConfig::ptb_like(19);
  cfg.vocab = 100;
  cfg.train_sequences = 1000;
  cfg.test_sequences = 150;
  cfg.seq_len = 8;
  cfg.structure_prob = 0.5;
  auto text = data::make_text_datasets_iid(cfg, 20);
  auto factory = [] {
    return std::make_unique<nn::LstmLmModel>(nn::LstmLmConfig{
        .vocab = 100, .embed = 32, .hidden = 48, .layers = 2});
  };
  fl::SimulationConfig sim_cfg;
  sim_cfg.rounds = 12;
  sim_cfg.selection_fraction = 0.5;
  sim_cfg.train.local_iterations = 16;
  sim_cfg.train.batch_size = 8;
  sim_cfg.train.topk = 3;
  sim_cfg.train.sgd = {.lr = 1.0F, .weight_decay = 0.0F, .clip_norm = 5.0F};
  sim_cfg.seed = 23;
  sim_cfg.threads = 8;
  auto strategy = std::make_shared<core::FedBiadStrategy>(
      core::FedBiadConfig{.dropout_rate = 0.5,
                          .tau = 3,
                          .stage_boundary = 10,
                          .sample_posterior = false});
  fl::AsyncSimulation sim({.base = sim_cfg}, factory, text.train, text.test,
                          text.client_indices, strategy);
  const auto result = sim.run();
  // Top-3 accuracy must climb from the ~3% uniform baseline toward the
  // Zipf-head regime, and the upload saving must hold on the recurrent
  // model — the paper's headline capability.
  EXPECT_GT(result.final_accuracy(true), 0.15);
  nn::LstmLmModel probe(
      {.vocab = 100, .embed = 32, .hidden = 48, .layers = 2});
  const auto summary = netsim::summarize_upload(
      result, core::dense_model_bytes(probe.store()));
  EXPECT_GT(summary.save_ratio, 1.8);
}

TEST(Integration, ComposedFedBiadDgcRunsAndCompressesHard) {
  ImageWorld world;
  auto inner = std::make_shared<core::FedBiadStrategy>(
      core::FedBiadConfig{.dropout_rate = 0.5,
                          .tau = 3,
                          .stage_boundary = 9,
                          .sample_posterior = false});
  auto composed = std::make_shared<compress::ComposedStrategy>(
      inner, std::make_shared<compress::DgcCompressor>(
                 compress::DgcConfig{.sparsity = 0.01}));
  const auto result = world.run(composed, 15);
  EXPECT_EQ(result.strategy, "FedBIAD+DGC");
  const auto summary = netsim::summarize_upload(result, world.dense_bytes);
  EXPECT_GT(summary.save_ratio, 20.0);
  EXPECT_GT(result.final_accuracy(false), 0.2);
}

TEST(Integration, MaskedAverageUnderperformsNormalized) {
  // The `AggregationRule` bullet of docs/ARCHITECTURE.md: literal eq. 10
  // shrinks rows each round.
  ImageWorld world;
  const auto normalized = world.run(std::make_shared<core::FedBiadStrategy>(
      core::FedBiadConfig{.dropout_rate = 0.5,
                          .tau = 3,
                          .stage_boundary = 9,
                          .sample_posterior = false,
                          .aggregation =
                              fl::AggregationRule::kPerCoordinateNormalized}));
  const auto masked = world.run(std::make_shared<core::FedBiadStrategy>(
      core::FedBiadConfig{.dropout_rate = 0.5,
                          .tau = 3,
                          .stage_boundary = 9,
                          .sample_posterior = false,
                          .aggregation = fl::AggregationRule::kMaskedAverage}));
  EXPECT_GE(normalized.final_accuracy(false), masked.final_accuracy(false));
}

TEST(Integration, FjordRunsEndToEnd) {
  ImageWorld world;
  nn::MlpModel probe({.input = 784, .hidden = 32, .classes = 10});
  auto plan = baselines::WidthPlan::for_mlp(probe);
  const auto result =
      world.run(std::make_shared<baselines::HeteroFlStrategy>(
                    baselines::HeteroFlStrategy::fjord(plan, 0.5)),
                15);
  EXPECT_GT(result.final_accuracy(false), 0.25);
  const auto summary = netsim::summarize_upload(result, world.dense_bytes);
  EXPECT_GT(summary.save_ratio, 1.3);
}

}  // namespace
}  // namespace fedbiad
