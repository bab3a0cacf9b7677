// Image classification under non-IID data (the paper's §V-A setting for
// MNIST/FMNIST): label-sorted shard partitioning, the 256-unit MLP, and a
// head-to-head of FedAvg, FedDrop, and FedBIAD with uplink accounting and
// simulated 5G round times.
//
//   $ ./examples/image_classification
#include <cstdio>
#include <memory>

#include "baselines/fedavg.hpp"
#include "baselines/feddrop.hpp"
#include "core/fedbiad_strategy.hpp"
#include "data/image_synth.hpp"
#include "data/partition.hpp"
#include "fl/async_simulation.hpp"
#include "netsim/tta.hpp"
#include "nn/mlp_model.hpp"
#include "smoke.hpp"

int main() {
  using namespace fedbiad;
  const bool smoke = examples::smoke();

  auto data_cfg = data::ImageSynthConfig::fmnist_like(7);
  data_cfg.train_samples = smoke ? 600 : 3000;
  data_cfg.test_samples = smoke ? 150 : 600;
  const auto datasets = data::make_image_datasets(data_cfg);

  // Non-IID: every client holds shards from about two classes.
  tensor::Rng prng(8);
  auto partition =
      data::partition_shards(*datasets.train, smoke ? 10 : 40, 2, prng);
  std::printf("label skew across clients: %.2f (1.0 = single-class "
              "clients)\n\n",
              data::label_skew(*datasets.train, partition, 10));

  const nn::MlpConfig model_cfg{.input = 784, .hidden = 256, .classes = 10};
  auto factory = [model_cfg] {
    return std::make_unique<nn::MlpModel>(model_cfg);
  };
  nn::MlpModel probe(model_cfg);
  const auto dense = core::dense_model_bytes(probe.store());

  fl::SimulationConfig sim_cfg;
  sim_cfg.rounds = smoke ? 4 : 25;
  sim_cfg.selection_fraction = 0.25;
  sim_cfg.train.local_iterations = smoke ? 5 : 20;
  sim_cfg.train.batch_size = 32;
  sim_cfg.train.sgd = {.lr = 0.1F, .weight_decay = 1e-4F, .clip_norm = 5.0F};

  struct Entry {
    const char* label;
    fl::StrategyPtr strategy;
  };
  const double p = 0.5;
  std::vector<Entry> entries;
  entries.push_back({"FedAvg", std::make_shared<baselines::FedAvgStrategy>()});
  entries.push_back(
      {"FedDrop", std::make_shared<baselines::FedDropStrategy>(p)});
  entries.push_back({"FedBIAD", std::make_shared<core::FedBiadStrategy>(
                                    core::FedBiadConfig{
                                        .dropout_rate = p,
                                        .tau = 3,
                                        .stage_boundary = smoke ? 3UL : 22UL})});

  std::printf("%-9s %9s %12s %8s %14s\n", "method", "best acc", "upload",
              "save", "TTA to 60%");
  for (auto& e : entries) {
    fl::AsyncSimulation sim({.base = sim_cfg}, factory, datasets.train,
                            datasets.test, partition, e.strategy);
    const auto result = sim.run();
    const auto upload = netsim::summarize_upload(result, dense);
    const auto tta = result.time_to_accuracy(0.60, false);
    std::printf("%-9s %8.2f%% %12s %7.2fx %14s\n", e.label,
                100.0 * result.best_accuracy(false),
                netsim::format_bytes(upload.mean_bytes).c_str(),
                upload.save_ratio,
                tta.has_value() ? netsim::format_seconds(*tta).c_str()
                                : "not reached");
  }
  return 0;
}
