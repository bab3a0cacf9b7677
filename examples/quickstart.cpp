// Quickstart: the smallest complete FedBIAD simulation.
//
// Builds a synthetic image-classification task, partitions it over 20
// clients, runs 10 federated rounds of FedBIAD at dropout rate 0.5, and
// prints per-round accuracy plus the uplink saving against a dense upload.
//
//   $ ./examples/quickstart
#include <cstdio>
#include <memory>

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

  // 1. Data: a seeded synthetic MNIST-like task, split IID over 20 clients.
  auto data_cfg = data::ImageSynthConfig::mnist_like(/*seed=*/1);
  data_cfg.train_samples = smoke ? 400 : 2000;
  data_cfg.test_samples = smoke ? 100 : 400;
  const auto datasets = data::make_image_datasets(data_cfg);
  tensor::Rng prng(2);
  auto partition = data::partition_iid(datasets.train->size(), 20, prng);

  // 2. Model: the paper's one-hidden-layer MLP (784 → 128 → 10).
  const nn::MlpConfig model_cfg{.input = 784, .hidden = 128, .classes = 10};
  auto factory = [model_cfg] {
    return std::make_unique<nn::MlpModel>(model_cfg);
  };

  // 3. Strategy: FedBIAD with the paper's defaults (τ = 3, two stages).
  auto strategy = std::make_shared<core::FedBiadStrategy>(
      core::FedBiadConfig{.dropout_rate = 0.5,
                          .tau = 3,
                          .stage_boundary = smoke ? 2UL : 8UL});

  // 4. Simulate.
  fl::SimulationConfig sim_cfg;
  sim_cfg.rounds = smoke ? 3 : 10;
  sim_cfg.selection_fraction = 0.25;  // 5 clients per round
  sim_cfg.train.local_iterations = smoke ? 5 : 20;
  sim_cfg.train.batch_size = 32;
  sim_cfg.train.sgd = {.lr = 0.1F, .weight_decay = 1e-4F, .clip_norm = 5.0F};
  fl::AsyncSimulation sim({.base = sim_cfg}, factory, datasets.train,
                          datasets.test, partition, strategy);
  const auto result = sim.run();

  // 5. Report.
  std::printf("round  train_loss  test_acc  upload/client\n");
  for (const auto& r : result.rounds) {
    std::printf("%5zu  %10.4f  %7.2f%%  %s\n", r.round, r.train_loss,
                100.0 * r.top1,
                netsim::format_bytes(static_cast<double>(r.uplink_bytes_total) /
                                     static_cast<double>(r.participants))
                    .c_str());
  }
  nn::MlpModel probe(model_cfg);
  const auto upload = netsim::summarize_upload(
      result, core::dense_model_bytes(probe.store()));
  std::printf("\nFedBIAD uploaded %s per client per round — %.2fx less than "
              "the %s dense model.\n",
              netsim::format_bytes(upload.mean_bytes).c_str(),
              upload.save_ratio,
              netsim::format_bytes(
                  static_cast<double>(core::dense_model_bytes(probe.store())))
                  .c_str());
  return 0;
}
