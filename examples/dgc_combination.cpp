// FedBIAD composed with DGC sketched compression (paper Fig. 5 and
// Table II): drop rows, compress the surviving update with momentum-
// corrected top-k, upload values + 64-bit positions + 1-bit/row pattern.
// Compares naive DGC against FedBIAD+DGC.
//
//   $ ./examples/dgc_combination
#include <cstdio>
#include <memory>

#include "compress/compressed_strategy.hpp"
#include "compress/dgc.hpp"
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

  auto data_cfg = data::ImageSynthConfig::mnist_like(21);
  data_cfg.train_samples = smoke ? 500 : 2500;
  data_cfg.test_samples = smoke ? 100 : 500;
  const auto datasets = data::make_image_datasets(data_cfg);
  tensor::Rng prng(22);
  auto partition = data::partition_iid(datasets.train->size(),
                                       smoke ? 10 : 30, prng);

  const nn::MlpConfig model_cfg{.input = 784, .hidden = 128, .classes = 10};
  auto factory = [model_cfg] {
    return std::make_unique<nn::MlpModel>(model_cfg);
  };
  nn::MlpModel probe(model_cfg);
  const auto dense = core::dense_model_bytes(probe.store());

  fl::SimulationConfig sim_cfg;
  sim_cfg.rounds = smoke ? 4 : 20;
  sim_cfg.selection_fraction = 0.2;
  sim_cfg.train.local_iterations = smoke ? 5 : 20;
  sim_cfg.train.batch_size = 32;
  sim_cfg.train.sgd = {.lr = 0.1F, .weight_decay = 1e-4F, .clip_norm = 5.0F};

  const compress::DgcConfig dgc_cfg{.sparsity = 0.001};

  // Naive DGC: dense local training, compress the whole update.
  auto naive = std::make_shared<compress::SketchedStrategy>(
      std::make_shared<compress::DgcCompressor>(dgc_cfg));
  // FedBIAD+DGC: drop half the rows first, compress what survives.
  auto composed = std::make_shared<compress::ComposedStrategy>(
      std::make_shared<core::FedBiadStrategy>(
          core::FedBiadConfig{.dropout_rate = 0.5,
                              .tau = 3,
                              .stage_boundary = smoke ? 3UL : 17UL}),
      std::make_shared<compress::DgcCompressor>(dgc_cfg));

  std::printf("%-13s %9s %12s %9s\n", "method", "best acc", "upload",
              "save");
  for (auto& [label, strategy] :
       std::vector<std::pair<const char*, fl::StrategyPtr>>{
           {"DGC", naive}, {"FedBIAD+DGC", composed}}) {
    fl::AsyncSimulation sim({.base = sim_cfg}, factory, datasets.train,
                            datasets.test, partition, strategy);
    const auto result = sim.run();
    const auto upload = netsim::summarize_upload(result, dense);
    std::printf("%-13s %8.2f%% %12s %8.0fx\n", label,
                100.0 * result.best_accuracy(false),
                netsim::format_bytes(upload.mean_bytes).c_str(),
                upload.save_ratio);
  }
  std::printf("\nFedBIAD+DGC transmits roughly half of naive DGC's payload: "
              "top-k runs over the surviving (1-p) fraction of rows.\n");
  return 0;
}
