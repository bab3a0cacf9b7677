// Next-word prediction with a two-layer LSTM under FedBIAD (the paper's
// §V-A language-modelling setting): Reddit-like non-IID clients with
// unequal data, top-3 accuracy, and the Theorem-1 generalization-bound
// decay printed next to the measured curve.
//
//   $ ./examples/next_word_prediction
#include <cstdio>
#include <memory>

#include "bayes/theory.hpp"
#include "core/fedbiad_strategy.hpp"
#include "data/text_synth.hpp"
#include "fl/async_simulation.hpp"
#include "netsim/tta.hpp"
#include "nn/lstm_lm_model.hpp"
#include "smoke.hpp"

int main() {
  using namespace fedbiad;
  const bool smoke = examples::smoke();

  auto cfg = data::TextSynthConfig::reddit_like(11);
  cfg.vocab = smoke ? 100 : 400;
  cfg.train_sequences = smoke ? 400 : 3000;
  cfg.test_sequences = smoke ? 80 : 300;
  cfg.structure_prob = 0.5;
  const auto text = data::make_text_datasets_noniid(cfg, smoke ? 12 : 60, 0.3);
  std::printf("clients: %zu, largest shard %zu sequences, smallest %zu\n\n",
              text.client_indices.size(), text.client_indices.front().size(),
              text.client_indices.back().size());

  const nn::LstmLmConfig model_cfg{
      .vocab = cfg.vocab, .embed = 48, .hidden = 64, .layers = 2};
  auto factory = [model_cfg] {
    return std::make_unique<nn::LstmLmModel>(model_cfg);
  };

  fl::SimulationConfig sim_cfg;
  sim_cfg.rounds = smoke ? 3 : 14;
  sim_cfg.selection_fraction = 0.15;
  sim_cfg.train.local_iterations = smoke ? 5 : 15;
  sim_cfg.train.batch_size = 16;
  sim_cfg.train.topk = 3;  // mobile-keyboard metric (paper §V-B)
  sim_cfg.train.sgd = {.lr = 1.0F, .weight_decay = 0.0F, .clip_norm = 5.0F};

  auto strategy = std::make_shared<core::FedBiadStrategy>(
      core::FedBiadConfig{.dropout_rate = 0.5,
                          .tau = 3,
                          .stage_boundary = smoke ? 2UL : 12UL});
  fl::AsyncSimulation sim({.base = sim_cfg}, factory, text.train, text.test,
                          text.client_indices, strategy);
  const auto result = sim.run();

  // Theorem 1 machinery for this model structure.
  nn::LstmLmModel probe(model_cfg);
  const auto structure = core::structure_of(probe.store(), 0.5);
  std::size_t min_dk = text.client_indices.front().size();
  for (const auto& shard : text.client_indices) {
    min_dk = std::min(min_dk, shard.size());
  }

  std::printf("round  train_loss  top3_acc  upload/client  eq.15 bound\n");
  for (const auto& r : result.rounds) {
    const auto m_r = bayes::min_client_data(
        r.round, sim_cfg.train.local_iterations, min_dk);
    std::printf(
        "%5zu  %10.4f  %7.2f%%  %13s  %.3e\n", r.round, r.train_loss,
        100.0 * r.topk,
        netsim::format_bytes(static_cast<double>(r.uplink_bytes_total) /
                             static_cast<double>(r.participants))
            .c_str(),
        bayes::epsilon_bound(structure, m_r));
  }
  const auto upload = netsim::summarize_upload(
      result, core::dense_model_bytes(probe.store()));
  std::printf("\nsave ratio %.2fx on a recurrent model — the capability "
              "FedDrop/AFD lack (paper §V-B).\n",
              upload.save_ratio);
  return 0;
}
