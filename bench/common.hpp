// Shared harness for the paper-reproduction benches (Tables I/II, Figs
// 2/6/7/8): scaled-down workload definitions, strategy factories, and
// table printing.
//
// Scaling note (bench/README.md): models, client counts, and round counts are
// scaled to CPU budgets. Absolute numbers differ from the paper; the
// comparative shape (who wins, save ratios, crossovers) is the target.
// Environment overrides:
//   FEDBIAD_SCALE       multiply round counts (e.g. 0.5 for a smoke run)
//   FEDBIAD_THREADS     worker threads (default: hardware)
//   FEDBIAD_VERBOSE     1 → per-round progress on stderr
#pragma once

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/afd.hpp"
#include "baselines/fedavg.hpp"
#include "baselines/feddrop.hpp"
#include "baselines/fedmp.hpp"
#include "baselines/heterofl.hpp"
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
#include "netsim/client_profile.hpp"
#include "netsim/tta.hpp"
#include "nn/lstm_lm_model.hpp"
#include "nn/mlp_model.hpp"

namespace fedbiad::bench {

inline double env_scale() {
  const char* s = std::getenv("FEDBIAD_SCALE");
  return s == nullptr ? 1.0 : std::atof(s);
}

inline std::size_t env_threads() {
  const char* s = std::getenv("FEDBIAD_THREADS");
  return s == nullptr ? 0 : static_cast<std::size_t>(std::atoi(s));
}

inline bool env_verbose() {
  const char* s = std::getenv("FEDBIAD_VERBOSE");
  return s != nullptr && std::atoi(s) != 0;
}

/// The five evaluation datasets of the paper (§V-A), scaled.
enum class DatasetId { kMnist, kFmnist, kPtb, kWikiText2, kReddit };

inline const char* name_of(DatasetId id) {
  switch (id) {
    case DatasetId::kMnist:
      return "MNIST";
    case DatasetId::kFmnist:
      return "FMNIST";
    case DatasetId::kPtb:
      return "PTB";
    case DatasetId::kWikiText2:
      return "WikiText-2";
    case DatasetId::kReddit:
      return "Reddit";
  }
  return "?";
}

inline bool is_text(DatasetId id) {
  return id == DatasetId::kPtb || id == DatasetId::kWikiText2 ||
         id == DatasetId::kReddit;
}

/// A fully materialized workload: data, partition, model factory, and the
/// training configuration for one dataset row of the paper's tables.
struct Workload {
  DatasetId id{};
  data::DatasetPtr train;
  data::DatasetPtr test;
  data::Partition partition;
  nn::ModelFactory factory;
  std::uint64_t dense_bytes = 0;
  double dropout_rate = 0.5;  ///< paper: 0.2 for MNIST, 0.5 elsewhere
  fl::SimulationConfig sim;
  // Prototype-model-derived plans for the width baselines.
  baselines::WidthPlan width_plan;
  // Target accuracy for TTA (paper §V-C: 90/80/31/30%), in [0,1].
  double tta_target = 0.0;
  bool topk_metric = false;  ///< top-3 for text, top-1 for images
};

inline Workload make_workload(DatasetId id) {
  Workload w;
  w.id = id;
  const double scale = env_scale();
  w.sim.threads = env_threads();
  w.sim.verbose = env_verbose();
  w.sim.seed = 42;

  if (!is_text(id)) {
    const bool mnist = id == DatasetId::kMnist;
    auto cfg = mnist ? data::ImageSynthConfig::mnist_like(101)
                     : data::ImageSynthConfig::fmnist_like(202);
    cfg.train_samples = 4000;
    cfg.test_samples = 800;
    const auto ds = data::make_image_datasets(cfg);
    w.train = ds.train;
    w.test = ds.test;
    // Paper: 1000 clients with shard-based non-IID partitioning; scaled to
    // 60 clients, 2 shards each.
    tensor::Rng prng(7);
    w.partition = data::partition_shards(*ds.train, 60, 2, prng);
    const nn::MlpConfig mcfg{.input = 784,
                             .hidden = mnist ? 128u : 256u,
                             .classes = 10};
    w.factory = [mcfg] { return std::make_unique<nn::MlpModel>(mcfg); };
    nn::MlpModel probe(mcfg);
    w.dense_bytes = core::dense_model_bytes(probe.store());
    w.width_plan = baselines::WidthPlan::for_mlp(probe);
    w.dropout_rate = mnist ? 0.2 : 0.5;
    w.sim.rounds = std::max<std::size_t>(4, std::size_t(30 * scale));
    w.sim.selection_fraction = 0.1;
    w.sim.train.local_iterations = 20;
    w.sim.train.batch_size = 32;
    w.sim.train.topk = 1;
    w.sim.train.sgd = {.lr = 0.1F, .weight_decay = 1e-4F, .clip_norm = 5.0F};
    w.sim.eval_every = 1;
    // Achievable at this scale (paper: 90%/80% at 60 rounds full-size).
    w.tta_target = mnist ? 0.60 : 0.38;
    w.topk_metric = false;
    return w;
  }

  data::TextSynthConfig cfg;
  std::size_t clients = 100;
  data::TextDatasets ds;
  if (id == DatasetId::kPtb) {
    cfg = data::TextSynthConfig::ptb_like(303);
    cfg.vocab = 500;
    cfg.train_sequences = 3500;
    cfg.test_sequences = 400;
    cfg.structure_prob = 0.5;
    ds = data::make_text_datasets_iid(cfg, clients);
  } else if (id == DatasetId::kWikiText2) {
    cfg = data::TextSynthConfig::wikitext2_like(404);
    cfg.vocab = 1000;
    cfg.train_sequences = 7000;
    cfg.test_sequences = 500;
    cfg.structure_prob = 0.5;
    ds = data::make_text_datasets_iid(cfg, clients);
  } else {
    cfg = data::TextSynthConfig::reddit_like(505);
    cfg.vocab = 500;
    cfg.train_sequences = 4000;
    cfg.test_sequences = 400;
    cfg.structure_prob = 0.5;
    ds = data::make_text_datasets_noniid(cfg, clients, 0.3);
  }
  w.train = ds.train;
  w.test = ds.test;
  w.partition = std::move(ds.client_indices);
  const nn::LstmLmConfig mcfg{.vocab = cfg.vocab,
                              .embed = 48,
                              .hidden = 64,
                              .layers = 2};
  w.factory = [mcfg] { return std::make_unique<nn::LstmLmModel>(mcfg); };
  nn::LstmLmModel probe(mcfg);
  w.dense_bytes = core::dense_model_bytes(probe.store());
  w.width_plan = baselines::WidthPlan::for_lstm_lm(probe);
  w.dropout_rate = 0.5;
  w.sim.rounds = std::max<std::size_t>(4, std::size_t(16 * env_scale()));
  w.sim.selection_fraction = 0.1;  // paper: κ = 0.1
  w.sim.train.local_iterations = 15;
  w.sim.train.batch_size = 16;
  w.sim.train.topk = 3;  // paper: top-3 accuracy for next-word prediction
  w.sim.train.sgd = {.lr = 1.0F, .weight_decay = 0.0F, .clip_norm = 5.0F};
  w.sim.eval_every = 2;
  // Achievable at this scale (paper: 31%/30% at 60 rounds full-size).
  w.tta_target = 0.14;
  w.topk_metric = true;
  return w;
}

/// Stage boundary Rb scaled like the paper's 55-of-60.
inline std::size_t stage_boundary(const Workload& w) {
  return std::max<std::size_t>(1, w.sim.rounds * 55 / 60);
}

inline fl::StrategyPtr make_strategy(const std::string& name,
                                     const Workload& w) {
  const double p = w.dropout_rate;
  if (name == "FedAvg") return std::make_shared<baselines::FedAvgStrategy>();
  if (name == "FedDrop") {
    return std::make_shared<baselines::FedDropStrategy>(p);
  }
  if (name == "AFD") return std::make_shared<baselines::AfdStrategy>(p);
  if (name == "FedMP") return std::make_shared<baselines::FedMpStrategy>(p);
  if (name == "FjORD") {
    return std::make_shared<baselines::HeteroFlStrategy>(
        baselines::HeteroFlStrategy::fjord(w.width_plan, p));
  }
  if (name == "HeteroFL") {
    return std::make_shared<baselines::HeteroFlStrategy>(
        w.width_plan, baselines::HeteroFlStrategy::default_levels(p));
  }
  if (name == "FedBIAD") {
    return std::make_shared<core::FedBiadStrategy>(
        core::FedBiadConfig{.dropout_rate = p,
                            .tau = 3,
                            .stage_boundary = stage_boundary(w)});
  }
  std::cerr << "unknown strategy " << name << "\n";
  std::abort();
}

inline compress::CompressorPtr make_compressor(const std::string& name) {
  if (name == "FedPAQ") return std::make_shared<compress::FedPaqCompressor>();
  if (name == "SignSGD") {
    return std::make_shared<compress::SignSgdCompressor>();
  }
  if (name == "STC") {
    return std::make_shared<compress::StcCompressor>(
        compress::StcConfig{.sparsity = 0.0025});
  }
  if (name == "DGC") {
    return std::make_shared<compress::DgcCompressor>(
        compress::DgcConfig{.sparsity = 0.001});
  }
  std::cerr << "unknown compressor " << name << "\n";
  std::abort();
}

inline fl::SimulationResult run_strategy(const Workload& w,
                                         fl::StrategyPtr strategy) {
  fl::AsyncSimulation sim({.base = w.sim}, w.factory, w.train, w.test,
                          w.partition, std::move(strategy));
  return sim.run();
}

/// A mildly hostile fleet for the heterogeneous-timeline sections: device
/// speeds spread 6×, link rates spread 3×, and 20% stragglers another 4×
/// slower — the regime where staleness-aware aggregation earns its keep.
inline netsim::HeterogeneityConfig make_heterogeneity() {
  netsim::HeterogeneityConfig h;
  h.seconds_per_unit = 2e-3;
  h.compute_spread = 6.0;
  h.bandwidth_spread = 3.0;
  h.straggler_fraction = 0.2;
  h.straggler_multiplier = 4.0;
  return h;
}

/// Runs `strategy` on the event-driven engine. `rounds` still counts
/// aggregation commits, so barrier/fedasync/buffered results are comparable
/// per commit; the virtual clock (RoundRecord::clock_seconds and
/// sim_time_to_accuracy) is where the engines differ.
inline fl::SimulationResult run_async_strategy(
    const Workload& w, fl::StrategyPtr strategy, fl::AggregationMode mode,
    const netsim::HeterogeneityConfig& fleet, std::size_t buffer_k = 4) {
  fl::AsyncSimulationConfig cfg;
  cfg.base = w.sim;
  cfg.mode = mode;
  cfg.buffer_size = buffer_k;
  cfg.heterogeneity = fleet;
  fl::AsyncSimulation sim(cfg, w.factory, w.train, w.test, w.partition,
                          std::move(strategy));
  return sim.run();
}

/// One Table-I-style row: accuracy ± std-ish (best/final), upload, ratio.
/// `wire` is the exact measured bytes-on-the-wire per client per round —
/// since the encode/decode refactor this is the size of the actually-encoded
/// payload the server decoded, so it is printed raw next to the human-
/// readable form.
inline void print_table_row(const Workload& w, const std::string& method,
                            const fl::SimulationResult& result) {
  const auto upload = netsim::summarize_upload(result, w.dense_bytes);
  const double acc = 100.0 * result.best_accuracy(w.topk_metric);
  std::printf(
      "%-11s %-12s acc=%6.2f%%  upload=%10s  wire=%9.0fB  save=%5.2fx\n",
      name_of(w.id), method.c_str(), acc,
      netsim::format_bytes(upload.mean_bytes).c_str(), upload.mean_bytes,
      upload.save_ratio);
  std::fflush(stdout);
}

}  // namespace fedbiad::bench
