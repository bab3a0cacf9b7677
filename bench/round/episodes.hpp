// One episode of a bench_round workload: set-up from the seed, then a fixed
// number of commits, with the commit clock, upload latencies and the
// dispatch ledger collected on the way.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/partition.hpp"
#include "fl/simulation.hpp"
#include "fl/strategy.hpp"
#include "nn/model.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace fedbiad::bench_round {

struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = kDefaultSeed;
  std::size_t commits = 0;         ///< per episode
  std::size_t decode_workers = 0;  ///< ingest_replay and tcp_async
  std::string work_dir;            ///< checkpoint scratch space
};

/// A workload's data, model and training settings, built from the seed.
struct Job {
  data::DatasetPtr train;
  data::DatasetPtr test;
  data::Partition partition;
  nn::ModelFactory factory;
  fl::SimulationConfig sim;
  double dropout = 0.0;      ///< FedBIAD p of the workload's model
  bool topk_metric = false;  ///< top-k (text) rather than top-1 accuracy
};

[[nodiscard]] Job make_job(const RunConfig& cfg);

/// The strategy the workload's clients run: FedBIAD, or FedAvg on
/// tcp_async.
[[nodiscard]] fl::StrategyPtr make_client_strategy(const RunConfig& cfg);

struct EpisodeResult {
  double setup_s = 0.0;  ///< start of set-up → first dispatch (begin_round)

  // The commits after warm-up (none in an episode that ends inside it).
  double span_s = 0.0;   ///< time (now_s) from the last warm-up commit
  double uploads = 0.0;  ///< uploads committed in that time
  std::vector<double> commit_ms;   ///< commit-to-commit intervals
  std::vector<double> ack_ms;      ///< upload due → accepted, per upload

  // Whole-episode ledger.
  std::size_t dispatched = 0;
  std::size_t committed = 0;
  std::size_t abandoned = 0;
  std::size_t rejected = 0;
  std::size_t buffered = 0;
  std::size_t in_flight = 0;
  std::size_t failed_sends = 0;  ///< client sends refused, and rejects seen
  std::size_t decode_parked = 0;
  std::size_t decode_shed = 0;
  std::size_t backpressure_deferrals = 0;
  std::size_t evicted = 0;
  std::uint64_t uplink_bytes = 0;  ///< total over committed uploads
  bool bytes_exact = true;  ///< every committed upload had spec->upload_bytes

  double final_acc = 0.0;
  std::uint32_t params_crc = 0;  ///< CRC32C of the final parameters

  EpisodeTrace trace;  ///< spans (traced episodes only) and commit times

  [[nodiscard]] bool conserved() const {
    return dispatched == committed + abandoned + rejected + buffered + in_flight;
  }
  [[nodiscard]] std::size_t failed() const {
    return abandoned + rejected + decode_shed + failed_sends;
  }
};

/// Runs one episode. With a tracer, the decorators record spans and the
/// result carries them.
[[nodiscard]] EpisodeResult run_episode(const RunConfig& cfg, Tracer* tracer);

}  // namespace fedbiad::bench_round
