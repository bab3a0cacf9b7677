// The run configuration every driver shares: fl::ServerCore, its two
// drivers (fl::AsyncSimulation in process, transport::ServerRuntime over a
// transport) and the transport clients all read rounds, selection, local
// training, link and evaluation settings from one SimulationConfig.
#pragma once

#include <cstddef>
#include <cstdint>

#include "fl/strategy.hpp"
#include "netsim/link.hpp"

namespace fedbiad::fl {

struct SimulationConfig {
  std::size_t rounds = 60;
  double selection_fraction = 0.1;  ///< κ
  TrainSettings train;
  netsim::LinkModel link;
  std::uint64_t seed = 42;
  std::size_t eval_batch_size = 64;
  std::size_t eval_every = 1;   ///< evaluate global model every k rounds
  /// Worker threads; 0 sizes the pool from the CPUs this process may run on
  /// (parallel::usable_cpus(), the affinity mask).
  std::size_t threads = 0;
  bool verbose = false;         ///< print per-round progress to stderr
};

}  // namespace fedbiad::fl
