// Event-driven federated simulation engine: the virtual-clock driver of
// fl::ServerCore and the one entry point for in-process runs.
//
// The engine runs a virtual-clock timeline: every dispatched client takes
//   download → local compute → upload
// virtual seconds (drawn from its netsim::ClientProfile), and its update
// becomes visible to the server only when the upload arrives. Every server
// decision — selection, the commit policy, aggregation, evaluation, the
// ledgers and the core of each checkpoint — is made by fl::ServerCore, the
// same core the transport server runs on (fl/server_core.hpp):
//
//   kBarrier   — wait for the whole selection wave, then aggregate it as
//                one synchronous round (paper Algorithm 1); the default,
//                and the mode the golden traces pin.
//   kFedAsync  — merge every arrival immediately with a polynomial
//                staleness weight (Xie et al., FedAsync).
//   kBufferedK — semi-async: buffer K arrivals, then merge the buffer with
//                staleness-weighted deltas (FedBuff-style).
//
// What the engine itself owns is the medium: the event scheduler, the
// training pool, scenario churn and delivery faults, zombie jobs, and the
// job/event half of every snapshot.
//
// Determinism: all server-side decisions happen on the engine thread in
// (virtual time, insertion seq) event order; client training runs on the
// thread pool but against a parameter snapshot taken at dispatch (one
// shared copy per model version) and a (client, dispatch)-keyed Rng
// stream, so trajectories are identical for any worker-thread count.
// Before every begin_round/end_round the engine quiesces outstanding
// training (real time only — the virtual timeline is unaffected),
// preserving the Strategy contract that server hooks never overlap
// run_client.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.hpp"
#include "data/partition.hpp"
#include "fl/engine_hooks.hpp"
#include "fl/metrics.hpp"
#include "fl/server_core.hpp"
#include "fl/simulation.hpp"
#include "fl/strategy.hpp"
#include "netsim/client_profile.hpp"

namespace fedbiad::fl {

struct AsyncSimulationConfig {
  SimulationConfig base;  ///< rounds = number of commits
  AggregationMode mode = AggregationMode::kBarrier;
  StalenessConfig staleness;
  std::size_t buffer_size = 4;  ///< K for kBufferedK
  /// Per-client device/link heterogeneity; homogeneous by default.
  netsim::HeterogeneityConfig heterogeneity;
  /// Scenario extension points (availability, churn, deadlines,
  /// over-selection) — see fl/engine_hooks.hpp for the determinism
  /// contract and src/scenario for the declarative JSON implementation.
  /// Null (the default) preserves the engine's original behaviour exactly;
  /// trajectories and rng draws are bit-identical to a hook-free run.
  std::shared_ptr<EngineHooks> hooks;
  /// Label recorded in SimulationResult::scenario (traces, benches).
  std::string scenario_name;
  /// Crash-safe checkpointing (see checkpoint/checkpoint.hpp): with a
  /// directory configured, the engine snapshots its full state at commit
  /// boundaries; with `resume` also set, run() restores the newest valid
  /// snapshot and continues the trajectory bit-identically to an
  /// uninterrupted run. Disabled (empty directory) by default.
  checkpoint::CheckpointConfig checkpoint;
};

class AsyncSimulation {
 public:
  AsyncSimulation(AsyncSimulationConfig cfg, nn::ModelFactory factory,
                  data::DatasetPtr train_data, data::DatasetPtr test_data,
                  data::Partition partition, StrategyPtr strategy);

  /// Runs the event-driven simulation until cfg.base.rounds commits.
  SimulationResult run();

 private:
  class Driver;  ///< ServerCore's virtual-clock driver (one per run)

  AsyncSimulationConfig cfg_;
  nn::ModelFactory factory_;
  data::DatasetPtr train_data_;
  data::DatasetPtr test_data_;
  // The dense data::Partition costs 24 bytes per registered client even for
  // an empty shard, which at 1M+ populations dominates engine memory. The
  // constructor compacts it: only populated clients' shard lists are kept
  // (aligned with the ascending id list), so steady-state footprint is
  // O(populated), matching the registry's O(active) ClientState contract.
  std::size_t population_;
  std::vector<std::size_t> populated_;             ///< ascending client ids
  std::vector<std::vector<std::size_t>> shards_;   ///< aligned with populated_
  StrategyPtr strategy_;
};

}  // namespace fedbiad::fl
