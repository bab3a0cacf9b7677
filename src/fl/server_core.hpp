// The federated server's decisions, written once for both drivers.
//
// FedBIAD's server loop (paper Algorithm 1) selects κK clients, aggregates
// the weight rows they transmitted, and evaluates. fl::AsyncSimulation runs
// it on a virtual clock with in-process training; transport::ServerRuntime
// runs it over real (or loopback) connections. Each driver owns only its
// medium and reports what happened to a ServerCore, which owns every
// decision both make:
//
//   selection      the seeded rng: barrier waves and async top-ups, drawn
//                  over the idle (and, under a scenario, available) clients;
//   in flight      an IdleSet, the dispatch budget, the open wave;
//   commit policy  barrier (the wave, sorted by slot), FedAsync (every
//                  arrival), Buffered-K (every K arrivals, arrival order);
//   commit         the fused barrier aggregate or staleness_merge between
//                  begin_round and end_round — the driver quiesces training
//                  first, so server hooks never overlap run_client (AFD's
//                  pattern broadcast relies on that);
//   bookkeeping    the broadcast (encoded once per version, checked against
//                  the strategy's downlink oracle), evaluation, the
//                  RoundRecord, the ledgers and the core of each checkpoint.
//
// The core calls back through ServerDriver — one dispatch() per selected
// client — and runs on the driver's single server thread, without locks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.hpp"
#include "data/dataset.hpp"
#include "fl/engine_hooks.hpp"
#include "fl/metrics.hpp"
#include "fl/simulation.hpp"
#include "fl/strategy.hpp"
#include "nn/model.hpp"
#include "tensor/rng.hpp"
#include "wire/update_codec.hpp"

namespace fedbiad::fl {

enum class AggregationMode { kBarrier, kFedAsync, kBufferedK };

[[nodiscard]] const char* to_string(AggregationMode mode);

/// Staleness weighting for the async modes: an arrival whose snapshot is τ
/// versions old is merged with step size mixing_rate · (1+τ)^-exponent.
struct StalenessConfig {
  double mixing_rate = 0.6;  ///< α; 1 with exponent 0 disables damping
  double exponent = 0.5;     ///< polynomial staleness decay a
};

/// One client update travelling from training completion to aggregation.
struct PendingUpdate {
  ClientOutcome outcome;
  std::size_t slot = 0;              ///< selection-order slot in its wave
  std::size_t dispatch_version = 0;  ///< global version of its snapshot
  double download_seconds = 0.0;     ///< virtual link times (engine only)
  double upload_seconds = 0.0;
};

/// Staleness-weighted merge (FedAsync / FedBuff semantics): every update is
/// turned into a delta against the *current* global (parameter-type
/// outcomes subtract it, update-type outcomes already are one), deltas are
/// averaged per coordinate over the transmitting clients with weight
/// |D_k| · (1+τ_k)^-a, and the global takes an α-sized step along the mean.
void staleness_merge(std::span<float> global,
                     const std::vector<PendingUpdate>& batch,
                     const StalenessConfig& cfg, std::size_t commit_version);

/// Order-statistic set over positions [0, n), all idle initially. Stores
/// only the busy positions (sorted), so memory is O(busy) regardless of n —
/// the core's in-flight set stays O(in-flight) at million-client scale.
class IdleSet {
 public:
  explicit IdleSet(std::size_t n) : n_(n) {}

  [[nodiscard]] std::size_t idle_count() const noexcept {
    return n_ - busy_.size();
  }
  [[nodiscard]] std::size_t busy_count() const noexcept {
    return busy_.size();
  }
  [[nodiscard]] bool is_idle(std::size_t pos) const;

  void set_busy(std::size_t pos);
  void set_idle(std::size_t pos);

  /// The j-th smallest idle position (0-based, j < idle_count()) — exactly
  /// element j of the ascending idle scan this structure replaces.
  /// O(log² busy) via binary search over x ↦ x − |busy ≤ x|.
  [[nodiscard]] std::size_t select(std::size_t j) const;

 private:
  std::size_t n_;
  std::vector<std::size_t> busy_;  ///< sorted ascending
};

/// What a driver does with the core's decisions. Called on the server
/// thread only, from inside ServerCore methods.
class ServerDriver {
 public:
  virtual ~ServerDriver() = default;

  /// Sends `client` the current model version. `slot` is its selection
  /// order within a barrier wave (0 for async top-ups); `rng_stream` keys
  /// its local-training rng. During the call ServerCore::dispatched() is
  /// this dispatch's global index.
  virtual void dispatch(std::size_t client, std::size_t slot,
                        std::uint64_t rng_stream) = 0;

  /// The server clock: stamps RoundRecord::clock_seconds and is the time
  /// availability hooks are asked about.
  [[nodiscard]] virtual double now() const = 0;

  /// Blocks (in real time) until no run_client is executing; called before
  /// every begin_round and end_round.
  virtual void quiesce() {}

  /// Nobody can be selected now: arrange a later ServerCore::retry().
  virtual void retry_later();

  /// Adds the driver's half (clock, in-flight jobs, pending events) to a
  /// snapshot the core is about to write, and restores it on resume.
  virtual void save(checkpoint::EngineSnapshot& /*snap*/) {}
  virtual void restore(checkpoint::EngineSnapshot& /*snap*/) {}

  /// The run is complete: the last round committed (or was restored).
  virtual void finished() {}
};

struct ServerCoreConfig {
  SimulationConfig base;
  AggregationMode mode = AggregationMode::kBarrier;
  StalenessConfig staleness;
  std::size_t buffer_size = 4;  ///< K for kBufferedK
  checkpoint::CheckpointConfig checkpoint;
  /// SimulationResult::engine, and the identity label of every snapshot.
  std::string engine;
  std::string scenario;
  /// Availability and over-selection hooks; null for a server whose
  /// clients are always available. With hooks the async modes dispatch
  /// until the round count is reached; without, against a budget of
  /// exactly the uploads the commits consume plus one replacement per lost
  /// dispatch.
  EngineHooks* hooks = nullptr;
};

class ServerCore {
 public:
  /// `populated` (ascending client ids with data) must outlive the core;
  /// the selection fraction applies to the full registered `population`.
  ServerCore(ServerCoreConfig cfg, ServerDriver& driver,
             const nn::ModelFactory& factory, data::DatasetPtr test_data,
             const std::vector<std::size_t>& populated, std::size_t population,
             StrategyPtr strategy);

  /// Restores the newest valid snapshot when resume is configured, then
  /// makes the first selection (on resume: the one the interrupted run
  /// made right after writing the snapshot).
  void start();

  /// The wake-up a retry_later() arranged: selects again if still needed.
  void retry();

  /// An accepted, decoded upload from `client`: the commit policy decides
  /// whether it commits now.
  void arrive(std::size_t client, PendingUpdate update);
  /// A dispatch lost to a deadline or churn; `wasted_bytes` were uploaded
  /// in vain.
  void abandon(std::size_t client, std::uint64_t wasted_bytes = 0);
  /// A dispatch whose every delivery attempt failed verification.
  void reject(std::size_t client);
  /// One dropped delivery (a corrupt attempt, a duplicate, a shed upload):
  /// charged to the delivery ledger, outside the conservation law.
  void charge_delivery(std::uint64_t bytes);

  /// This version's encoded global model (encoded on first use). Shared,
  /// so a dispatch sent late still carries the version it was made for.
  [[nodiscard]] std::shared_ptr<const wire::Payload> broadcast();

  /// Fills the run ledgers and final parameters; call once, at the end.
  [[nodiscard]] SimulationResult take_result();

  [[nodiscard]] bool done() const noexcept {
    return version_ >= cfg_.base.rounds;
  }
  [[nodiscard]] std::size_t version() const noexcept { return version_; }
  [[nodiscard]] std::size_t dispatched() const noexcept {
    return result_.total_dispatched;
  }
  /// Parameter layout of the model (what uploads decode against).
  [[nodiscard]] const nn::ParameterStore& layout() const {
    return model_->store();
  }

 private:
  [[nodiscard]] bool barrier() const noexcept {
    return cfg_.mode == AggregationMode::kBarrier;
  }
  [[nodiscard]] std::size_t position(std::size_t client) const;
  /// Counts the selectable clients (idle, and available under a scenario
  /// that scans availability, in which case they are listed in `scan`).
  std::size_t selectable(std::vector<std::size_t>& scan);
  /// The j-th selectable client, in ascending id order.
  [[nodiscard]] std::size_t pick(const std::vector<std::size_t>& scan,
                                 std::size_t j) const;
  void dispatch(std::size_t client, std::size_t slot, std::uint64_t stream);
  void dispatch_wave();
  void top_up();
  /// `client`'s dispatch resolved: the wave shrinks, or a replacement is
  /// drawn.
  void release_slot(std::size_t client);
  void finish_wave();
  void commit(std::vector<PendingUpdate> batch);
  /// After a commit (or a resume): Fin, the next wave, or the next version.
  void next_round();
  void evaluate_into(RoundRecord& rec);
  void write_checkpoint();
  void try_resume();

  ServerCoreConfig cfg_;
  ServerDriver& driver_;
  data::DatasetPtr test_data_;
  const std::vector<std::size_t>& populated_;
  StrategyPtr strategy_;
  EngineHooks* hooks_;
  bool scan_availability_;
  std::size_t per_commit_;         ///< arrivals per async commit (K or 1)
  std::size_t select_target_ = 0;  ///< κK, over-selected under hooks
  std::size_t dispatch_cap_ = 0;   ///< starvation guard under hooks

  tensor::Rng rng_;
  std::unique_ptr<nn::Model> model_;
  std::vector<float> global_;
  std::shared_ptr<const wire::Payload> broadcast_;  ///< this version's
  std::uint64_t downlink_bytes_ = 0;

  IdleSet idle_;
  std::size_t version_ = 0;
  std::size_t wave_outstanding_ = 0;  ///< barrier wave members unresolved
  std::vector<PendingUpdate> held_;   ///< arrivals not yet committed

  /// The round log and the whole-run ledgers (the conservation law and
  /// the delivery counters outside it), kept up to date as the run goes.
  SimulationResult result_;
  /// This round's losses so far, folded into its RoundRecord at commit.
  RoundRecord round_;
};

}  // namespace fedbiad::fl
