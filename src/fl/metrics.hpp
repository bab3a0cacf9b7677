// Per-round metrics and simulation results.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace fedbiad::fl {

/// One global round's record: accuracy, losses, traffic, and the simulated
/// wall-clock decomposition used for LTTR/TTA analysis (paper §V-C).
struct RoundRecord {
  std::size_t round = 0;  ///< 1-based
  double train_loss = 0.0;  ///< mean of participating clients' mean loss
  double test_loss = 0.0;
  double top1 = 0.0;
  double topk = 0.0;
  std::size_t participants = 0;          ///< selected clients this round
  std::uint64_t uplink_bytes_total = 0;  ///< sum over selected clients
  std::uint64_t uplink_bytes_max = 0;    ///< slowest single client
  std::uint64_t downlink_bytes = 0;      ///< per-client download
  double lttr_seconds = 0.0;        ///< max local training time in the round
  double upload_seconds = 0.0;      ///< slowest client's upload
  double download_seconds = 0.0;
  double aggregate_seconds = 0.0;
  /// Virtual-clock time at which this round's aggregation committed. Every
  /// engine reports it — over the default homogeneous fleet its value is
  /// the barrier timeline of identical devices (useful as the baseline
  /// against heterogeneous/async runs, not a measured wall time).
  double clock_seconds = 0.0;
  /// Mean staleness (global versions committed between a participant's
  /// dispatch and its merge) over this round's participants. Always 0 for
  /// synchronous/barrier aggregation.
  double mean_staleness = 0.0;
  /// Scenario accounting (0 unless an EngineHooks scenario is configured):
  /// dispatches whose upload was abandoned — churned away mid-round or cut
  /// off at the deadline — since the previous commit, and the uplink bytes
  /// those clients had already transmitted when they died. Abandoned
  /// uploads never aggregate and never appear in uplink_bytes_total.
  std::size_t abandoned = 0;
  std::uint64_t wasted_uplink_bytes = 0;
  /// Fault accounting (0 unless the scenario injects transport faults):
  /// dispatches terminally rejected since the previous commit — every
  /// delivery corrupt and the retry budget exhausted — and the on-the-wire
  /// bytes of all rejected deliveries (failed attempts and dropped
  /// duplicates included, so rejected_bytes can be nonzero in a round whose
  /// `rejected` is 0).
  std::size_t rejected = 0;
  std::uint64_t rejected_bytes = 0;
  /// Simulated device-side round time: download + local training + upload +
  /// aggregation (clients run in parallel, so max-per-client terms are used).
  [[nodiscard]] double wall_seconds() const {
    return download_seconds + lttr_seconds + upload_seconds +
           aggregate_seconds;
  }
};

struct SimulationResult {
  std::string strategy;
  /// Engine that produced the run, set by its driver: "barrier",
  /// "fedasync" or "buffered" (fl::AsyncSimulation), "transport-<mode>"
  /// (transport::ServerRuntime). Empty until a driver sets it.
  std::string engine;
  std::string scenario;         ///< scenario name; empty when none configured
  std::vector<RoundRecord> rounds;
  std::vector<float> final_params;

  /// Whole-run dispatch conservation ledger (the invariant the scenario
  /// property tests pin): total_dispatched == total_committed +
  /// total_abandoned + total_rejected + final_buffered + final_in_flight.
  std::size_t total_dispatched = 0;   ///< clients sent out
  std::size_t total_committed = 0;    ///< updates that aggregated
  std::size_t total_abandoned = 0;    ///< churned or deadline-cut uploads
  std::size_t total_rejected = 0;     ///< retry budget drained on corruption
  std::size_t final_buffered = 0;     ///< sitting in the aggregator at exit
  std::size_t final_in_flight = 0;    ///< still on the timeline at exit
  std::uint64_t total_wasted_uplink_bytes = 0;
  /// Delivery-level fault ledger, outside the dispatch conservation law: a
  /// dispatch whose first delivery corrupts but whose retry lands counts one
  /// rejected delivery yet zero rejected dispatches, and a dropped duplicate
  /// is a rejected delivery of an otherwise committed dispatch.
  std::size_t total_rejected_deliveries = 0;
  std::uint64_t total_rejected_bytes = 0;
  /// Registry telemetry (event-driven runs): the high-water mark of
  /// simultaneously leased ClientState records and the records ever
  /// materialized. The scale tests pin both to in-flight concurrency —
  /// independent of the registered population and of total dispatches.
  std::size_t peak_in_flight_states = 0;
  std::size_t materialized_states = 0;

  /// Fraction of dispatched uploads that never aggregated — abandoned
  /// (churn/deadline) or terminally rejected (0 when nothing was
  /// dispatched).
  [[nodiscard]] double dropped_upload_fraction() const;

  /// Mean per-client upload size per round (paper Table I "Upload Size").
  [[nodiscard]] double mean_upload_bytes() const;

  /// First 1-based round whose accuracy reaches `target` (top-k metric when
  /// `use_topk`), or nullopt if never reached.
  [[nodiscard]] std::optional<std::size_t> rounds_to_accuracy(
      double target, bool use_topk) const;

  /// Simulated time to reach `target` accuracy (paper's TTA, §V-C): the sum
  /// of wall_seconds over rounds up to and including the reaching round.
  [[nodiscard]] std::optional<double> time_to_accuracy(double target,
                                                       bool use_topk) const;

  /// Event-driven TTA: the virtual-clock timestamp of the first commit whose
  /// accuracy reaches `target`. Unlike time_to_accuracy this accounts for
  /// overlap between clients (stragglers don't serialize the timeline under
  /// async aggregation). Only meaningful for event-driven runs.
  [[nodiscard]] std::optional<double> sim_time_to_accuracy(
      double target, bool use_topk) const;

  [[nodiscard]] double best_accuracy(bool use_topk) const;
  [[nodiscard]] double final_accuracy(bool use_topk) const;

  /// Mean LTTR over rounds (paper Fig. 7a/7b).
  [[nodiscard]] double mean_lttr_seconds() const;

  /// Writes a CSV with one row per round.
  void write_csv(std::ostream& os) const;
};

}  // namespace fedbiad::fl
