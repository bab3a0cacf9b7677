// Strategy interface: the pluggable per-algorithm behaviour of the FL
// simulation (FedBIAD, FedAvg, FedDrop, AFD, FedMP, FjORD, HeteroFL, and the
// sketched-compression wrappers all implement this).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "tensor/rng.hpp"
#include "wire/bitset.hpp"
#include "wire/compact.hpp"
#include "wire/update_codec.hpp"

namespace fedbiad::fl {

/// Local-training hyperparameters shared by all strategies.
struct TrainSettings {
  std::size_t local_iterations = 20;  ///< V
  std::size_t batch_size = 32;
  nn::SgdConfig sgd;
  std::size_t topk = 1;  ///< evaluation metric: 1 for images, 3 for next-word
};

/// What one client hands back to the server.
///
/// The client side fills `payload` — the actually-encoded upload buffer —
/// plus the protocol metadata (`samples`, `is_update`, losses). The server
/// decodes the payload before aggregation (try_decode_outcome_compact
/// below), filling `compact` (what the client transmitted, in
/// O(transmitted) form) and `uplink_bytes` (payload.size(): measured
/// traffic, not a model of it). Tests and their dense aggregation oracle
/// (tests/aggregate.hpp) decode through decode_outcome instead, which fills
/// the wide view: `values` (the dense length-N vector, untransmitted
/// coordinates zeroed) and `present` (1 bit per coordinate — aggregation
/// only trusts transmitted coordinates).
struct ClientOutcome {
  std::size_t client_id = 0;
  std::size_t samples = 0;  ///< |D_k|, the aggregation weight (eq. 10)
  wire::Payload payload;    ///< the client's encoded upload
  std::vector<float> values;  ///< wide view (decode_outcome)
  wire::Bitset present;       ///< wide view (decode_outcome)
  /// The O(transmitted) decode the server engines aggregate from
  /// (decode_outcome_compact). Mutually exclusive with `values`/`present` —
  /// an outcome is decoded through exactly one view.
  wire::CompactUpdate compact;
  bool is_update = false;
  std::uint64_t uplink_bytes = 0;  ///< measured: payload.size()
  double train_seconds = 0.0;  ///< local wall time (LTTR contribution)
  double mean_loss = 0.0;      ///< average training loss over the V iterations
  double last_loss = 0.0;      ///< loss of the final iteration
};

/// Everything a strategy needs to run one client for one round. The model's
/// parameters have already been loaded with the current global parameters.
struct ClientContext {
  std::size_t client_id = 0;
  std::size_t round = 0;  ///< 1-based global round r
  nn::Model& model;
  std::span<const float> global_params;
  const data::Dataset& dataset;
  std::span<const std::size_t> shard;
  const TrainSettings& settings;
  tensor::Rng rng;  ///< stream unique to (client, round)
  /// Global-model version the client's snapshot was taken from. Barrier
  /// aggregation always passes round - 1; under asynchronous aggregation the
  /// server may have committed newer versions by the time this client's
  /// update arrives (its staleness is the difference).
  std::size_t model_version = 0;
  /// Virtual-clock time the client was dispatched (0 over a transport).
  double dispatch_clock = 0.0;
  /// Upload-deadline signal: the virtual seconds this client has from
  /// dispatch until the server abandons its upload (scenario deadline
  /// cutoff). 0 when no deadline is configured. Strategies may use it to
  /// trade upload size against the risk of missing the cutoff; the default
  /// strategies ignore it.
  double deadline_seconds = 0.0;
};

/// How the server combines client values (the `AggregationRule` bullet of
/// docs/ARCHITECTURE.md discusses the two).
enum class AggregationRule {
  /// Literal eq. 10: weighted average of β ∘ U including the zeros of
  /// dropped rows. Kept for tests and the ablation bench.
  kMaskedAverage,
  /// Standard federated-dropout rule: average each coordinate over the
  /// clients that transmitted it; keep the previous global value when nobody
  /// did.
  kPerCoordinateNormalized,
};

class Strategy {
 public:
  virtual ~Strategy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Runs one client's local training and encodes the upload into
  /// ClientOutcome::payload. Executed on a worker thread; must not touch
  /// shared mutable state except through its own synchronized members.
  virtual ClientOutcome run_client(ClientContext& ctx) = 0;

  /// Decodes one of this strategy's payloads against the server's model
  /// layout, in O(transmitted) form. Runs when an upload arrives, before
  /// aggregation. The default handles every layout-generic wire kind
  /// through wire::decode_update_compact; strategies whose encoding relies
  /// on session structure beyond the layout (FjORD/HeteroFL's width plan,
  /// the composed dropout+compressor framing) override it.
  [[nodiscard]] virtual wire::CompactUpdate decode_payload_compact(
      const nn::ParameterStore& layout, const wire::Payload& payload) const;

  /// The wide view of decode_payload_compact:
  /// wire::expand(decode_payload_compact(layout, payload)). Strategies
  /// override decode_payload_compact, never this; it stays virtual only so
  /// that a decorator forwarding every virtual (bench_round's
  /// ClockedStrategy) still compiles.
  [[nodiscard]] virtual wire::Decoded decode_payload(
      const nn::ParameterStore& layout, const wire::Payload& payload) const;

  /// Called on the engine thread before clients start (round is 1-based).
  virtual void begin_round(std::size_t round,
                           std::span<const float> global_params) {
    (void)round;
    (void)global_params;
  }

  /// Called on the engine thread after aggregation with the new global
  /// parameters.
  virtual void end_round(std::size_t round,
                         std::span<const float> old_global,
                         std::span<const float> new_global) {
    (void)round;
    (void)old_global;
    (void)new_global;
  }

  [[nodiscard]] virtual AggregationRule aggregation_rule() const {
    return AggregationRule::kPerCoordinateNormalized;
  }

  /// Analytic downlink size per client. The engines currently encode the
  /// broadcast as the dense global model, use the measured size, and
  /// FEDBIAD_CHECK it against this oracle — so overriding it (e.g. for a
  /// sub-model downlink) requires teaching the engine to encode that
  /// broadcast too; the check turns a silently mis-timed simulation into a
  /// loud error until then.
  [[nodiscard]] virtual std::uint64_t downlink_bytes(
      std::size_t param_count) const {
    return static_cast<std::uint64_t>(param_count) * sizeof(float);
  }

  /// Relative local-compute cost of one client step under this strategy,
  /// used by the event-driven engine's virtual clock. Dropout/width
  /// strategies train sub-models and override with < 1 (FedBIAD's clients
  /// skip dropped rows entirely — the paper's LTTR advantage, Fig. 7).
  [[nodiscard]] virtual double compute_cost_multiplier() const { return 1.0; }

  /// Serializes the strategy's persistent cross-round server state (e.g.
  /// FedBIAD's per-client weight-score store) for a checkpoint. Stateless
  /// strategies return an empty blob (the default). Must be called with the
  /// workers quiesced, and the byte stream must be deterministic — the
  /// snapshot's CRC pins it.
  [[nodiscard]] virtual std::vector<std::uint8_t> save_state() const;

  /// Restores state produced by save_state() on the same strategy type.
  /// The default accepts only the empty blob.
  virtual void load_state(std::span<const std::uint8_t> bytes);
};

using StrategyPtr = std::shared_ptr<Strategy>;

/// The wide receive step: decodes `out.payload` through the strategy's
/// decode_payload into `out.values` / `out.present` and records the
/// measured `out.uplink_bytes`. The engines decode through
/// try_decode_outcome_compact; tests and tools that drive run_client
/// directly call this to reconstruct the dense view (the tests' dense
/// aggregation oracle consumes it). Throws CheckError if `out` was already
/// decoded through either view.
void decode_outcome(const Strategy& strategy,
                    const nn::ParameterStore& layout, ClientOutcome& out);

/// Where an upload came from, for fault-path diagnostics: every rejection
/// message names the client, its dispatch sequence number, and the virtual
/// clock at which the delivery was inspected.
struct DecodeContext {
  std::size_t client_id = 0;
  std::size_t dispatch_seq = 0;
  double clock = 0.0;
  /// wire::crc32c of the whole sealed payload, when a receiver derived it
  /// from the verified CRC of the frame the payload arrived in (see
  /// transport::decode_upload): the seal check then reads no payload byte.
  /// Empty otherwise, and the seal is checked by reading the payload.
  std::optional<std::uint32_t> sealed_crc;
};

/// Result of a non-throwing decode: `ok`, or a context-wrapped reason.
struct DecodeStatus {
  bool ok = true;
  std::string error;

  explicit operator bool() const noexcept { return ok; }
};

/// Compact receive step: like decode_outcome but fills `out.compact`
/// instead of the dense `values`/`present` pair, so server-side memory per
/// pending upload is O(transmitted) rather than O(model). Same
/// single-decode guard and uplink accounting.
void decode_outcome_compact(const Strategy& strategy,
                            const nn::ParameterStore& layout,
                            ClientOutcome& out);

/// The engines' receive step: a non-throwing decode_outcome_compact for
/// fault-tolerant sessions, where a malformed upload is a survivable
/// transport event, not a programming error. When `framed` is set the
/// payload must carry a valid CRC32C trailer (wire::seal_payload); the
/// trailer is verified (through ctx.sealed_crc when set) and stripped
/// before the section decoder runs, and
/// `out.uplink_bytes` charges the framed (on-the-wire) size. On failure
/// `out` is left undecoded and the returned status carries the wire error
/// wrapped with `ctx`.
[[nodiscard]] DecodeStatus try_decode_outcome_compact(
    const Strategy& strategy, const nn::ParameterStore& layout,
    ClientOutcome& out, bool framed, const DecodeContext& ctx);

}  // namespace fedbiad::fl
