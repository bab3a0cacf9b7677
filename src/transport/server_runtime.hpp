// Federated server running behind a ServerTransport.
//
// The transport driver of fl::ServerCore (fl/server_core.hpp) — the same
// core fl::AsyncSimulation drives on its virtual clock. Every server
// decision comes from the core: selection, the commit policy and its
// arithmetic, the model broadcast, evaluation, the RoundRecord and
// conservation ledgers, and commit-boundary checkpoints. A round driven
// over TCP therefore produces a trajectory bit-identical to the engine, and
// Strategy code runs unchanged on both.
//
// What the runtime owns is the medium — sessions, frames, the decode pool,
// parking, deadline timers and Fin — in the session state machine:
//
//   Hello → Welcome        bind a connection to a client id; a token from
//                          a previous Welcome resumes the session, and a
//                          reconnect supersedes (closes) the old one.
//   Dispatch → Upload      one in-flight record per selected client, keyed
//                          by the engine-global dispatch index. Stale or
//                          duplicate indices (a client re-sending after
//                          reconnect) are charged to the delivery ledger
//                          and Ack'd, never aggregated — at-most-once
//                          commit by construction.
//   Upload → Ack/Reject    payloads arrive CRC-sealed; try_decode rejects
//                          corrupt ones with connection context, retryable
//                          until max_upload_attempts, then the dispatch is
//                          terminally rejected (conservation: rejected).
//   deadline → abandon     a dispatch with no accepted upload within
//                          dispatch_deadline_seconds is abandoned
//                          (conservation: abandoned) — the churn path for
//                          clients that died and never came back. In every
//                          mode the core replaces a lost dispatch, so the
//                          run still completes.
//   backpressure           a refused transport send parks the message (the
//                          dispatch stays unsent, control frames queue) and
//                          retries on on_drain; a session whose control
//                          queue overflows is closed — load is shed before
//                          memory grows.
//   decode workers         with decode_workers > 0, sealed uploads are
//                          verified and decoded on a DecodePool off the
//                          transport thread and finished — in arrival
//                          order — at the transport's scheduler tick, so
//                          trajectories are bit-identical to the inline
//                          path at any worker count. A full decode queue
//                          parks arrivals exactly like a full send budget;
//                          overflow sheds the submitting session.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "checkpoint/checkpoint.hpp"
#include "data/partition.hpp"
#include "fl/metrics.hpp"
#include "fl/server_core.hpp"
#include "fl/strategy.hpp"
#include "nn/model.hpp"
#include "transport/clock.hpp"
#include "transport/decode_pool.hpp"
#include "transport/protocol.hpp"
#include "transport/transport.hpp"

namespace fedbiad::transport {

struct TransportServerConfig {
  fl::SimulationConfig base;
  fl::AggregationMode mode = fl::AggregationMode::kBarrier;
  fl::StalenessConfig staleness;
  std::size_t buffer_size = 4;  ///< K for kBufferedK
  /// Commit-boundary checkpoints (barrier mode only: its commit boundary
  /// has no in-flight work, so a snapshot needs no job/event state and
  /// resume replays the wave from the restored rng).
  checkpoint::CheckpointConfig checkpoint;
  /// Abandon a dispatch with no accepted upload after this long (0 = wait
  /// forever — only safe when every client is expected to survive).
  double dispatch_deadline_seconds = 0.0;
  /// Delivery attempts per dispatch before terminal rejection.
  std::size_t max_upload_attempts = 3;
  /// Parked control frames per session before the session is shed.
  std::size_t max_parked_control = 64;
  /// Decode-on-arrival worker threads. 0 decodes inline on the transport
  /// thread; any positive count produces bit-identical trajectories.
  std::size_t decode_workers = 0;
  /// Uploads in flight on the decode workers before arrivals park
  /// (0 = 2 × decode_workers).
  std::size_t decode_queue_depth = 0;
  /// Parked uploads (decode queue full) before the submitting session is
  /// shed — the decode-side twin of max_parked_control.
  std::size_t max_parked_uploads = 64;
  std::string scenario_name = "transport";
};

struct TransportServerResult {
  fl::SimulationResult sim;
  std::size_t backpressure_deferrals = 0;  ///< refused sends, later retried
  std::size_t sessions_opened = 0;   ///< successful handshakes
  std::size_t sessions_resumed = 0;  ///< handshakes with a matching token
  std::size_t connections_evicted = 0;  ///< read/write deadline closures
  std::size_t decode_parked = 0;  ///< uploads parked on a full decode queue
  std::size_t decode_shed = 0;    ///< sessions shed on parked-upload overflow

  /// The conservation law the whole ledger hangs on.
  [[nodiscard]] bool conserved() const {
    return sim.total_dispatched == sim.total_committed + sim.total_abandoned +
                                       sim.total_rejected + sim.final_buffered +
                                       sim.final_in_flight;
  }
};

class ServerRuntime final : public ServerTransport::Handler,
                            private fl::ServerDriver {
 public:
  ServerRuntime(TransportServerConfig cfg, ServerTransport& transport,
                nn::ModelFactory factory, data::DatasetPtr test_data,
                data::Partition partition, fl::StrategyPtr strategy);

  /// Initializes (or resumes) the model and dispatches the first wave.
  void start();

  /// True once every configured round has committed.
  [[nodiscard]] bool done() const noexcept { return core_.done(); }

  /// Runs one transport slice (deliver frames, fire deadlines).
  void pump(double max_wait_seconds) { transport_.step(max_wait_seconds); }

  /// Drains farewell traffic and returns the final result. Call after
  /// done(); further pumps are harmless.
  TransportServerResult finish();

  /// start() + pump until done() + finish().
  TransportServerResult run();

  [[nodiscard]] std::size_t rounds_completed() const noexcept {
    return core_.version();
  }

  // ServerTransport::Handler
  void on_open(SessionId session) override;
  void on_frame(SessionId session, Frame&& frame) override;
  void on_close(SessionId session, const std::string& reason) override;
  void on_drain(SessionId session) override;

 private:
  struct InFlight {
    DispatchMsg msg;  ///< the Dispatch frame, less its broadcast bytes
    std::shared_ptr<const wire::Payload> broadcast;  ///< that version's model
    std::uint32_t broadcast_crc = 0;  ///< wire::crc32c(broadcast->bytes)
    std::size_t attempts = 1;  ///< delivery attempts consumed (1-based)
    bool sent = false;         ///< Dispatch actually handed to the transport
    std::unique_ptr<DeadlineTimer> deadline;
  };

  struct Session {
    static constexpr std::size_t kUnbound = static_cast<std::size_t>(-1);
    std::size_t client = kUnbound;
  };

  struct ParkedFrame {
    FrameType type;
    std::vector<std::uint8_t> body;
  };

  // fl::ServerDriver
  void dispatch(std::size_t client, std::size_t slot,
                std::uint64_t rng_stream) override;
  [[nodiscard]] double now() const override { return transport_.now(); }
  void restore(checkpoint::EngineSnapshot& snap) override;
  /// Broadcasts Fin to every bound session, once.
  void finished() override;

  void handle_hello(SessionId session, const Frame& frame);
  void handle_upload(SessionId session, const Frame& frame);
  /// Completion half of an upload: dedup check, reject/retry accounting,
  /// ack, hand-off to the core. Runs at delivery time inline
  /// (decode_workers == 0) or at the scheduler tick in arrival order.
  void finish_upload(DecodeJob& job);
  /// Tick hook body: harvests decoded jobs, finishes them in arrival
  /// order, and re-submits parked uploads. Returns true when it did work.
  bool drain_decodes();
  void try_send_dispatch(std::size_t client);
  /// send() with parking: a refused frame queues per session and is
  /// retried on on_drain; an overflowing queue sheds the session.
  void send_control(SessionId session, FrameType type,
                    std::vector<std::uint8_t> body);

  TransportServerConfig cfg_;
  ServerTransport& transport_;
  fl::StrategyPtr strategy_;
  std::vector<std::size_t> populated_;  ///< ascending populated client ids
  fl::ServerCore core_;

  std::unique_ptr<DecodePool> decode_pool_;  ///< null when decoding inline
  /// Arrivals refused by a full decode queue, in arrival order. Once
  /// anything is parked, every later upload parks behind it so finish
  /// order stays arrival order.
  std::deque<std::unique_ptr<DecodeJob>> parked_uploads_;
  bool draining_decodes_ = false;  ///< reentrancy guard for drain_decodes

  std::map<std::size_t, InFlight> inflight_;  ///< keyed by client id
  /// The latest version's broadcast and its CRC32C, computed by the
  /// version's first dispatch and reused by every later one.
  std::shared_ptr<const wire::Payload> crc_broadcast_;
  std::uint32_t broadcast_crc_ = 0;

  std::unordered_map<SessionId, Session> sessions_;
  std::unordered_map<std::size_t, SessionId> client_session_;
  std::unordered_map<std::size_t, std::uint64_t> issued_token_;
  /// Per-client payload metadata from the first Hello; later handshakes
  /// must agree (a strategy's encoding is session-scoped, not per-message).
  std::unordered_map<std::size_t, std::pair<std::uint8_t, std::uint8_t>> meta_;
  std::unordered_map<SessionId, std::deque<ParkedFrame>> parked_;
  std::uint64_t token_counter_ = 0;
  bool fin_broadcast_ = false;

  TransportServerResult result_;
};

}  // namespace fedbiad::transport
