// Deterministic in-process transport backend.
//
// Frames are serialised to real wire bytes (append_frame, one allocation
// per frame) and parsed back with the same FrameParser the TCP backend
// uses, so framing, size limits and crc verification are exercised
// byte-for-byte — only the socket is missing. Each delivery is one whole
// frame, so the parser hands its bytes to the receiver's FrameBody
// without copying them. Delivery is a single FIFO drained by step(), time is the
// scheduler's virtual clock advanced explicitly with advance_time(), and
// everything runs on the calling thread: a test interleaves client and
// server deterministically and can reproduce any failure ordering.
//
// Chaos hooks:
//   - Endpoint::pause()/unpause(): hold deliveries to a client (a stalled
//     reader), letting its send budget fill → backpressure → write-deadline
//     eviction once advance_time passes the deadline.
//   - set_session_send_capacity(): shrink one session's send budget to force
//     refusals quickly.
//   - Endpoint::shutdown(): abrupt disconnect mid-round.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "transport/clock.hpp"
#include "transport/transport.hpp"

namespace fedbiad::transport {

class LoopbackTransport final : public ServerTransport {
 public:
  class Endpoint final : public ClientTransport {
   public:
    explicit Endpoint(LoopbackTransport& net, std::uint64_t label = 0)
        : net_(net), label_(label) {}
    ~Endpoint() override;

    void set_handler(ClientTransport::Handler* handler) override {
      handler_ = handler;
    }
    [[nodiscard]] bool connect() override;
    [[nodiscard]] bool connected() const override { return session_ != 0; }
    [[nodiscard]] bool send(FrameType type,
                            std::span<const std::uint8_t> body) override;
    void step(double max_wait_seconds) override;
    void shutdown() override;

    /// Chaos hook: stop consuming deliveries (the peer's send budget keeps
    /// filling). unpause() re-delivers everything held, in order.
    void pause() { paused_ = true; }
    void unpause();

    [[nodiscard]] SessionId session() const noexcept { return session_; }

   private:
    friend class LoopbackTransport;
    LoopbackTransport& net_;
    std::uint64_t label_;  ///< diagnostic only
    ClientTransport::Handler* handler_ = nullptr;
    SessionId session_ = 0;
    bool paused_ = false;
  };

  explicit LoopbackTransport(TransportLimits limits) : limits_(limits) {}

  // ServerTransport
  void set_handler(ServerTransport::Handler* handler) override {
    handler_ = handler;
  }
  void set_tick_hook(std::function<bool()> hook) override {
    tick_ = std::move(hook);
  }
  [[nodiscard]] bool send(SessionId session, FrameType type,
                          std::span<const std::uint8_t> body) override {
    return send(session, type, body, {}, 0);
  }
  [[nodiscard]] bool send(SessionId session, FrameType type,
                          std::span<const std::uint8_t> head,
                          const wire::SharedBytes& tail,
                          std::uint32_t tail_crc) override;
  [[nodiscard]] std::size_t send_space(SessionId session) const override;
  void close(SessionId session, const std::string& reason) override;
  void step(double max_wait_seconds) override;
  [[nodiscard]] fl::EventScheduler& scheduler() override { return sched_; }
  [[nodiscard]] double now() const override { return sched_.now(); }
  [[nodiscard]] const char* name() const override { return "loopback"; }

  /// Advances virtual time, firing every deadline due in the window, then
  /// delivers whatever those firings queued.
  void advance_time(double dt);

  /// Chaos hook: override one session's send budget.
  void set_session_send_capacity(SessionId session, std::size_t bytes);

 private:
  struct Delivery {
    bool to_server = false;
    SessionId session = 0;
    std::vector<std::uint8_t> wire;
  };

  struct Session {
    Session(LoopbackTransport& net, Endpoint* ep);
    Endpoint* endpoint;       ///< null once the client side detached
    FrameParser from_client;  ///< reassembles the client→server stream
    FrameParser from_server;  ///< reassembles the server→client stream
    std::size_t capacity;     ///< server→client send budget
    std::size_t queued_to_client = 0;
    bool refused = false;  ///< a send() was refused since the last drain
    DeadlineTimer read_deadline;
    DeadlineTimer write_deadline;
  };

  SessionId open_session(Endpoint* ep);
  void client_send(SessionId session, std::vector<std::uint8_t> wire);
  void client_detached(SessionId session);
  void deliver(Delivery d);
  void drain();
  void run_ticks();  ///< tick hook until idle, draining what each tick queued
  void arm_read_deadline(SessionId session);

  TransportLimits limits_;
  ServerTransport::Handler* handler_ = nullptr;
  std::function<bool()> tick_;
  fl::EventScheduler sched_;
  std::deque<Delivery> queue_;
  std::unordered_map<SessionId, std::unique_ptr<Session>> sessions_;
  std::unordered_map<SessionId, std::deque<Delivery>> held_;  ///< paused
  SessionId next_session_ = 1;
  bool draining_ = false;
};

}  // namespace fedbiad::transport
