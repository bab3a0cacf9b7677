// Transport abstraction the FL server/client runtimes run behind.
//
// Two backends implement it:
//
//   backend    | clock            | delivery           | used by
//   -----------+------------------+--------------------+----------------------
//   loopback   | virtual          | in-process FIFO    | tests, deterministic
//              | (advance_time)   | (single-threaded)  | chaos/parity runs
//   epoll TCP  | monotonic wall   | non-blocking       | tools/transport_*,
//              | (advance_to)     | sockets, epoll     | examples/tcp_round
//
// Both speak the same frames (frame.hpp), the same protocol messages
// (protocol.hpp), and the same deadline machinery (clock.hpp over
// fl::EventScheduler) — the runtimes (server_runtime/client_runtime)
// cannot tell them apart, which is the whole point: Strategy code and the
// server core (fl/server_core.hpp) run unchanged on both.
//
// Threading contract: everything here is single-threaded. Handlers fire
// from inside step() (or, for the loopback, from inside calls that
// synchronously deliver, like connect()). Implementations must tolerate
// handlers calling back into the transport (send/close) reentrantly.
// The one concession to worker threads is the tick hook (set_tick_hook):
// a handler that offloads work — the server runtime's decode-on-arrival
// pool — installs a callback the transport invokes *on the transport
// thread* at its scheduler tick, after frame delivery and before
// later-time deadlines fire. The hook is where offloaded results rejoin
// the single-threaded world; the transport itself never grows threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "fl/scheduler.hpp"
#include "transport/frame.hpp"

namespace fedbiad::transport {

/// Server-side connection handle. Never reused within one transport; 0 is
/// never a valid session.
using SessionId = std::uint64_t;

struct TransportLimits {
  /// Hard cap on one frame's wire size; larger announcements are rejected
  /// at the length prefix, before any body byte is buffered.
  std::size_t max_frame_bytes = 16u << 20;
  /// Per-connection budget of queued, unwritten wire bytes (nothing is
  /// preallocated). A frame bigger than the budget can never be sent and is
  /// a programming error; one that does not fit right now is backpressure.
  std::size_t send_buffer_bytes = 4u << 20;
  /// Evict a peer that hasn't delivered a *complete* frame for this long.
  /// Trickling bytes does not reset it — that is the slowloris defence.
  double read_deadline_seconds = 30.0;
  /// Evict a peer whose send queue hasn't fully drained this long after the
  /// first parked write. Deliberately not reset on partial progress, so a
  /// peer ack'ing one byte per second cannot hold memory forever.
  double write_deadline_seconds = 30.0;
};

/// Listening side. Accepts connections, parses their byte streams into
/// frames, enforces deadlines and backpressure, and reports everything
/// through the Handler.
class ServerTransport {
 public:
  struct Handler {
    virtual ~Handler() = default;
    /// New connection accepted (no bytes exchanged yet).
    virtual void on_open(SessionId session) = 0;
    /// One complete, crc-verified frame arrived.
    virtual void on_frame(SessionId session, Frame&& frame) = 0;
    /// Connection is gone (peer hung up, deadline fired, framing error, or
    /// server-initiated close). Fired exactly once per on_open; the
    /// session id is dead afterwards.
    virtual void on_close(SessionId session, const std::string& reason) = 0;
    /// A previously refused send (budget full) would now fit: the queue
    /// fully drained after a send() returned false on this session.
    virtual void on_drain(SessionId session) = 0;
  };

  virtual ~ServerTransport() = default;

  /// Must be set before any traffic; the handler must outlive the
  /// transport.
  virtual void set_handler(Handler* handler) = 0;

  /// Installs the scheduler-tick hook (empty to clear). The transport
  /// calls it on its own thread inside step() — after delivering frames,
  /// before firing deadlines scheduled at later times — and keeps calling
  /// while it returns true ("did work": a drain may unpark further frames
  /// or submissions that need another pass). The handler uses this to
  /// harvest decode-on-arrival results; see server_runtime.
  virtual void set_tick_hook(std::function<bool()> hook) = 0;

  /// Queues one frame for the peer. Returns false when the send budget
  /// cannot hold it right now — nothing is queued, and on_drain() fires
  /// once the queue has fully drained. Callers park the message and retry.
  [[nodiscard]] virtual bool send(SessionId session, FrameType type,
                                  std::span<const std::uint8_t> body) = 0;

  /// Same, for the frame whose body is head||tail, with `tail_crc` ==
  /// wire::crc32c(tail) computed by the caller — the server sends each
  /// Dispatch as its own few header bytes plus the model broadcast it
  /// shares with every client of that version, checksummed once. Bytes on
  /// the wire are exactly those of send(session, type, head||tail). The
  /// epoll backend holds the tail by reference until its last byte is
  /// written, so the caller need not keep it alive. This default joins head
  /// and tail and calls the 3-argument send, so decorators that only
  /// forward that one (a tracing wrapper, say) keep working unchanged.
  [[nodiscard]] virtual bool send(SessionId session, FrameType type,
                                  std::span<const std::uint8_t> head,
                                  const wire::SharedBytes& tail,
                                  std::uint32_t /*tail_crc*/) {
    std::vector<std::uint8_t> body(head.begin(), head.end());
    body.insert(body.end(), tail.begin(), tail.end());
    return send(session, type, body);
  }

  /// Bytes left in the session's send budget (0 for unknown sessions).
  [[nodiscard]] virtual std::size_t send_space(SessionId session) const = 0;

  /// Closes a connection; on_close(session, reason) fires.
  virtual void close(SessionId session, const std::string& reason) = 0;

  /// Runs one slice of the event loop: waits up to max_wait_seconds for
  /// I/O (the TCP backend caps the wait by the scheduler's next deadline;
  /// the loopback delivers whatever is queued and ignores the wait),
  /// delivers handler callbacks, and fires due deadline events.
  virtual void step(double max_wait_seconds) = 0;

  /// The scheduler all deadline math runs on. The server runtime arms its
  /// dispatch deadlines here so one clock orders every timeout.
  [[nodiscard]] virtual fl::EventScheduler& scheduler() = 0;

  /// Current time on that scheduler's clock (virtual or wall).
  [[nodiscard]] virtual double now() const = 0;

  [[nodiscard]] virtual const char* name() const = 0;
};

/// Connecting side. One connection at a time; reconnect by calling
/// connect() again after on_close.
class ClientTransport {
 public:
  struct Handler {
    virtual ~Handler() = default;
    virtual void on_frame(Frame&& frame) = 0;
    virtual void on_close(const std::string& reason) = 0;
  };

  virtual ~ClientTransport() = default;

  virtual void set_handler(Handler* handler) = 0;

  /// Attempts to (re)connect. Returns false when the server is not
  /// reachable right now (caller paces retries).
  [[nodiscard]] virtual bool connect() = 0;

  [[nodiscard]] virtual bool connected() const = 0;

  /// Queues one frame. Returns false when not connected or the frame
  /// cannot be buffered.
  [[nodiscard]] virtual bool send(FrameType type,
                                  std::span<const std::uint8_t> body) = 0;

  /// Same, for the body head||tail (an Upload's fields, then its sealed
  /// payload): the same wire bytes. The TCP client writes the parts without
  /// joining them; this default joins them.
  [[nodiscard]] virtual bool send(FrameType type,
                                  std::span<const std::uint8_t> head,
                                  std::span<const std::uint8_t> tail) {
    std::vector<std::uint8_t> body(head.begin(), head.end());
    body.insert(body.end(), tail.begin(), tail.end());
    return send(type, body);
  }

  /// Runs one slice of the client's loop (receive + deliver callbacks).
  virtual void step(double max_wait_seconds) = 0;

  /// Abruptly drops the connection (no Fin, no flush) — the test hook for
  /// "client process died mid-round". on_close fires.
  virtual void shutdown() = 0;
};

}  // namespace fedbiad::transport
