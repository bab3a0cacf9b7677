// epoll-based non-blocking TCP backend.
//
// One thread, one epoll instance, no blocking syscalls on accepted
// sockets. step() is the event loop slice: it asks the deadline scheduler
// how long it may sleep (EventScheduler::next_time against the monotonic
// clock — the same arithmetic the virtual-clock engine uses), blocks in
// epoll_wait at most that long, handles readiness, then advances the
// scheduler to wall-now so due deadlines fire. Per-connection state is a
// FrameParser for the inbound stream and a SendQueue (frames by reference,
// written with sendmsg) for the outbound one; a peer whose queue would pass
// the send budget sees send() refused (backpressure), a peer that stops
// draining is evicted by the write deadline, and a peer that stops
// producing complete frames is evicted by the read deadline.
//
// TcpClientTransport is the deliberately simpler connecting side: clients
// are single-session processes, so sends poll() for writability until the
// frame is out instead of queueing, and step() is a poll+recv slice.
#pragma once

#include <sys/uio.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>

#include "transport/clock.hpp"
#include "transport/frame.hpp"
#include "transport/transport.hpp"

namespace fedbiad::transport {

/// Frames queued for a peer: each an owned prefix (header and head), the
/// tail by reference (kept alive until its last byte is written) and the
/// trailer. gather() and consume() resume a partial write at any byte.
class SendQueue {
 public:
  /// Queues the frame (type, head||tail); tail_crc as for frame_envelope().
  void push(FrameType type, std::span<const std::uint8_t> head,
            wire::SharedBytes tail, std::uint32_t tail_crc);
  /// Points `iov` at the unwritten bytes, in order, as far as it has room;
  /// returns how many entries it filled.
  [[nodiscard]] std::size_t gather(std::span<iovec> iov) const;
  /// Marks the next `n` unwritten bytes written (n <= bytes()).
  void consume(std::size_t n);
  /// Queued wire bytes not yet written.
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

 private:
  std::deque<wire::SharedBytes> parts_;  ///< none of them empty
  std::size_t written_ = 0;  ///< bytes of the front part already written
  std::size_t bytes_ = 0;
};

class EpollServerTransport final : public ServerTransport {
 public:
  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port — read it back with
  /// port()) and starts listening. Throws CheckError on any socket error.
  EpollServerTransport(TransportLimits limits, std::uint16_t port);
  ~EpollServerTransport() override;

  EpollServerTransport(const EpollServerTransport&) = delete;
  EpollServerTransport& operator=(const EpollServerTransport&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

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
  /// Queues header and head by copy and the tail by reference, with a CRC
  /// over the head only.
  [[nodiscard]] bool send(SessionId session, FrameType type,
                          std::span<const std::uint8_t> head,
                          const wire::SharedBytes& tail,
                          std::uint32_t tail_crc) override;
  [[nodiscard]] std::size_t send_space(SessionId session) const override;
  void close(SessionId session, const std::string& reason) override;
  void step(double max_wait_seconds) override;
  [[nodiscard]] fl::EventScheduler& scheduler() override { return sched_; }
  [[nodiscard]] double now() const override { return sched_.now(); }
  [[nodiscard]] const char* name() const override { return "epoll-tcp"; }

 private:
  struct Conn {
    Conn(int fd, const TransportLimits& limits, fl::EventScheduler& sched);
    int fd;
    FrameParser parser;
    SendQueue out;
    DeadlineTimer read_deadline;
    DeadlineTimer write_deadline;
    bool refused = false;     ///< a send() was refused since the last drain
    bool want_write = false;  ///< EPOLLOUT currently subscribed
  };

  void accept_ready();
  void conn_readable(SessionId session);
  /// Writes the send queue to the socket; parks on EAGAIN. Returns false
  /// when the connection died during the flush.
  bool flush(SessionId session);
  void arm_read_deadline(SessionId session);
  void update_epoll(SessionId session);

  TransportLimits limits_;
  ServerTransport::Handler* handler_ = nullptr;
  std::function<bool()> tick_;
  MonotonicClock clock_;
  fl::EventScheduler sched_;
  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::unordered_map<SessionId, std::unique_ptr<Conn>> conns_;
  SessionId next_session_ = 1;
};

class TcpClientTransport final : public ClientTransport {
 public:
  TcpClientTransport(std::string host, std::uint16_t port,
                     std::size_t max_frame_bytes = TransportLimits{}
                                                       .max_frame_bytes);
  ~TcpClientTransport() override;

  TcpClientTransport(const TcpClientTransport&) = delete;
  TcpClientTransport& operator=(const TcpClientTransport&) = delete;

  void set_handler(ClientTransport::Handler* handler) override {
    handler_ = handler;
  }
  [[nodiscard]] bool connect() override;
  [[nodiscard]] bool connected() const override { return fd_ >= 0; }
  [[nodiscard]] bool send(FrameType type,
                          std::span<const std::uint8_t> body) override {
    return send(type, {}, body, std::nullopt);
  }
  /// Writes header, head, tail and trailer with sendmsg; only the head is
  /// copied (so the 2-argument send copies nothing), and with `tail_crc`
  /// given only the head is read.
  [[nodiscard]] bool send(FrameType type, std::span<const std::uint8_t> head,
                          std::span<const std::uint8_t> tail,
                          std::optional<std::uint32_t> tail_crc) override;
  void step(double max_wait_seconds) override;
  void shutdown() override;

 private:
  void drop(const std::string& reason);

  std::string host_;
  std::uint16_t port_;
  std::size_t max_frame_bytes_;
  ClientTransport::Handler* handler_ = nullptr;
  int fd_ = -1;
  std::unique_ptr<FrameParser> parser_;
};

}  // namespace fedbiad::transport
