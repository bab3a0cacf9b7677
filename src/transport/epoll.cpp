#include "transport/epoll.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "wire/crc32c.hpp"

namespace fedbiad::transport {
namespace {

// epoll data.u64 value reserved for the listening socket.
constexpr std::uint64_t kListenerTag = 0;

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

constexpr std::size_t kMaxIov = 64;  // per sendmsg; a Dispatch takes 3

ssize_t send_iov(int fd, std::span<iovec> iov, std::size_t count) {
  msghdr msg{};
  msg.msg_iov = iov.data();
  msg.msg_iovlen = count;
  return ::sendmsg(fd, &msg, MSG_NOSIGNAL);
}

}  // namespace

void SendQueue::push(FrameType type, std::span<const std::uint8_t> head,
                     wire::SharedBytes tail, std::uint32_t tail_crc) {
  const FrameEnvelope env = frame_envelope(type, head, tail.size(), tail_crc);
  bytes_ += frame_wire_size(head.size() + tail.size());
  std::vector<std::uint8_t> prefix(env.header.size() + head.size());
  std::copy(head.begin(), head.end(),
            std::copy(env.header.begin(), env.header.end(), prefix.begin()));
  parts_.emplace_back(std::move(prefix));
  if (!tail.empty()) parts_.push_back(std::move(tail));
  parts_.emplace_back(
      std::vector<std::uint8_t>(env.trailer.begin(), env.trailer.end()));
}

std::size_t SendQueue::gather(std::span<iovec> iov) const {
  std::size_t used = 0;
  for (auto part = parts_.begin(); part != parts_.end() && used < iov.size();
       ++part) {
    const std::size_t skip = used == 0 ? written_ : 0;
    // sendmsg only reads through iov_base.
    iov[used++] = {const_cast<std::uint8_t*>(part->data() + skip),
                   part->size() - skip};
  }
  return used;
}

void SendQueue::consume(std::size_t n) {
  FEDBIAD_CHECK(n <= bytes_, "send queue consume past contents");
  bytes_ -= n;
  written_ += n;
  while (!parts_.empty() && written_ >= parts_.front().size()) {
    written_ -= parts_.front().size();
    parts_.pop_front();
  }
}

// --- EpollServerTransport ---

EpollServerTransport::Conn::Conn(int conn_fd, const TransportLimits& limits,
                                 fl::EventScheduler& sched)
    : fd(conn_fd),
      parser(limits.max_frame_bytes),
      read_deadline(sched, limits.read_deadline_seconds),
      write_deadline(sched, limits.write_deadline_seconds) {}

EpollServerTransport::EpollServerTransport(TransportLimits limits,
                                           std::uint16_t port)
    : limits_(limits) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  FEDBIAD_CHECK(epoll_fd_ >= 0, errno_text("epoll_create1"));
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  FEDBIAD_CHECK(listen_fd_ >= 0, errno_text("socket"));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  FEDBIAD_CHECK(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) == 0,
                errno_text("bind"));
  FEDBIAD_CHECK(::listen(listen_fd_, 64) == 0, errno_text("listen"));
  socklen_t len = sizeof(addr);
  FEDBIAD_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                              &len) == 0,
                errno_text("getsockname"));
  port_ = ntohs(addr.sin_port);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  FEDBIAD_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0,
                errno_text("epoll_ctl add listener"));
}

EpollServerTransport::~EpollServerTransport() {
  for (auto& [id, conn] : conns_) {
    conn->read_deadline.cancel();
    conn->write_deadline.cancel();
    ::close(conn->fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EpollServerTransport::arm_read_deadline(SessionId session) {
  auto it = conns_.find(session);
  if (it == conns_.end()) return;
  it->second->read_deadline.arm(
      [this, session] { close(session, "read deadline exceeded"); });
}

void EpollServerTransport::update_epoll(SessionId session) {
  auto it = conns_.find(session);
  if (it == conns_.end()) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (it->second->want_write ? EPOLLOUT : 0U);
  ev.data.u64 = session;
  FEDBIAD_CHECK(
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, it->second->fd, &ev) == 0,
      errno_text("epoll_ctl mod"));
}

void EpollServerTransport::accept_ready() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the listener stays up
    }
    set_nodelay(fd);
    const SessionId id = next_session_++;
    conns_.emplace(id, std::make_unique<Conn>(fd, limits_, sched_));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      conns_.erase(id);
      continue;
    }
    // The handshake itself is under deadline: a connection that never
    // produces a complete Hello is evicted like any other silent peer.
    arm_read_deadline(id);
    if (handler_ != nullptr) handler_->on_open(id);
  }
}

void EpollServerTransport::conn_readable(SessionId session) {
  for (;;) {
    auto it = conns_.find(session);
    if (it == conns_.end()) return;
    // Bytes land in the parser's storage, which the frame bodies slice.
    const std::span<std::uint8_t> room = it->second->parser.prepare();
    const ssize_t n = ::recv(it->second->fd, room.data(), room.size(), 0);
    if (n == 0) {
      close(session, "peer disconnected");
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close(session, errno_text("recv"));
      return;
    }
    it->second->parser.commit(static_cast<std::size_t>(n));
    Frame frame;
    for (;;) {
      // on_frame may close this or any other session — re-resolve.
      auto cur = conns_.find(session);
      if (cur == conns_.end()) return;
      const auto status = cur->second->parser.next(frame);
      if (status == FrameParser::Status::kNeedMore) break;
      if (status == FrameParser::Status::kError) {
        close(session,
              "framing error from peer: " + cur->second->parser.error());
        return;
      }
      // Complete frames reset the read deadline; trickled bytes do not.
      arm_read_deadline(session);
      if (handler_ != nullptr) handler_->on_frame(session, std::move(frame));
    }
  }
}

bool EpollServerTransport::flush(SessionId session) {
  auto it = conns_.find(session);
  if (it == conns_.end()) return false;
  Conn& c = *it->second;
  std::array<iovec, kMaxIov> iov{};
  while (c.out.bytes() != 0) {
    const ssize_t n = send_iov(c.fd, iov, c.out.gather(iov));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!c.want_write) {
          c.want_write = true;
          update_epoll(session);
        }
        // Armed once per park and deliberately NOT re-armed on partial
        // progress — the total drain time is bounded, so a peer ack'ing a
        // byte per second cannot hold the queue hostage.
        if (!c.write_deadline.armed()) {
          c.write_deadline.arm(
              [this, session] { close(session, "write deadline exceeded"); });
        }
        return true;
      }
      close(session, errno_text("send"));
      return false;
    }
    c.out.consume(static_cast<std::size_t>(n));
  }
  c.write_deadline.cancel();
  if (c.want_write) {
    c.want_write = false;
    update_epoll(session);
  }
  if (c.refused) {
    c.refused = false;
    if (handler_ != nullptr) handler_->on_drain(session);
  }
  return conns_.count(session) != 0;
}

bool EpollServerTransport::send(SessionId session, FrameType type,
                                std::span<const std::uint8_t> head,
                                const wire::SharedBytes& tail,
                                std::uint32_t tail_crc) {
  auto it = conns_.find(session);
  if (it == conns_.end()) return false;
  Conn& c = *it->second;
  const std::size_t wire_size = frame_wire_size(head.size() + tail.size());
  FEDBIAD_CHECK(wire_size <= limits_.send_buffer_bytes,
                "frame exceeds the session send budget");
  // Refuse before framing: a full budget costs no copy and no CRC, however
  // often the caller retries.
  if (wire_size > send_space(session)) {
    c.refused = true;  // backpressure: on_drain fires once the queue empties
    return false;
  }
  c.out.push(type, head, tail, tail_crc);
  return flush(session);
}

std::size_t EpollServerTransport::send_space(SessionId session) const {
  auto it = conns_.find(session);
  if (it == conns_.end()) return 0;
  return limits_.send_buffer_bytes - it->second->out.bytes();
}

void EpollServerTransport::close(SessionId session, const std::string& reason) {
  auto it = conns_.find(session);
  if (it == conns_.end()) return;
  it->second->read_deadline.cancel();
  it->second->write_deadline.cancel();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  ::close(it->second->fd);
  conns_.erase(it);
  if (handler_ != nullptr) handler_->on_close(session, reason);
}

void EpollServerTransport::step(double max_wait_seconds) {
  FEDBIAD_CHECK(max_wait_seconds >= 0.0, "negative wait");
  // Sleep no longer than the earliest scheduled deadline allows.
  double wait = max_wait_seconds;
  const double next = sched_.next_time();
  if (std::isfinite(next)) {
    wait = std::min(wait, std::max(0.0, next - clock_.now()));
  }
  const int timeout_ms =
      static_cast<int>(std::min(wait * 1000.0, 60'000.0));
  epoll_event events[64];
  const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
  for (int i = 0; i < n; ++i) {
    const std::uint64_t tag = events[i].data.u64;
    if (tag == kListenerTag) {
      accept_ready();
      continue;
    }
    const SessionId session = tag;
    if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
      close(session, "socket error");
      continue;
    }
    if ((events[i].events & EPOLLIN) != 0) conn_readable(session);
    if ((events[i].events & EPOLLOUT) != 0) flush(session);
  }
  // Harvest offloaded work (decode-on-arrival results) before deadlines:
  // frames delivered this slice must finish ahead of timers firing at
  // later wall times, matching the inline decode-at-delivery ordering.
  if (tick_) {
    while (tick_()) {
    }
  }
  // Fire every deadline now due — the same schedule/cancel/fire path the
  // virtual clock uses, just driven by wall time.
  sched_.advance_to(std::max(sched_.now(), clock_.now()));
}

// --- TcpClientTransport ---

TcpClientTransport::TcpClientTransport(std::string host, std::uint16_t port,
                                       std::size_t max_frame_bytes)
    : host_(std::move(host)), port_(port), max_frame_bytes_(max_frame_bytes) {}

TcpClientTransport::~TcpClientTransport() {
  handler_ = nullptr;
  if (fd_ >= 0) ::close(fd_);
}

bool TcpClientTransport::connect() {
  if (connected()) return true;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return false;
  }
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return false;
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    rc = ::poll(&pfd, 1, 1000);
    int err = 0;
    socklen_t len = sizeof(err);
    if (rc <= 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return false;
    }
  }
  set_nodelay(fd);
  fd_ = fd;
  parser_ = std::make_unique<FrameParser>(max_frame_bytes_);
  return true;
}

bool TcpClientTransport::send(FrameType type,
                              std::span<const std::uint8_t> head,
                              std::span<const std::uint8_t> tail) {
  if (!connected()) return false;
  // Borrows the tail (no owner): the queue dies before this returns.
  SendQueue out;
  out.push(type, head, wire::SharedBytes({}, tail.data(), tail.size()),
           wire::crc32c(tail));
  std::array<iovec, 3> iov{};
  int stalled_ms = 0;
  while (out.bytes() != 0) {
    const ssize_t n = send_iov(fd_, iov, out.gather(iov));
    if (n > 0) {
      out.consume(static_cast<std::size_t>(n));
      stalled_ms = 0;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Clients are single-session: waiting here (bounded) is simpler and
      // safer than queueing. 30s of zero progress means a dead server.
      if (stalled_ms >= 30'000) {
        drop("send stalled");
        return false;
      }
      pollfd pfd{fd_, POLLOUT, 0};
      ::poll(&pfd, 1, 100);
      stalled_ms += 100;
      continue;
    }
    drop(errno_text("send"));
    return false;
  }
  return true;
}

void TcpClientTransport::step(double max_wait_seconds) {
  if (!connected()) return;
  const int timeout_ms = static_cast<int>(
      std::min(std::max(max_wait_seconds, 0.0) * 1000.0, 60'000.0));
  pollfd pfd{fd_, POLLIN, 0};
  const int rc = ::poll(&pfd, 1, timeout_ms);
  if (rc <= 0) return;
  for (;;) {
    const std::span<std::uint8_t> room = parser_->prepare();
    const ssize_t n = ::recv(fd_, room.data(), room.size(), 0);
    if (n == 0) {
      drop("peer disconnected");
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      drop(errno_text("recv"));
      return;
    }
    parser_->commit(static_cast<std::size_t>(n));
    Frame frame;
    for (;;) {
      if (!connected()) return;  // a handler may have shut us down
      const auto status = parser_->next(frame);
      if (status == FrameParser::Status::kNeedMore) break;
      if (status == FrameParser::Status::kError) {
        drop("framing error from server: " + parser_->error());
        return;
      }
      if (handler_ != nullptr) handler_->on_frame(std::move(frame));
    }
  }
}

void TcpClientTransport::shutdown() {
  if (!connected()) return;
  drop("shutdown");
}

void TcpClientTransport::drop(const std::string& reason) {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  parser_.reset();
  if (handler_ != nullptr) handler_->on_close(reason);
}

}  // namespace fedbiad::transport
