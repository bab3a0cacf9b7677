#include "transport/loopback.hpp"

#include <utility>

#include "common/check.hpp"

namespace fedbiad::transport {

LoopbackTransport::Session::Session(LoopbackTransport& net, Endpoint* ep)
    : endpoint(ep),
      from_client(net.limits_.max_frame_bytes),
      from_server(net.limits_.max_frame_bytes),
      capacity(net.limits_.send_buffer_bytes),
      read_deadline(net.sched_, net.limits_.read_deadline_seconds),
      write_deadline(net.sched_, net.limits_.write_deadline_seconds) {}

// --- Endpoint (client side) ---

LoopbackTransport::Endpoint::~Endpoint() {
  handler_ = nullptr;  // no callbacks into a half-destroyed owner
  if (connected()) shutdown();
}

bool LoopbackTransport::Endpoint::connect() {
  if (connected()) return true;
  paused_ = false;
  session_ = net_.open_session(this);
  return true;
}

bool LoopbackTransport::Endpoint::send(FrameType type,
                                       std::span<const std::uint8_t> body) {
  if (!connected()) return false;
  std::vector<std::uint8_t> wire;
  append_frame(wire, type, body);
  net_.client_send(session_, std::move(wire));
  return true;
}

void LoopbackTransport::Endpoint::step(double /*max_wait_seconds*/) {
  net_.drain();
}

void LoopbackTransport::Endpoint::shutdown() {
  if (!connected()) return;
  const SessionId id = session_;
  session_ = 0;
  net_.client_detached(id);  // server observes "peer disconnected"
  if (handler_ != nullptr) handler_->on_close("shutdown");
}

void LoopbackTransport::Endpoint::unpause() {
  paused_ = false;
  if (session_ != 0) {
    auto it = net_.held_.find(session_);
    if (it != net_.held_.end()) {
      // Held deliveries predate anything queued now — put them back in
      // front, preserving their original order.
      net_.queue_.insert(net_.queue_.begin(),
                         std::make_move_iterator(it->second.begin()),
                         std::make_move_iterator(it->second.end()));
      net_.held_.erase(it);
    }
  }
  net_.drain();
}

// --- LoopbackTransport (server side) ---

SessionId LoopbackTransport::open_session(Endpoint* ep) {
  const SessionId id = next_session_++;
  sessions_.emplace(id, std::make_unique<Session>(*this, ep));
  arm_read_deadline(id);  // a silent peer is evicted even pre-handshake
  FEDBIAD_CHECK(handler_ != nullptr, "server handler not set");
  handler_->on_open(id);
  return id;
}

void LoopbackTransport::client_send(SessionId session,
                                    std::vector<std::uint8_t> wire) {
  queue_.push_back(Delivery{true, session, std::move(wire)});
}

void LoopbackTransport::client_detached(SessionId session) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return;
  it->second->endpoint = nullptr;  // skip the client half of close()
  close(session, "peer disconnected");
}

bool LoopbackTransport::send(SessionId session, FrameType type,
                             std::span<const std::uint8_t> head,
                             const wire::SharedBytes& tail,
                             std::uint32_t tail_crc) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return false;
  Session& s = *it->second;
  const std::size_t wire_size = frame_wire_size(head.size() + tail.size());
  // A frame bigger than the whole budget could never drain — that is a
  // programming error (tune send_buffer_bytes), not backpressure.
  FEDBIAD_CHECK(wire_size <= s.capacity,
                "frame exceeds the session send budget");
  if (s.queued_to_client + wire_size > s.capacity) {
    s.refused = true;
    if (!s.write_deadline.armed()) {
      s.write_deadline.arm(
          [this, session] { close(session, "write deadline exceeded"); });
    }
    return false;
  }
  std::vector<std::uint8_t> wire;
  append_frame(wire, type, head, tail, tail_crc);
  s.queued_to_client += wire.size();
  queue_.push_back(Delivery{false, session, std::move(wire)});
  return true;
}

std::size_t LoopbackTransport::send_space(SessionId session) const {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return 0;
  const Session& s = *it->second;
  return s.queued_to_client >= s.capacity ? 0 : s.capacity - s.queued_to_client;
}

void LoopbackTransport::close(SessionId session, const std::string& reason) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return;
  Endpoint* ep = it->second->endpoint;
  it->second->read_deadline.cancel();
  it->second->write_deadline.cancel();
  sessions_.erase(it);
  held_.erase(session);
  if (handler_ != nullptr) handler_->on_close(session, reason);
  if (ep != nullptr) {
    ep->session_ = 0;
    if (ep->handler_ != nullptr) ep->handler_->on_close(reason);
  }
}

void LoopbackTransport::step(double /*max_wait_seconds*/) {
  drain();
  run_ticks();
}

void LoopbackTransport::advance_time(double dt) {
  FEDBIAD_CHECK(dt >= 0.0, "cannot advance time backwards");
  // Offloaded work for frames that already arrived finishes *before* the
  // clock moves: a decode in flight belongs to the past, so a dispatch
  // deadline inside the window must observe its outcome — exactly what the
  // inline (workers=0) path does by decoding at delivery time.
  run_ticks();
  sched_.advance_to(sched_.now() + dt);
  drain();
  run_ticks();
}

void LoopbackTransport::run_ticks() {
  if (!tick_) return;
  // Each round of offloaded work may queue deliveries (acks, dispatches)
  // whose handlers submit more work; alternate until both sides are idle.
  while (tick_()) drain();
}

void LoopbackTransport::set_session_send_capacity(SessionId session,
                                                  std::size_t bytes) {
  auto it = sessions_.find(session);
  FEDBIAD_CHECK(it != sessions_.end(), "unknown session");
  FEDBIAD_CHECK(bytes > 0, "send capacity must be positive");
  it->second->capacity = bytes;
}

void LoopbackTransport::arm_read_deadline(SessionId session) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return;
  it->second->read_deadline.arm(
      [this, session] { close(session, "read deadline exceeded"); });
}

void LoopbackTransport::deliver(Delivery d) {
  auto it = sessions_.find(d.session);
  if (it == sessions_.end()) return;  // closed while in flight
  Session& s = *it->second;

  if (d.to_server) {
    s.from_client.feed(std::move(d.wire));
    Frame frame;
    for (;;) {
      // Handlers may close this session or open others — re-resolve the
      // session each iteration instead of trusting stale pointers.
      auto cur = sessions_.find(d.session);
      if (cur == sessions_.end()) return;
      const auto status = cur->second->from_client.next(frame);
      if (status == FrameParser::Status::kNeedMore) return;
      if (status == FrameParser::Status::kError) {
        close(d.session, "framing error from client: " +
                             cur->second->from_client.error());
        return;
      }
      // A complete frame is what resets the read deadline — partial bytes
      // never do, so a trickling peer still gets evicted.
      arm_read_deadline(d.session);
      FEDBIAD_CHECK(handler_ != nullptr, "server handler not set");
      handler_->on_frame(d.session, std::move(frame));
    }
  }

  Endpoint* ep = s.endpoint;
  if (ep == nullptr) return;  // client already detached; bytes evaporate
  if (ep->paused_) {
    held_[d.session].push_back(std::move(d));
    return;
  }
  // The peer consumed these bytes: free its budget before running its
  // handler, which may trigger further sends into the freed space.
  FEDBIAD_CHECK(s.queued_to_client >= d.wire.size(), "send budget accounting broke");
  s.queued_to_client -= d.wire.size();
  if (s.queued_to_client == 0) s.write_deadline.cancel();
  s.from_server.feed(std::move(d.wire));
  Frame frame;
  for (;;) {
    auto cur = sessions_.find(d.session);
    if (cur == sessions_.end()) return;
    Endpoint* cur_ep = cur->second->endpoint;
    if (cur_ep == nullptr) return;
    const auto status = cur->second->from_server.next(frame);
    if (status == FrameParser::Status::kNeedMore) break;
    if (status == FrameParser::Status::kError) {
      close(d.session, "framing error from server: " +
                           cur->second->from_server.error());
      return;
    }
    if (cur_ep->handler_ != nullptr) cur_ep->handler_->on_frame(std::move(frame));
  }
  auto cur = sessions_.find(d.session);
  if (cur != sessions_.end() && cur->second->refused &&
      cur->second->queued_to_client == 0) {
    cur->second->refused = false;
    if (handler_ != nullptr) handler_->on_drain(d.session);
  }
}

void LoopbackTransport::drain() {
  if (draining_) return;  // handlers calling step() re-enter; outer loop wins
  draining_ = true;
  while (!queue_.empty()) {
    Delivery d = std::move(queue_.front());
    queue_.pop_front();
    deliver(std::move(d));
  }
  draining_ = false;
}

}  // namespace fedbiad::transport
