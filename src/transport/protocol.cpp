#include "transport/protocol.hpp"

#include <utility>

#include "wire/crc32c.hpp"
#include "wire/reader.hpp"
#include "wire/writer.hpp"

// GCC 12's -Warray-bounds misfires on the chain of small vector::resize
// calls inlined from wire::Writer::fixed into the encoders below: it
// reasons about the pre-resize capacity after the allocation branch was
// folded. The writes are bounds-established by resize itself.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Warray-bounds"
#endif

namespace fedbiad::transport {
namespace {

// A byte run ends the body, length-prefixed with a varint (by the *_head
// encoders) so a corrupt length cannot swallow the rest of the body: the
// Reader bounds-check and expect_done() catch it. Returns a slice of body.
wire::SharedBytes get_bytes(wire::Reader& r, const wire::SharedBytes& body) {
  const std::uint64_t n = r.varint();
  if (n > r.remaining()) throw wire::DecodeError("byte run truncated");
  const auto span = r.bytes(static_cast<std::size_t>(n));
  return body.slice(static_cast<std::size_t>(span.data() - body.data()),
                    span.size());
}

void put_string(wire::Writer& w, const std::string& s) {
  w.varint(s.size());
  w.bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

std::string get_string(wire::Reader& r) {
  const std::uint64_t n = r.varint();
  if (n > r.remaining()) throw wire::DecodeError("string truncated");
  const auto span = r.bytes(static_cast<std::size_t>(n));
  return {reinterpret_cast<const char*>(span.data()), span.size()};
}

}  // namespace

std::vector<std::uint8_t> encode(const HelloMsg& m) {
  wire::Writer w;
  w.u64(m.client_id);
  w.u64(m.session_token);
  w.u8(m.payload_kind);
  w.u8(m.payload_aux);
  return std::move(w).take();
}

HelloMsg decode_hello(std::span<const std::uint8_t> body) {
  wire::Reader r(body);
  HelloMsg m;
  m.client_id = r.u64();
  m.session_token = r.u64();
  m.payload_kind = r.u8();
  m.payload_aux = r.u8();
  r.expect_done();
  return m;
}

std::vector<std::uint8_t> encode(const WelcomeMsg& m) {
  wire::Writer w;
  w.u64(m.session_token);
  w.u64(m.version);
  w.u8(m.resumed);
  return std::move(w).take();
}

WelcomeMsg decode_welcome(std::span<const std::uint8_t> body) {
  wire::Reader r(body);
  WelcomeMsg m;
  m.session_token = r.u64();
  m.version = r.u64();
  m.resumed = r.u8();
  r.expect_done();
  return m;
}

std::vector<std::uint8_t> encode_dispatch_head(const DispatchMsg& m,
                                               std::size_t broadcast_bytes) {
  wire::Writer w;
  w.u64(m.dispatch_index);
  w.u64(m.round);
  w.u64(m.slot);
  w.u64(m.model_version);
  w.u64(m.rng_stream);
  w.varint(broadcast_bytes);  // the byte run's length prefix
  return std::move(w).take();
}

std::vector<std::uint8_t> encode(const DispatchMsg& m) {
  std::vector<std::uint8_t> body = encode_dispatch_head(m, m.broadcast.size());
  body.insert(body.end(), m.broadcast.begin(), m.broadcast.end());
  return body;
}

DispatchMsg decode_dispatch(const wire::SharedBytes& body) {
  wire::Reader r(body);
  DispatchMsg m;
  m.dispatch_index = r.u64();
  m.round = r.u64();
  m.slot = r.u64();
  m.model_version = r.u64();
  m.rng_stream = r.u64();
  m.broadcast = get_bytes(r, body);
  r.expect_done();
  return m;
}

std::vector<std::uint8_t> encode_upload_head(const UploadMsg& m,
                                             std::size_t payload_bytes) {
  wire::Writer w;
  w.u64(m.dispatch_index);
  w.u64(m.samples);
  w.u8(m.is_update);
  w.f64(m.train_seconds);
  w.f64(m.mean_loss);
  w.f64(m.last_loss);
  w.varint(payload_bytes);  // the byte run's length prefix
  return std::move(w).take();
}

std::vector<std::uint8_t> encode(const UploadMsg& m) {
  std::vector<std::uint8_t> body = encode_upload_head(m, m.payload.size());
  body.insert(body.end(), m.payload.begin(), m.payload.end());
  return body;
}

UploadMsg decode_upload(const wire::SharedBytes& body) {
  wire::Reader r(body);
  UploadMsg m;
  m.dispatch_index = r.u64();
  m.samples = r.u64();
  m.is_update = r.u8();
  m.train_seconds = r.f64();
  m.mean_loss = r.f64();
  m.last_loss = r.f64();
  m.payload = get_bytes(r, body);
  r.expect_done();
  return m;
}

UploadMsg decode_upload(const Frame& frame) {
  UploadMsg m = decode_upload(frame.body);
  if (frame.crc) {
    // crc(type||body) = crc(type||head)·x^(8|payload|) ^ crc(payload).
    const auto type = static_cast<std::uint8_t>(frame.type);
    const auto head = static_cast<std::size_t>(m.payload.data() -
                                               frame.body.data());
    std::uint32_t crc = wire::crc32c({&type, 1});
    crc = wire::crc32c(std::span<const std::uint8_t>(frame.body).first(head),
                       crc);
    m.payload_crc =
        *frame.crc ^ wire::crc32c_combine(crc, 0, m.payload.size());
  }
  return m;
}

std::vector<std::uint8_t> encode(const UploadAckMsg& m) {
  wire::Writer w;
  w.u64(m.dispatch_index);
  return std::move(w).take();
}

UploadAckMsg decode_upload_ack(std::span<const std::uint8_t> body) {
  wire::Reader r(body);
  UploadAckMsg m;
  m.dispatch_index = r.u64();
  r.expect_done();
  return m;
}

std::vector<std::uint8_t> encode(const RejectMsg& m) {
  wire::Writer w;
  w.u64(m.dispatch_index);
  w.u8(m.retry);
  put_string(w, m.reason);
  return std::move(w).take();
}

RejectMsg decode_reject(std::span<const std::uint8_t> body) {
  wire::Reader r(body);
  RejectMsg m;
  m.dispatch_index = r.u64();
  m.retry = r.u8();
  m.reason = get_string(r);
  r.expect_done();
  return m;
}

std::vector<std::uint8_t> encode(const FinMsg& m) {
  wire::Writer w;
  w.u64(m.rounds);
  return std::move(w).take();
}

FinMsg decode_fin(std::span<const std::uint8_t> body) {
  wire::Reader r(body);
  FinMsg m;
  m.rounds = r.u64();
  r.expect_done();
  return m;
}

}  // namespace fedbiad::transport
