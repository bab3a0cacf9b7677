#include "transport/frame.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.hpp"
#include "wire/crc32c.hpp"

namespace fedbiad::transport {
namespace {

constexpr std::size_t kLenBytes = 4;
constexpr std::size_t kCrcBytes = 4;
// len counts type + body + crc, so the smallest legal value is 5.
constexpr std::uint32_t kMinLen = 1 + kCrcBytes;
// prepare()'s room while no frame length is buffered: enough for a burst of
// control frames, small enough that the part of a large frame read into it
// costs little to move into that frame's own storage.
constexpr std::size_t kReadRoomBytes = 16 * 1024;

std::uint32_t load_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void store_u32le(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

bool known_type(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(FrameType::kHello) &&
         raw <= static_cast<std::uint8_t>(FrameType::kFin);
}

}  // namespace

const char* to_string(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kWelcome: return "welcome";
    case FrameType::kDispatch: return "dispatch";
    case FrameType::kUpload: return "upload";
    case FrameType::kUploadAck: return "upload-ack";
    case FrameType::kReject: return "reject";
    case FrameType::kFin: return "fin";
  }
  return "unknown";
}

FrameEnvelope frame_envelope(FrameType type,
                             std::span<const std::uint8_t> head,
                             std::size_t tail_bytes, std::uint32_t tail_crc) {
  FrameEnvelope env{};
  store_u32le(env.header.data(), static_cast<std::uint32_t>(
                                     1 + head.size() + tail_bytes + kCrcBytes));
  env.header[kLenBytes] = static_cast<std::uint8_t>(type);
  std::uint32_t crc = wire::crc32c(
      std::span<const std::uint8_t>(env.header).subspan(kLenBytes));
  crc = wire::crc32c(head, crc);
  // An empty tail's CRC is 0 and combining it changes nothing.
  if (tail_bytes != 0) crc = wire::crc32c_combine(crc, tail_crc, tail_bytes);
  store_u32le(env.trailer.data(), crc);
  return env;
}

void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::span<const std::uint8_t> head,
                  std::span<const std::uint8_t> tail, std::uint32_t tail_crc) {
  const FrameEnvelope env = frame_envelope(type, head, tail.size(), tail_crc);
  const std::size_t wire = frame_wire_size(head.size() + tail.size());
  // One allocation at most, keeping geometric growth for callers that
  // append many frames to one stream.
  if (out.capacity() - out.size() < wire) {
    out.reserve(std::max(out.size() + wire, 2 * out.size()));
  }
  out.insert(out.end(), env.header.begin(), env.header.end());
  out.insert(out.end(), head.begin(), head.end());
  out.insert(out.end(), tail.begin(), tail.end());
  out.insert(out.end(), env.trailer.begin(), env.trailer.end());
}

void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::span<const std::uint8_t> body) {
  append_frame(out, type, body, {}, 0);
}

FrameParser::FrameParser(std::size_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes) {
  FEDBIAD_CHECK(max_frame_bytes_ >= kFrameOverheadBytes,
                "max_frame_bytes cannot fit even an empty frame");
}

void FrameParser::feed(std::span<const std::uint8_t> data) {
  if (failed() || data.empty()) return;  // a dead stream doesn't grow memory
  if (capacity_ - end_ < data.size()) {
    relocate(std::max(buffered_bytes() + data.size(), announced_frame_bytes()));
  }
  std::memcpy(storage_ + end_, data.data(), data.size());
  end_ += data.size();
}

void FrameParser::feed(std::vector<std::uint8_t>&& data) {
  if (failed() || data.empty()) return;
  if (buffered_bytes() != 0) {
    feed(std::span<const std::uint8_t>(data));
    return;
  }
  auto adopted = std::make_shared<std::vector<std::uint8_t>>(std::move(data));
  storage_ = adopted->data();
  capacity_ = end_ = adopted->size();
  begin_ = 0;
  owner_ = std::move(adopted);
}

std::span<std::uint8_t> FrameParser::prepare() {
  FEDBIAD_CHECK(!failed(), "prepare() on a failed stream");
  std::size_t want = announced_frame_bytes();
  // Length unknown, or its frame already complete: room for one read.
  if (want <= buffered_bytes()) want = buffered_bytes() + kReadRoomBytes;
  if (capacity_ - begin_ < want) relocate(want);
  return {storage_ + end_, capacity_ - end_};
}

void FrameParser::commit(std::size_t n) {
  FEDBIAD_CHECK(n <= capacity_ - end_, "commit() beyond the prepared room");
  end_ += n;
}

FrameParser::Status FrameParser::next(Frame& out) {
  if (failed()) return Status::kError;
  const std::size_t avail = buffered_bytes();
  if (avail < kLenBytes) return Status::kNeedMore;
  const std::uint8_t* p = storage_ + begin_;
  const std::uint32_t len = load_u32le(p);
  // Bounds come first: an announced length is judged before any of its
  // bytes are awaited, so an attacker cannot make us buffer toward an
  // absurd frame.
  if (len < kMinLen) {
    fail("frame length " + std::to_string(len) + " below minimum " +
         std::to_string(kMinLen));
    return Status::kError;
  }
  const std::size_t frame_bytes = kLenBytes + static_cast<std::size_t>(len);
  if (frame_bytes > max_frame_bytes_) {
    fail("frame of " + std::to_string(frame_bytes) +
         " bytes exceeds limit of " + std::to_string(max_frame_bytes_));
    return Status::kError;
  }
  if (avail < frame_bytes) return Status::kNeedMore;

  const std::uint8_t* frame = p + kLenBytes;
  const std::size_t sealed = len - kCrcBytes;  // type + body
  const std::uint32_t want = load_u32le(frame + sealed);
  const std::uint32_t got =
      wire::crc32c(std::span<const std::uint8_t>(frame, sealed));
  if (want != got) {
    fail("frame crc mismatch");
    return Status::kError;
  }
  if (!known_type(frame[0])) {
    fail("unknown frame type " + std::to_string(frame[0]));
    return Status::kError;
  }
  out.type = static_cast<FrameType>(frame[0]);
  const std::size_t body_bytes = sealed - 1;
  out.body = FrameBody(owner_, frame + 1, body_bytes);
  begin_ += frame_bytes;
  const std::size_t rest = buffered_bytes();
  if (rest == 0) {
    release_storage();
  } else if (rest <= body_bytes) {
    // Copying the bytes behind the frame costs no more than the body did
    // to receive, and lets the body's storage go with the body.
    relocate(std::max(rest, announced_frame_bytes()));
  }
  return Status::kFrame;
}

std::size_t FrameParser::announced_frame_bytes() const noexcept {
  if (buffered_bytes() < kLenBytes) return 0;
  const std::uint32_t len = load_u32le(storage_ + begin_);
  const std::size_t frame_bytes = kLenBytes + static_cast<std::size_t>(len);
  return len < kMinLen || frame_bytes > max_frame_bytes_ ? 0 : frame_bytes;
}

void FrameParser::fail(std::string message) {
  error_ = std::move(message);
  release_storage();
}

void FrameParser::relocate(std::size_t capacity) {
  const std::size_t pending = buffered_bytes();
  auto fresh = std::make_shared_for_overwrite<std::uint8_t[]>(capacity);
  if (pending != 0) std::memcpy(fresh.get(), storage_ + begin_, pending);
  storage_ = fresh.get();
  owner_ = std::move(fresh);
  capacity_ = capacity;
  begin_ = 0;
  end_ = pending;
}

void FrameParser::release_storage() noexcept {
  owner_.reset();
  storage_ = nullptr;
  capacity_ = begin_ = end_ = 0;
}

}  // namespace fedbiad::transport
