#include "transport/frame.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "wire/crc32c.hpp"

namespace fedbiad::transport {
namespace {

constexpr std::size_t kLenBytes = 4;
constexpr std::size_t kCrcBytes = 4;
// len counts type + body + crc, so the smallest legal value is 5.
constexpr std::uint32_t kMinLen = 1 + kCrcBytes;

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

FrameBody::FrameBody(std::vector<std::uint8_t> storage, std::size_t offset,
                     std::size_t size)
    : storage_(std::move(storage)), offset_(offset), size_(size) {
  FEDBIAD_CHECK(offset <= storage_.size() && size <= storage_.size() - offset,
                "frame body outside its storage");
}

bool FrameBody::operator==(const FrameBody& other) const {
  return std::equal(begin(), end(), other.begin(), other.end());
}

bool FrameBody::operator==(const std::vector<std::uint8_t>& bytes) const {
  return std::equal(begin(), end(), bytes.begin(), bytes.end());
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
  if (failed()) return;  // stream is dead; don't grow memory for it
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

void FrameParser::feed(std::vector<std::uint8_t>&& data) {
  if (failed()) return;
  if (buffer_.size() == consumed_) {
    buffer_ = std::move(data);
    consumed_ = 0;
  } else {
    buffer_.insert(buffer_.end(), data.begin(), data.end());
  }
}

FrameParser::Status FrameParser::next(Frame& out) {
  if (failed()) return Status::kError;
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < kLenBytes) {
    compact(0);
    return Status::kNeedMore;
  }
  const std::uint8_t* p = buffer_.data() + consumed_;
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
  if (avail < frame_bytes) {
    // The rest arrives into one allocation, sized within the limit just
    // checked, that the body can then take over.
    compact(frame_bytes);
    return Status::kNeedMore;
  }

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
  const std::size_t rest = avail - frame_bytes;
  if (consumed_ == 0 && rest <= body_bytes) {
    // The buffer becomes the body's storage. Copying the bytes behind the
    // frame costs no more than the body copy this saves.
    std::vector<std::uint8_t> behind(
        buffer_.begin() + static_cast<std::ptrdiff_t>(frame_bytes),
        buffer_.end());
    out.body = FrameBody(std::move(buffer_), kLenBytes + 1, body_bytes);
    buffer_ = std::move(behind);
    return Status::kFrame;
  }
  out.body = FrameBody(std::vector<std::uint8_t>(frame + 1, frame + sealed), 0,
                       body_bytes);
  consumed_ += frame_bytes;
  if (consumed_ == buffer_.size()) {
    buffer_ = std::vector<std::uint8_t>();  // the storage, not just contents
    consumed_ = 0;
  }
  return Status::kFrame;
}

void FrameParser::fail(std::string message) {
  error_ = std::move(message);
  buffer_ = std::vector<std::uint8_t>();
  consumed_ = 0;
}

void FrameParser::compact(std::size_t want) {
  if (consumed_ == 0 && buffer_.capacity() >= want) return;
  std::vector<std::uint8_t> fresh;
  fresh.reserve(std::max(want, buffer_.size() - consumed_));
  fresh.insert(fresh.end(),
               buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_),
               buffer_.end());
  buffer_ = std::move(fresh);
  consumed_ = 0;
}

}  // namespace fedbiad::transport
