#include "transport/frame.hpp"

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

void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::span<const std::uint8_t> body) {
  const std::size_t start = out.size();
  out.resize(start + frame_wire_size(body.size()));
  std::uint8_t* p = out.data() + start;
  store_u32le(p, static_cast<std::uint32_t>(1 + body.size() + kCrcBytes));
  p[kLenBytes] = static_cast<std::uint8_t>(type);
  if (!body.empty()) {
    std::memcpy(p + kLenBytes + 1, body.data(), body.size());
  }
  const std::uint32_t crc =
      wire::crc32c(std::span<const std::uint8_t>(p + kLenBytes, 1 + body.size()));
  store_u32le(p + kLenBytes + 1 + body.size(), crc);
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
  if (avail < kLenBytes) return Status::kNeedMore;
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
  if (kLenBytes + static_cast<std::size_t>(len) > max_frame_bytes_) {
    fail("frame of " + std::to_string(kLenBytes + len) +
         " bytes exceeds limit of " + std::to_string(max_frame_bytes_));
    return Status::kError;
  }
  if (avail < kLenBytes + len) return Status::kNeedMore;

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
  out.body.assign(frame + 1, frame + sealed);
  consumed_ += kLenBytes + len;
  compact();
  return Status::kFrame;
}

void FrameParser::fail(std::string message) {
  error_ = std::move(message);
  buffer_.clear();
  consumed_ = 0;
}

void FrameParser::compact() {
  if (consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ >= 4096) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
}

}  // namespace fedbiad::transport
