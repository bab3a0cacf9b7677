// Length-prefixed CRC32C framing for the transport layer.
//
// Wire layout of one frame (all integers little-endian):
//
//   [u32 len][u8 type][body ...][u32 crc]
//
// `len` counts everything after itself: 1 (type) + body + 4 (crc), so a
// minimal frame (empty body) has len == 5 and occupies 9 wire bytes. `crc`
// is wire::crc32c over type||body — the same polynomial the payload seal
// uses, so a frame corrupted anywhere between the peers is detected before
// any message decoding runs.
//
// FrameParser is an incremental, bounded parser made for non-blocking
// sockets: feed() it whatever recv() returned (any split, byte-at-a-time
// included) and pull complete frames with next(). It enforces
// max_frame_bytes as soon as the 4-byte length prefix is readable — an
// attacker announcing a 4GiB frame is rejected before a single body byte
// is buffered. Errors are sticky: a stream that framed garbage once cannot
// resynchronise (TCP guarantees ordered bytes, so garbage means a corrupt
// or malicious peer, and the connection must die).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace fedbiad::transport {

/// Message kind carried in every frame; the protocol layer (protocol.hpp)
/// defines the body encoding per type.
enum class FrameType : std::uint8_t {
  kHello = 1,      ///< client → server: open/resume a session
  kWelcome = 2,    ///< server → client: session accepted
  kDispatch = 3,   ///< server → client: train this round
  kUpload = 4,     ///< client → server: training outcome
  kUploadAck = 5,  ///< server → client: upload consumed (commit or dedup)
  kReject = 6,     ///< server → client: upload refused (maybe retryable)
  kFin = 7,        ///< server → client: run complete, hang up
};

[[nodiscard]] const char* to_string(FrameType type);

/// One parsed frame: type plus the decoded body (crc already verified and
/// stripped).
struct Frame {
  FrameType type = FrameType::kHello;
  std::vector<std::uint8_t> body;
};

/// Bytes between itself and the body: u32 len + u8 type + u32 crc.
inline constexpr std::size_t kFrameOverheadBytes = 9;

/// Wire size of a frame with `body_bytes` of body.
[[nodiscard]] constexpr std::size_t frame_wire_size(std::size_t body_bytes) {
  return kFrameOverheadBytes + body_bytes;
}

/// Appends the full wire encoding of (type, body) to `out`.
void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::span<const std::uint8_t> body);

class FrameParser {
 public:
  explicit FrameParser(std::size_t max_frame_bytes);

  enum class Status {
    kNeedMore,  ///< no complete frame buffered yet
    kFrame,     ///< one frame extracted into the out-parameter
    kError,     ///< stream is poisoned; see error()
  };

  /// Buffers raw stream bytes. Any split is fine; bytes after a framing
  /// error are dropped (the stream is already dead).
  void feed(std::span<const std::uint8_t> data);

  /// Same, for bytes the caller hands over: when nothing is buffered the
  /// vector itself becomes the buffer (no copy); otherwise it is appended
  /// behind the buffered partial frame.
  void feed(std::vector<std::uint8_t>&& data);

  /// Extracts the next complete frame, if any. Call in a loop until it
  /// stops returning kFrame. Once kError is returned every future call
  /// returns kError with the same message.
  [[nodiscard]] Status next(Frame& out);

  [[nodiscard]] bool failed() const noexcept { return !error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// Bytes currently buffered (diagnostics).
  [[nodiscard]] std::size_t buffered_bytes() const noexcept {
    return buffer_.size() - consumed_;
  }

 private:
  void fail(std::string message);
  void compact();

  std::size_t max_frame_bytes_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  ///< prefix of buffer_ already handed out
  std::string error_;
};

}  // namespace fedbiad::transport
