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
//
// Bytes cross this layer with one copy per frame. A sender frames a body
// given as head||tail, where the tail's CRC is already known (a Dispatch's
// model broadcast, checksummed once per model version): the frame CRC
// combines crc32c(type||head) with it, so only the head is read. A
// receiver's FrameBody owns its bytes. When a complete frame sits at the
// front of the parser's buffer, the buffer itself becomes the body's
// storage and nothing is copied; any other frame is copied out once.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
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

/// A parsed frame's body: `size()` bytes at `offset` inside storage it
/// owns — often the parser's whole receive buffer, taken over rather than
/// copied. It stays valid for as long as the FrameBody (or a copy, or the
/// object it was moved into) lives, whatever happens to the parser. A
/// contiguous range, so it converts to std::span<const std::uint8_t>.
class FrameBody {
 public:
  using const_iterator = const std::uint8_t*;
  using iterator = const_iterator;

  FrameBody() = default;
  FrameBody(std::vector<std::uint8_t> storage, std::size_t offset,
            std::size_t size);

  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return storage_.data() + offset_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] const_iterator begin() const noexcept { return data(); }
  [[nodiscard]] const_iterator end() const noexcept { return data() + size_; }

  [[nodiscard]] bool operator==(const FrameBody& other) const;
  [[nodiscard]] bool operator==(const std::vector<std::uint8_t>& bytes) const;

 private:
  std::vector<std::uint8_t> storage_;
  std::size_t offset_ = 0;
  std::size_t size_ = 0;
};

static_assert(
    std::is_convertible_v<const FrameBody&, std::span<const std::uint8_t>>);

/// One parsed frame: type plus the body (crc already verified and
/// stripped).
struct Frame {
  FrameType type = FrameType::kHello;
  FrameBody body;
};

/// Bytes between itself and the body: u32 len + u8 type + u32 crc.
inline constexpr std::size_t kFrameOverheadBytes = 9;

/// Wire size of a frame with `body_bytes` of body.
[[nodiscard]] constexpr std::size_t frame_wire_size(std::size_t body_bytes) {
  return kFrameOverheadBytes + body_bytes;
}

/// The wire bytes around a frame's body: what precedes it (u32 len, u8
/// type) and what follows it (u32 crc).
struct FrameEnvelope {
  std::array<std::uint8_t, 5> header;
  std::array<std::uint8_t, 4> trailer;
};

/// The envelope of the frame whose body is head||tail, given the tail's
/// size and `tail_crc` == wire::crc32c(tail). Reads only `head`: the frame
/// CRC is crc32c(type||head) combined with tail_crc. A wrong tail_crc
/// yields a frame every receiver rejects.
[[nodiscard]] FrameEnvelope frame_envelope(FrameType type,
                                           std::span<const std::uint8_t> head,
                                           std::size_t tail_bytes,
                                           std::uint32_t tail_crc);

/// Appends the wire encoding of (type, head||tail) to `out`, growing it
/// once; tail_crc as for frame_envelope().
void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::span<const std::uint8_t> head,
                  std::span<const std::uint8_t> tail, std::uint32_t tail_crc);

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
  /// returns kError with the same message. A frame at the front of the
  /// buffer, followed by no more bytes than its body holds, takes the
  /// buffer as its body's storage (the bytes after it move to a fresh
  /// buffer); any other frame's body is copied out.
  [[nodiscard]] Status next(Frame& out);

  [[nodiscard]] bool failed() const noexcept { return !error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// Bytes currently buffered (diagnostics).
  [[nodiscard]] std::size_t buffered_bytes() const noexcept {
    return buffer_.size() - consumed_;
  }

  /// Bytes the buffer holds allocated (diagnostics). Storage is released
  /// or handed to a body as frames complete, so a parser does not keep
  /// the largest frame it ever saw.
  [[nodiscard]] std::size_t buffer_capacity() const noexcept {
    return buffer_.capacity();
  }

 private:
  void fail(std::string message);
  /// Moves the unconsumed bytes to the front of a buffer with room for
  /// `want` bytes (no-op when nothing is consumed and the room exists), so
  /// the storage tracks what is pending, not the largest frame seen.
  void compact(std::size_t want);

  std::size_t max_frame_bytes_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  ///< prefix of buffer_ already handed out
  std::string error_;
};

}  // namespace fedbiad::transport
