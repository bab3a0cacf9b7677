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
// sockets: recv() into its prepare() room and commit() what arrived, or
// feed() it bytes (any split, byte-at-a-time included), and pull complete
// frames with next(). It enforces max_frame_bytes as soon as the 4-byte
// length prefix is readable — an attacker announcing a 4GiB frame is
// rejected before a single body byte is buffered, and prepare() never
// sizes storage to a length that next() would reject. Errors are sticky: a stream that framed garbage once cannot
// resynchronise (TCP guarantees ordered bytes, so garbage means a corrupt
// or malicious peer, and the connection must die).
//
// A sender frames a body given as head||tail, where the tail's CRC is
// already known (a Dispatch's model broadcast, checksummed once per model
// version): the frame CRC combines crc32c(type||head) with it, so only the
// head is read. A receiver copies no body: bytes land in the parser's
// storage (a socket read goes straight into prepare()'s room, a loopback
// delivery's vector is adopted whole), and every FrameBody is a slice of
// that storage.
//
// A received Upload is read twice: once here, by the frame CRC, and once
// by the committer. The parser keeps the CRC it verified (Frame::crc);
// the sealed payload is the body's tail, so its CRC follows from the
// frame's and the few bytes ahead of it (decode_upload), and the payload
// seal is checked against that without a second pass. The decoded update
// borrows its values from the frame storage (wire/compact.hpp), where
// they sit at whatever byte offset the frame put them, so whoever reads
// them uses unaligned loads.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "wire/shared_bytes.hpp"

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

/// A parsed frame's body: a slice of the storage the parser received it
/// into. It stays valid for as long as the FrameBody (or a copy or slice of
/// it) lives, whatever happens to the parser.
using FrameBody = wire::SharedBytes;

/// One parsed frame: type plus the body (crc already verified and
/// stripped).
struct Frame {
  FrameType type = FrameType::kHello;
  FrameBody body;
  /// The CRC FrameParser::next verified, wire::crc32c(type||body); empty
  /// for a frame that no parser checked. A receiver derives the CRC of any
  /// tail of the body from it (decode_upload does, for the sealed payload)
  /// instead of reading those bytes again.
  std::optional<std::uint32_t> crc;
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
  /// vector itself becomes the storage (no copy); otherwise it is copied in
  /// behind the buffered partial frame.
  void feed(std::vector<std::uint8_t>&& data);

  /// Room to receive into, directly behind the buffered bytes: write up to
  /// its size, then commit() how many bytes arrived. When a frame's length
  /// is buffered and the frame does not fit the storage, its bytes move to
  /// storage of exactly that frame's size and the room is the frame's
  /// rest; otherwise the room is what the storage has left, at least a
  /// read's worth (16 KiB) when no length is buffered. Never empty. Not
  /// for a failed stream.
  [[nodiscard]] std::span<std::uint8_t> prepare();

  /// Buffers the first `n` bytes of the last prepare()'s room.
  void commit(std::size_t n);

  /// Extracts the next complete frame, if any. Call in a loop until it
  /// stops returning kFrame. Once kError is returned every future call
  /// returns kError with the same message. The body is a slice of the
  /// storage, not a copy. When no more bytes follow the frame than its
  /// body holds, those bytes move to fresh storage, so a short pending
  /// frame does not pin a large one's.
  [[nodiscard]] Status next(Frame& out);

  [[nodiscard]] bool failed() const noexcept { return !error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// Bytes currently buffered (diagnostics).
  [[nodiscard]] std::size_t buffered_bytes() const noexcept {
    return end_ - begin_;
  }

  /// Bytes of storage the parser holds (diagnostics). Storage is dropped
  /// once every buffered frame is out, so a parser does not keep the
  /// largest frame it ever saw.
  [[nodiscard]] std::size_t buffer_capacity() const noexcept {
    return capacity_;
  }

 private:
  void fail(std::string message);
  /// Wire size of the frame whose length prefix is buffered, or 0 when
  /// fewer than 4 bytes are or the length is out of bounds.
  [[nodiscard]] std::size_t announced_frame_bytes() const noexcept;
  /// Moves the buffered bytes to the front of fresh storage of `capacity`
  /// bytes. Storage already handed out in bodies is never written again.
  void relocate(std::size_t capacity);
  void release_storage() noexcept;

  std::size_t max_frame_bytes_;
  std::shared_ptr<const void> owner_;  ///< keeps `storage_` alive
  std::uint8_t* storage_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t begin_ = 0;  ///< first byte not yet handed out
  std::size_t end_ = 0;    ///< one past the last byte received
  std::string error_;
};

}  // namespace fedbiad::transport
