// Message bodies carried inside transport frames (frame.hpp).
//
// One struct per FrameType, encoded with wire::Writer and decoded with the
// bounds-checked wire::Reader — decoders throw wire::DecodeError on
// truncation, overflow, or trailing bytes, so a frame whose crc happens to
// survive corruption still cannot smuggle a malformed body past the
// runtimes.
//
// Dispatch and Upload decode without copying their byte runs: the
// broadcast and the payload are slices of the frame body, sharing its
// storage (wire/shared_bytes.hpp).
//
// Session metadata rides in the handshake, not in every message: Hello
// announces the payload kind/aux the client's strategy emits (exactly like
// the in-process registration path), so Upload bodies carry only the
// sealed payload bytes and the measured uplink equals the engine's framed
// accounting.
//
// Dispatch carries rng_stream explicitly. The engine derives each training
// run's rng as Rng(seed).split(0x1000 + client).split(stream) where stream
// is the round number (barrier) or a dispatch counter (async) — shipping
// the stream id lets a remote client reproduce the exact engine draw
// without knowing which mode the server runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "transport/frame.hpp"
#include "wire/reader.hpp"
#include "wire/shared_bytes.hpp"

namespace fedbiad::transport {

struct HelloMsg {
  std::uint64_t client_id = 0;
  /// 0 opens a fresh session; a prior Welcome's token asks to resume.
  std::uint64_t session_token = 0;
  std::uint8_t payload_kind = 0;  ///< wire::PayloadKind the client emits
  std::uint8_t payload_aux = 0;
};

struct WelcomeMsg {
  std::uint64_t session_token = 0;  ///< present this to resume after a drop
  std::uint64_t version = 0;        ///< server's current model version
  std::uint8_t resumed = 0;         ///< 1 when the token matched a session
};

struct DispatchMsg {
  std::uint64_t dispatch_index = 0;  ///< engine-global; keys dedup + acks
  std::uint64_t round = 0;
  std::uint64_t slot = 0;  ///< selection-order slot within the wave
  std::uint64_t model_version = 0;
  std::uint64_t rng_stream = 0;  ///< second split of the client rng chain
  wire::SharedBytes broadcast;  ///< encoded global (kDenseF32)
};

struct UploadMsg {
  std::uint64_t dispatch_index = 0;
  std::uint64_t samples = 0;
  std::uint8_t is_update = 0;
  double train_seconds = 0.0;
  double mean_loss = 0.0;
  double last_loss = 0.0;
  wire::SharedBytes payload;  ///< sealed strategy payload bytes
};

struct UploadAckMsg {
  std::uint64_t dispatch_index = 0;
};

struct RejectMsg {
  std::uint64_t dispatch_index = 0;
  std::uint8_t retry = 0;  ///< 1: resend the upload; 0: give up (terminal)
  std::string reason;
};

struct FinMsg {
  std::uint64_t rounds = 0;  ///< rounds committed over the run
};

[[nodiscard]] std::vector<std::uint8_t> encode(const HelloMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const WelcomeMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const DispatchMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const UploadMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const UploadAckMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const RejectMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const FinMsg& m);

/// The Dispatch body up to its broadcast bytes: m's five u64 fields and
/// the varint length of a `broadcast_bytes`-byte broadcast (m.broadcast is
/// ignored). encode(m) == encode_dispatch_head(m, m.broadcast.size()) ||
/// m.broadcast, so the server sends this head and its cached broadcast as
/// one frame without joining them (ServerTransport's head/tail send).
[[nodiscard]] std::vector<std::uint8_t> encode_dispatch_head(
    const DispatchMsg& m, std::size_t broadcast_bytes);

/// The Upload body up to its payload bytes, likewise: encode(m) ==
/// encode_upload_head(m, m.payload.size()) || m.payload.
[[nodiscard]] std::vector<std::uint8_t> encode_upload_head(
    const UploadMsg& m, std::size_t payload_bytes);

/// All decoders throw wire::DecodeError on any malformation. A decoded
/// Dispatch's broadcast and Upload's payload are slices of `body`.
[[nodiscard]] HelloMsg decode_hello(std::span<const std::uint8_t> body);
[[nodiscard]] WelcomeMsg decode_welcome(std::span<const std::uint8_t> body);
[[nodiscard]] DispatchMsg decode_dispatch(const wire::SharedBytes& body);
[[nodiscard]] UploadMsg decode_upload(const wire::SharedBytes& body);
[[nodiscard]] UploadAckMsg decode_upload_ack(std::span<const std::uint8_t> body);
[[nodiscard]] RejectMsg decode_reject(std::span<const std::uint8_t> body);
[[nodiscard]] FinMsg decode_fin(std::span<const std::uint8_t> body);

}  // namespace fedbiad::transport
