// Client-update payload codec (paper §IV-B step 3 and the Table II
// baselines' encodings).
//
// A Payload is what a client actually transmits: a byte buffer in one of the
// section formats below. The kind (and its `aux` parameter, e.g. the sparse
// position width) is session metadata — a client announces its strategy's
// format once at registration, so per-round payloads carry no kind header
// and the measured size equals the paper's accounting exactly (see
// wire/accounting.hpp). Given the model layout the server already holds (it
// broadcast the model), every section is self-framing: lengths are either
// derived from the layout or carried as explicit varint counts. Each kind
// has one parser: wire::decode_update_compact (wire/compact.hpp) for every
// kind but kSubModel, WidthPlan::decode_submodel for that one. Both are
// bounds-checked end to end, rejecting truncated or corrupted buffers with
// wire::DecodeError.
//
// Section formats (all little-endian; bit runs LSB-first):
//   kDenseF32      f32[n]                                  (n from layout)
//   kRowMasked     packed β (J bits, zero-padded) ∥ f32 weights of each
//                  kept row, ascending coordinate order       (J from layout)
//   kSparseFixed   { position:u<aux>, value:f32 }[k], positions strictly
//                  increasing; k = size / (4 + aux/8)
//   kSparseVarint  varint k ∥ delta-varint positions ∥ f32[k]
//   kTernary       empty when k = 0; else f32 μ ∥ bit-packed
//                  { position:<aux> bits, sign:1 bit }[k]
//   kSignMean      f32 scale ∥ 1 sign bit per candidate coordinate
//   kInt8Dense     f32 scale ∥ i8 quant per candidate coordinate
//   kPrunedBitmap  packed occupancy over every coordinate ∥ f32 kept
//   kPrunedVarint  varint k ∥ delta-varint positions ∥ f32 kept
//   kSubModel      f64 width ratio ∥ f32 surviving weights — the mask is
//                  rebuilt from the ratio by the strategy's WidthPlan, so
//                  decoding routes through Strategy::decode_payload_compact
//                  (see baselines/unit_mask.hpp)
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "nn/parameter_store.hpp"
#include "wire/bitset.hpp"
#include "wire/shared_bytes.hpp"

namespace fedbiad::wire {

enum class PayloadKind : std::uint8_t {
  kDenseF32,
  kRowMasked,
  kSparseFixed,
  kSparseVarint,
  kTernary,
  kSignMean,
  kInt8Dense,
  kPrunedBitmap,
  kPrunedVarint,
  kSubModel,
};

[[nodiscard]] const char* to_string(PayloadKind kind) noexcept;

/// An encoded client→server update. `bytes` is the transmitted buffer —
/// uplink accounting is size(), measured, not modeled. A received payload's
/// bytes are a slice of the frame they arrived in. `kind`/`aux` ride in the
/// struct because they are negotiated per session, not per message.
struct Payload {
  PayloadKind kind = PayloadKind::kDenseF32;
  /// Kind parameter: position width in bits for kSparseFixed/kTernary.
  std::uint8_t aux = 0;
  SharedBytes bytes;

  [[nodiscard]] std::uint64_t size() const noexcept { return bytes.size(); }
  [[nodiscard]] bool empty() const noexcept { return bytes.empty(); }
};

// --- CRC framing (fault-tolerant sessions) ---
//
// A sealed payload carries a 4-byte little-endian CRC32C trailer over its
// body. Framing is negotiated per session like kind/aux: ideal sessions
// transmit bare sections (the paper-exact accounting), fault-tolerant
// sessions seal every upload so the server can reject bit flips and
// truncation before the section decoder ever runs. The trailer is counted
// by wire::framed_bytes (accounting.hpp).

/// Appends the CRC32C trailer to `payload`, in place when `payload` is the
/// only holder of its bytes.
void seal_payload(Payload& payload);

/// True when `payload` ends in a trailer matching its body. A buffer too
/// short to hold a trailer verifies false, never throws. `sealed_crc`, when
/// given, must be wire::crc32c of the whole sealed payload, trailer
/// included (a receiver derives it from the CRC of the frame the payload
/// arrived in): the seal then verifies exactly when it equals
/// kCrc32cResidue, and no payload byte is read. Without it the body is
/// checksummed and compared with the trailer; both accept the same bytes.
[[nodiscard]] bool verify_seal(
    const Payload& payload,
    std::optional<std::uint32_t> sealed_crc = std::nullopt) noexcept;

/// Narrows `payload` to its body once the trailer verifies (sealed_crc as
/// for verify_seal). Throws DecodeError when the trailer is missing or does
/// not match the body (corrupt or truncated frame).
void strip_seal(Payload& payload,
                std::optional<std::uint32_t> sealed_crc = std::nullopt);

// --- encoders (client side) ---

[[nodiscard]] Payload encode_dense_f32(std::span<const float> values);

/// `row_kept` is byte-per-row (DropPattern::bits()); `values` is the full
/// dense vector, of which only the kept rows' coordinates are written.
[[nodiscard]] Payload encode_row_masked(const nn::ParameterStore& layout,
                                        std::span<const std::uint8_t> row_kept,
                                        std::span<const float> values);

[[nodiscard]] Payload encode_sparse_fixed(
    std::span<const std::uint32_t> indices, std::span<const float> values,
    std::size_t position_bits = 64);

[[nodiscard]] Payload encode_sparse_varint(
    std::span<const std::uint32_t> indices, std::span<const float> values);

/// `negative[i]` is the sign bit of entry i (value = negative ? -mu : +mu).
[[nodiscard]] Payload encode_ternary(float mu,
                                     std::span<const std::uint32_t> indices,
                                     std::span<const std::uint8_t> negative,
                                     std::size_t position_bits = 64);

/// One sign bit per candidate (mask nonzero, or every coordinate when the
/// mask is empty), taken as std::signbit of `values`.
[[nodiscard]] Payload encode_sign_mean(float scale,
                                       std::span<const std::uint8_t> mask,
                                       std::span<const float> values);

/// One int8 quant per candidate; `quants` holds exactly the candidates'
/// quantized values in ascending coordinate order.
[[nodiscard]] Payload encode_int8_dense(float scale,
                                        std::span<const std::int8_t> quants,
                                        std::size_t candidates);

/// Magnitude-pruned upload: `coord_mask` is byte-per-coordinate over the
/// full layout. Emits whichever of kPrunedBitmap / kPrunedVarint measures
/// smaller.
[[nodiscard]] Payload encode_pruned(const nn::ParameterStore& layout,
                                    std::span<const std::uint8_t> coord_mask,
                                    std::span<const float> values);

/// Expands a packed row pattern β (as transmitted, ceil(J/8) bytes) into the
/// coordinate-level presence set: every coordinate of a kept row.
[[nodiscard]] Bitset expand_row_mask(const nn::ParameterStore& layout,
                                     std::span<const std::uint8_t> packed);

}  // namespace fedbiad::wire
