// Single source of truth for wire-size arithmetic.
//
// Every formula here is the byte-exact size of the corresponding encoder in
// wire/update_codec.cpp (the encoders FEDBIAD_DCHECK against them), and the
// analytic "oracle" callers — DropPattern::upload_bytes, WidthPlan::
// submodel_bytes, the compressor configs, the Table I/II benches — use the
// same functions, so the measured payload and the analytic accounting cannot
// drift apart.
//
// Design note: the payload kind and its parameters (e.g. sparse position
// width) are session metadata negotiated once when a client registers its
// strategy, not re-sent per round, so no per-payload header bytes appear in
// these formulas. That matches the paper's §IV-B accounting (kept rows + the
// packed 1-bit-per-row pattern, nothing else) and its Table II fairness note
// that sketched baselines charge 64 bits per transmitted position.
#pragma once

#include <cstdint>
#include <span>

namespace fedbiad::wire {

/// CRC32C frame trailer appended to a sealed payload (see
/// update_codec.hpp seal_payload). Framing is a per-session transport
/// feature — a fault-tolerant session negotiates it exactly like the
/// payload kind — so the trailer is charged by the fault path's uplink
/// accounting but never appears in the paper-exact section formulas below.
inline constexpr std::uint64_t kCrcTrailerBytes = 4;

/// Wire size of a sealed (CRC-framed) payload of `payload_bytes` bytes.
[[nodiscard]] constexpr std::uint64_t framed_bytes(
    std::uint64_t payload_bytes) {
  return payload_bytes + kCrcTrailerBytes;
}

/// Packed bit run: ceil(bits/8) bytes.
[[nodiscard]] constexpr std::uint64_t packed_bits_bytes(std::uint64_t bits) {
  return (bits + 7) / 8;
}

/// Dense f32 section: the FedAvg upload and the server's model broadcast.
[[nodiscard]] constexpr std::uint64_t dense_f32_bytes(std::uint64_t count) {
  return count * 4;
}

/// §IV-B step 3: kept weights (every coordinate of a kept row, 4 bytes
/// each) + the packed row pattern β, one bit per weight row.
[[nodiscard]] constexpr std::uint64_t row_masked_bytes(
    std::uint64_t kept_weights, std::uint64_t rows) {
  return dense_f32_bytes(kept_weights) + packed_bits_bytes(rows);
}

/// Ordered-dropout sub-model: surviving weights + the 8-byte width ratio
/// (the structure is implicit — ordered dropout's selling point).
[[nodiscard]] constexpr std::uint64_t submodel_bytes(
    std::uint64_t kept_weights) {
  return dense_f32_bytes(kept_weights) + 8;
}

/// Fixed-width sparse section: one position of `position_bits` plus one f32
/// per entry (the paper's 64-bit-position fairness accounting for DGC/top-k).
[[nodiscard]] constexpr std::uint64_t sparse_fixed_bytes(
    std::uint64_t entries, std::uint64_t position_bits) {
  return entries * (4 + position_bits / 8);
}

/// STC ternary section: shared magnitude μ (4 bytes) + bit-packed
/// (position_bits + 1 sign bit) per entry. Empty selection sends nothing.
[[nodiscard]] constexpr std::uint64_t ternary_bytes(
    std::uint64_t entries, std::uint64_t position_bits) {
  return entries == 0
             ? 0
             : packed_bits_bytes(entries * (position_bits + 1)) + 4;
}

/// SignSGD section: shared magnitude + 1 bit per candidate coordinate.
[[nodiscard]] constexpr std::uint64_t sign_mean_bytes(
    std::uint64_t candidates) {
  return packed_bits_bytes(candidates) + 4;
}

/// FedPAQ section: scale + one int8 per candidate (positions implicit).
[[nodiscard]] constexpr std::uint64_t int8_dense_bytes(
    std::uint64_t candidates) {
  return candidates + 4;
}

/// Magnitude-pruning upload, occupancy-bitmap variant: 1 bit per
/// coordinate + the kept values dense.
[[nodiscard]] constexpr std::uint64_t pruned_bitmap_bytes(
    std::uint64_t coords, std::uint64_t kept) {
  return packed_bits_bytes(coords) + dense_f32_bytes(kept);
}

/// Exact size of a delta-varint index run: varint(count) + varint gaps
/// (first index absolute, then index[i] - index[i-1] - 1).
template <typename Index>
[[nodiscard]] std::uint64_t delta_varint_index_bytes(
    std::span<const Index> indices) {
  auto varint_len = [](std::uint64_t v) {
    std::uint64_t len = 1;
    while (v >= 0x80) {
      v >>= 7;
      ++len;
    }
    return len;
  };
  std::uint64_t total = varint_len(indices.size());
  std::uint64_t prev = 0;
  bool first = true;
  for (const Index idx : indices) {
    const auto v = static_cast<std::uint64_t>(idx);
    total += varint_len(first ? v : v - prev - 1);
    prev = v;
    first = false;
  }
  return total;
}

/// Delta-varint sparse section: the index run + one f32 per entry. This is
/// the communication-efficient alternative to sparse_fixed_bytes — the
/// benches report both so the 64-bit-position fairness convention and the
/// real cost stay visible side by side.
template <typename Index>
[[nodiscard]] std::uint64_t sparse_varint_bytes(
    std::span<const Index> indices) {
  return delta_varint_index_bytes(indices) + dense_f32_bytes(indices.size());
}

}  // namespace fedbiad::wire
