#include "wire/update_codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.hpp"
#include "wire/accounting.hpp"
#include "wire/crc32c.hpp"
#include "wire/reader.hpp"
#include "wire/writer.hpp"

namespace fedbiad::wire {

namespace {

void check_position_bits(std::size_t position_bits) {
  FEDBIAD_CHECK(position_bits == 16 || position_bits == 32 ||
                    position_bits == 64,
                "position width must be 16, 32, or 64 bits");
}

// A writer sized for a `body`-byte payload and its CRC trailer. Uploads
// queue at the server with whatever capacity they were built with, so an
// exact buffer keeps the in-flight payloads at their wire size, and
// seal_payload appends the trailer without reallocating.
Writer exact_writer(std::uint64_t body) {
  Writer w;
  w.reserve(framed_bytes(body));
  return w;
}

}  // namespace

const char* to_string(PayloadKind kind) noexcept {
  switch (kind) {
    case PayloadKind::kDenseF32:
      return "dense-f32";
    case PayloadKind::kRowMasked:
      return "row-masked";
    case PayloadKind::kSparseFixed:
      return "sparse-fixed";
    case PayloadKind::kSparseVarint:
      return "sparse-varint";
    case PayloadKind::kTernary:
      return "ternary";
    case PayloadKind::kSignMean:
      return "sign-mean";
    case PayloadKind::kInt8Dense:
      return "int8-dense";
    case PayloadKind::kPrunedBitmap:
      return "pruned-bitmap";
    case PayloadKind::kPrunedVarint:
      return "pruned-varint";
    case PayloadKind::kSubModel:
      return "sub-model";
  }
  return "?";
}

Payload encode_dense_f32(std::span<const float> values) {
  Writer w = exact_writer(dense_f32_bytes(values.size()));
  w.f32_run(values);
  Payload p{.kind = PayloadKind::kDenseF32, .bytes = std::move(w).take()};
  FEDBIAD_DCHECK(p.size() == dense_f32_bytes(values.size()),
                 "dense encoding size drifted from accounting");
  return p;
}

Payload encode_row_masked(const nn::ParameterStore& layout,
                          std::span<const std::uint8_t> row_kept,
                          std::span<const float> values) {
  const std::size_t rows = layout.droppable_rows();
  FEDBIAD_CHECK(row_kept.size() == rows, "row mask / layout mismatch");
  FEDBIAD_CHECK(values.size() == layout.size(), "values / layout mismatch");
  const auto kept = [&](std::size_t j) { return row_kept[j] != 0; };
  std::uint64_t kept_weights = 0;
  nn::for_each_kept_run(layout, kept, [&](std::size_t b, std::size_t e) {
    kept_weights += e - b;
  });
  Writer w = exact_writer(row_masked_bytes(kept_weights, rows));
  // Bitset::packed_bytes IS the wire form, so the packing convention lives
  // in exactly one place (its from_packed is what the decoder uses).
  w.bytes(Bitset::from_bytemask(row_kept).packed_bytes());
  nn::for_each_kept_run(layout, kept, [&](std::size_t b, std::size_t e) {
    w.f32_run(values.subspan(b, e - b));
  });
  Payload p{.kind = PayloadKind::kRowMasked, .bytes = std::move(w).take()};
  FEDBIAD_DCHECK(p.size() == row_masked_bytes(kept_weights, rows),
                 "row-masked encoding size drifted from accounting");
  return p;
}

Payload encode_sparse_fixed(std::span<const std::uint32_t> indices,
                            std::span<const float> values,
                            std::size_t position_bits) {
  check_position_bits(position_bits);
  FEDBIAD_CHECK(indices.size() == values.size(),
                "sparse index/value length mismatch");
  // Indices arrive sorted ascending (decode enforces it), so the last one
  // bounds them all: a position that does not fit the configured width would
  // silently wrap on the wire.
  FEDBIAD_CHECK(indices.empty() || position_bits >= 64 ||
                    indices.back() < (std::uint64_t{1} << position_bits),
                "sparse index exceeds the configured position width");
  Writer w = exact_writer(sparse_fixed_bytes(indices.size(), position_bits));
  for (std::size_t i = 0; i < indices.size(); ++i) {
    FEDBIAD_CHECK(i == 0 || indices[i] > indices[i - 1],
                  "sparse indices must be increasing");
    switch (position_bits) {
      case 16:
        w.u16(static_cast<std::uint16_t>(indices[i]));
        break;
      case 32:
        w.u32(indices[i]);
        break;
      default:
        w.u64(indices[i]);
        break;
    }
    w.f32(values[i]);
  }
  Payload p{.kind = PayloadKind::kSparseFixed,
            .aux = static_cast<std::uint8_t>(position_bits),
            .bytes = std::move(w).take()};
  FEDBIAD_DCHECK(p.size() == sparse_fixed_bytes(indices.size(), position_bits),
                 "sparse-fixed encoding size drifted from accounting");
  return p;
}

Payload encode_sparse_varint(std::span<const std::uint32_t> indices,
                             std::span<const float> values) {
  FEDBIAD_CHECK(indices.size() == values.size(),
                "sparse index/value length mismatch");
  Writer w = exact_writer(sparse_varint_bytes(indices));
  w.varint(indices.size());
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::uint64_t idx = indices[i];
    FEDBIAD_CHECK(i == 0 || idx > prev, "sparse indices must be increasing");
    w.varint(i == 0 ? idx : idx - prev - 1);
    prev = idx;
  }
  w.f32_run(values);
  Payload p{.kind = PayloadKind::kSparseVarint, .bytes = std::move(w).take()};
  FEDBIAD_DCHECK(p.size() == sparse_varint_bytes(indices),
                 "sparse-varint encoding size drifted from accounting");
  return p;
}

Payload encode_ternary(float mu, std::span<const std::uint32_t> indices,
                       std::span<const std::uint8_t> negative,
                       std::size_t position_bits) {
  check_position_bits(position_bits);
  FEDBIAD_CHECK(indices.size() == negative.size(),
                "ternary index/sign length mismatch");
  FEDBIAD_CHECK(indices.empty() || position_bits >= 64 ||
                    indices.back() < (std::uint64_t{1} << position_bits),
                "ternary index exceeds the configured position width");
  Payload p{.kind = PayloadKind::kTernary,
            .aux = static_cast<std::uint8_t>(position_bits),
            .bytes = {}};
  if (!indices.empty()) {
    Writer w = exact_writer(ternary_bytes(indices.size(), position_bits));
    w.f32(mu);
    {
      BitWriter bw(w);
      for (std::size_t i = 0; i < indices.size(); ++i) {
        FEDBIAD_CHECK(i == 0 || indices[i] > indices[i - 1],
                      "ternary indices must be increasing");
        bw.bits(indices[i], static_cast<unsigned>(position_bits));
        bw.bit(negative[i] != 0);
      }
    }
    p.bytes = std::move(w).take();
  }
  FEDBIAD_DCHECK(p.size() == ternary_bytes(indices.size(), position_bits),
                 "ternary encoding size drifted from accounting");
  return p;
}

Payload encode_sign_mean(float scale, std::span<const std::uint8_t> mask,
                         std::span<const float> values) {
  FEDBIAD_CHECK(mask.empty() || mask.size() == values.size(),
                "candidate mask / values mismatch");
  const std::uint64_t candidates =
      mask.empty() ? values.size()
                   : values.size() - static_cast<std::uint64_t>(std::count(
                                         mask.begin(), mask.end(), 0));
  Writer w = exact_writer(sign_mean_bytes(candidates));
  w.f32(scale);
  std::uint64_t count = 0;
  {
    BitWriter bw(w);
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (!mask.empty() && mask[i] == 0) continue;
      bw.bit(std::signbit(values[i]));
      ++count;
    }
  }
  Payload p{.kind = PayloadKind::kSignMean, .bytes = std::move(w).take()};
  FEDBIAD_DCHECK(p.size() == sign_mean_bytes(count),
                 "sign-mean encoding size drifted from accounting");
  return p;
}

Payload encode_int8_dense(float scale, std::span<const std::int8_t> quants,
                          std::size_t candidates) {
  FEDBIAD_CHECK(quants.size() == candidates,
                "quant run must cover every candidate");
  Writer w = exact_writer(int8_dense_bytes(candidates));
  w.f32(scale);
  for (const std::int8_t q : quants) {
    w.u8(static_cast<std::uint8_t>(q));
  }
  Payload p{.kind = PayloadKind::kInt8Dense, .bytes = std::move(w).take()};
  FEDBIAD_DCHECK(p.size() == int8_dense_bytes(candidates),
                 "int8 encoding size drifted from accounting");
  return p;
}

Payload encode_pruned(const nn::ParameterStore& layout,
                      std::span<const std::uint8_t> coord_mask,
                      std::span<const float> values) {
  const std::size_t n = layout.size();
  FEDBIAD_CHECK(coord_mask.size() == n && values.size() == n,
                "mask / values / layout mismatch");
  // Collect the kept coordinates' indices and values in layout order.
  std::vector<std::uint32_t> kept_idx;
  std::vector<float> kept_val;
  for (std::size_t i = 0; i < n; ++i) {
    if (coord_mask[i] == 0) continue;
    kept_idx.push_back(static_cast<std::uint32_t>(i));
    kept_val.push_back(values[i]);
  }
  const std::uint64_t bitmap_size = pruned_bitmap_bytes(n, kept_idx.size());
  const std::uint64_t varint_size =
      delta_varint_index_bytes(std::span<const std::uint32_t>(kept_idx)) +
      dense_f32_bytes(kept_idx.size());
  Writer w = exact_writer(std::min(bitmap_size, varint_size));
  PayloadKind kind;
  if (bitmap_size <= varint_size) {
    kind = PayloadKind::kPrunedBitmap;
    w.bytes(Bitset::from_bytemask(coord_mask).packed_bytes());
  } else {
    kind = PayloadKind::kPrunedVarint;
    w.varint(kept_idx.size());
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < kept_idx.size(); ++i) {
      w.varint(i == 0 ? kept_idx[i] : kept_idx[i] - prev - 1);
      prev = kept_idx[i];
    }
  }
  w.f32_run(kept_val);
  Payload p{.kind = kind, .bytes = std::move(w).take()};
  FEDBIAD_DCHECK(p.size() == std::min(bitmap_size, varint_size),
                 "pruned encoding size drifted from accounting");
  return p;
}

Bitset expand_row_mask(const nn::ParameterStore& layout,
                       std::span<const std::uint8_t> packed) {
  const Bitset row_bits = Bitset::from_packed(packed, layout.droppable_rows());
  Bitset present(layout.size());
  nn::for_each_kept_run(
      layout, [&](std::size_t j) { return row_bits.test(j); },
      [&](std::size_t b, std::size_t e) { present.set_range(b, e); });
  return present;
}

void seal_payload(Payload& payload) {
  const std::uint32_t crc = crc32c(payload.bytes);
  std::vector<std::uint8_t> bytes = std::move(payload.bytes).release();
  // The encoders leave room for the trailer; a payload built elsewhere
  // grows to exactly its sealed size, not by the vector's doubling.
  bytes.reserve(framed_bytes(bytes.size()));
  for (std::size_t i = 0; i < kCrcTrailerBytes; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  payload.bytes = std::move(bytes);
  FEDBIAD_DCHECK(payload.size() == framed_bytes(payload.size() -
                                                kCrcTrailerBytes),
                 "sealed size diverged from the accounting oracle");
}

bool verify_seal(const Payload& payload,
                 std::optional<std::uint32_t> sealed_crc) noexcept {
  if (payload.bytes.size() < kCrcTrailerBytes) return false;
  if (sealed_crc) return *sealed_crc == kCrc32cResidue;
  const std::size_t body = payload.bytes.size() - kCrcTrailerBytes;
  std::uint32_t stored = 0;
  for (std::size_t i = 0; i < kCrcTrailerBytes; ++i) {
    stored |= static_cast<std::uint32_t>(payload.bytes[body + i]) << (8 * i);
  }
  return crc32c(std::span<const std::uint8_t>(payload.bytes).first(body)) ==
         stored;
}

void strip_seal(Payload& payload, std::optional<std::uint32_t> sealed_crc) {
  if (!verify_seal(payload, sealed_crc)) {
    throw DecodeError(payload.bytes.size() < kCrcTrailerBytes
                          ? "frame shorter than its CRC trailer"
                          : "frame CRC mismatch (corrupt or truncated)");
  }
  payload.bytes =
      payload.bytes.slice(0, payload.bytes.size() - kCrcTrailerBytes);
}

}  // namespace fedbiad::wire
