#include "wire/compact.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "common/check.hpp"
#include "wire/accounting.hpp"
#include "wire/reader.hpp"

namespace fedbiad::wire {

namespace {

constexpr std::size_t kWordBits = Bitset::kWordBits;

void check_position_bits(std::size_t position_bits) {
  FEDBIAD_CHECK(position_bits == 16 || position_bits == 32 ||
                    position_bits == 64,
                "position width must be 16, 32, or 64 bits");
}

/// Candidate iteration for the dense-over-candidates kinds: `fn(i)` per
/// candidate coordinate, ascending.
template <typename Fn>
void for_each_candidate(std::size_t n, const Bitset* candidates, Fn&& fn) {
  if (candidates == nullptr) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (candidates->test(i)) fn(i);
  }
}

std::size_t candidate_total(std::size_t n, const Bitset* candidates) {
  return candidates == nullptr ? n : candidates->count();
}

void read_dense(Reader& r, std::span<float> out) {
  if (r.remaining() != dense_f32_bytes(out.size())) {
    throw DecodeError("dense payload length mismatch");
  }
  r.f32_run(out);
}

CompactUpdate decode_dense(const nn::ParameterStore& layout, Reader& r) {
  CompactUpdate u;
  u.form = CompactUpdate::Form::kDense;
  u.coords = layout.size();
  u.values.resize(layout.size());
  read_dense(r, u.values);
  return u;
}

CompactUpdate decode_row_masked(const nn::ParameterStore& layout, Reader& r) {
  CompactUpdate u;
  u.form = CompactUpdate::Form::kBitmap;
  u.coords = layout.size();
  u.present = expand_row_mask(
      layout, r.bytes(packed_bits_bytes(layout.droppable_rows())));
  // The encoder writes the kept rows in ascending coordinate order, so the
  // value stream IS rank order: one bulk read suffices.
  u.values.resize(u.present.count());
  r.f32_run(u.values);
  r.expect_done();
  u.build_rank_directory();
  return u;
}

CompactUpdate decode_sparse_fixed(const nn::ParameterStore& layout, Reader& r,
                                  std::size_t position_bits) {
  const std::size_t entry = 4 + position_bits / 8;
  if (r.remaining() % entry != 0) {
    throw DecodeError("sparse payload is not a whole number of entries");
  }
  const std::size_t k = r.remaining() / entry;
  CompactUpdate u;
  u.form = CompactUpdate::Form::kSparse;
  u.coords = layout.size();
  u.indices.reserve(k);
  u.values.reserve(k);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < k; ++i) {
    std::uint64_t idx = 0;
    switch (position_bits) {
      case 16:
        idx = r.u16();
        break;
      case 32:
        idx = r.u32();
        break;
      default:
        idx = r.u64();
        break;
    }
    if (idx >= layout.size()) throw DecodeError("sparse index out of range");
    if (i > 0 && idx <= prev) throw DecodeError("sparse indices not sorted");
    prev = idx;
    u.indices.push_back(static_cast<std::uint32_t>(idx));
    u.values.push_back(r.f32());
  }
  r.expect_done();
  return u;
}

CompactUpdate decode_sparse_varint(const nn::ParameterStore& layout,
                                   Reader& r) {
  const std::uint64_t k = r.varint();
  if (k > layout.size()) throw DecodeError("sparse entry count exceeds model");
  CompactUpdate u;
  u.form = CompactUpdate::Form::kSparse;
  u.coords = layout.size();
  u.indices.resize(k);
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < k; ++i) {
    const std::uint64_t gap = r.varint();
    const std::uint64_t idx = i == 0 ? gap : prev + gap + 1;
    if (idx >= layout.size()) throw DecodeError("sparse index out of range");
    u.indices[i] = static_cast<std::uint32_t>(idx);
    prev = idx;
  }
  u.values.resize(k);
  r.f32_run(u.values);
  r.expect_done();
  return u;
}

CompactUpdate decode_ternary(const nn::ParameterStore& layout, Reader& r,
                             std::size_t position_bits) {
  CompactUpdate u;
  u.form = CompactUpdate::Form::kSparse;
  u.coords = layout.size();
  if (r.remaining() == 0) return u;  // empty selection transmits nothing
  const std::size_t body = r.remaining();
  if (body < 4) throw DecodeError("ternary payload shorter than its μ");
  const std::uint64_t payload_bits = (body - 4) * 8;
  const std::uint64_t k = payload_bits / (position_bits + 1);
  if (k == 0 || ternary_bytes(k, position_bits) != body) {
    throw DecodeError("ternary payload length mismatch");
  }
  const float mu = r.f32();
  BitReader bits(r);
  u.indices.reserve(k);
  u.values.reserve(k);
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < k; ++i) {
    const std::uint64_t idx = bits.bits(static_cast<unsigned>(position_bits));
    if (idx >= layout.size()) throw DecodeError("ternary index out of range");
    if (i > 0 && idx <= prev) throw DecodeError("ternary indices not sorted");
    prev = idx;
    const bool negative = bits.bit();
    u.indices.push_back(static_cast<std::uint32_t>(idx));
    u.values.push_back(negative ? -mu : mu);
  }
  bits.expect_padding_zero();
  r.expect_done();
  return u;
}

CompactUpdate decode_sign_mean(const nn::ParameterStore& layout, Reader& r,
                               const Bitset* candidates) {
  const std::size_t count = candidate_total(layout.size(), candidates);
  if (r.remaining() != sign_mean_bytes(count)) {
    throw DecodeError("sign payload length mismatch");
  }
  const float scale = r.f32();
  CompactUpdate u;
  u.coords = layout.size();
  BitReader bits(r);
  if (candidates == nullptr) {
    u.form = CompactUpdate::Form::kDense;
    u.values.resize(layout.size());
    for (std::size_t i = 0; i < layout.size(); ++i) {
      u.values[i] = bits.bit() ? -scale : scale;
    }
  } else {
    u.form = CompactUpdate::Form::kBitmap;
    u.present = *candidates;
    u.values.reserve(count);
    for_each_candidate(layout.size(), candidates, [&](std::size_t) {
      u.values.push_back(bits.bit() ? -scale : scale);
    });
    u.build_rank_directory();
  }
  bits.expect_padding_zero();
  r.expect_done();
  return u;
}

CompactUpdate decode_int8_dense(const nn::ParameterStore& layout, Reader& r,
                                const Bitset* candidates) {
  const std::size_t count = candidate_total(layout.size(), candidates);
  if (r.remaining() != int8_dense_bytes(count)) {
    throw DecodeError("int8 payload length mismatch");
  }
  const float scale = r.f32();
  CompactUpdate u;
  u.coords = layout.size();
  auto dequant = [&] {
    const auto q = static_cast<std::int8_t>(r.u8());
    // Same expression the quantizer used client-side, so the dequantized
    // float is bit-identical to what it trained with.
    return static_cast<float>(q) * scale;
  };
  if (candidates == nullptr) {
    u.form = CompactUpdate::Form::kDense;
    u.values.resize(layout.size());
    for (std::size_t i = 0; i < layout.size(); ++i) u.values[i] = dequant();
  } else {
    u.form = CompactUpdate::Form::kBitmap;
    u.present = *candidates;
    u.values.reserve(count);
    for_each_candidate(layout.size(), candidates,
                       [&](std::size_t) { u.values.push_back(dequant()); });
    u.build_rank_directory();
  }
  r.expect_done();
  return u;
}

CompactUpdate decode_pruned(const nn::ParameterStore& layout, Reader& r,
                            bool bitmap_variant) {
  const std::size_t n = layout.size();
  CompactUpdate u;
  u.form = CompactUpdate::Form::kBitmap;
  u.coords = n;
  if (bitmap_variant) {
    u.present = Bitset::from_packed(r.bytes(packed_bits_bytes(n)), n);
  } else {
    u.present = Bitset(n);
    const std::uint64_t k = r.varint();
    if (k > n) throw DecodeError("pruned entry count exceeds model");
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < k; ++i) {
      const std::uint64_t gap = r.varint();
      const std::uint64_t idx = i == 0 ? gap : prev + gap + 1;
      if (idx >= n) throw DecodeError("pruned index out of range");
      u.present.set(static_cast<std::size_t>(idx));
      prev = idx;
    }
  }
  // Kept values follow in ascending coordinate order, i.e. rank order.
  u.values.resize(u.present.count());
  r.f32_run(u.values);
  r.expect_done();
  u.build_rank_directory();
  return u;
}

}  // namespace

std::size_t CompactUpdate::rank(std::size_t i) const {
  FEDBIAD_DCHECK(form == Form::kBitmap, "rank() is for the bitmap form");
  FEDBIAD_DCHECK(i <= coords, "rank index out of range");
  const std::size_t dir = i / kRankStride;
  std::size_t r = dir < rank_directory.size() ? rank_directory[dir] : 0;
  const std::span<const std::uint64_t> words = present.words();
  for (std::size_t w = dir * (kRankStride / kWordBits); w < i / kWordBits;
       ++w) {
    r += static_cast<std::size_t>(std::popcount(words[w]));
  }
  const std::size_t tail = i % kWordBits;
  if (tail != 0) {
    r += static_cast<std::size_t>(std::popcount(
        words[i / kWordBits] & ((std::uint64_t{1} << tail) - 1)));
  }
  return r;
}

void CompactUpdate::build_rank_directory() {
  rank_directory.clear();
  if (form != Form::kBitmap) return;
  const std::span<const std::uint64_t> words = present.words();
  const std::size_t blocks = (coords + kRankStride - 1) / kRankStride;
  rank_directory.reserve(blocks);
  std::uint32_t running = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    rank_directory.push_back(running);
    const std::size_t w0 = b * (kRankStride / kWordBits);
    const std::size_t w1 =
        std::min(words.size(), w0 + kRankStride / kWordBits);
    for (std::size_t w = w0; w < w1; ++w) {
      running += static_cast<std::uint32_t>(std::popcount(words[w]));
    }
  }
}

void CompactUpdate::clear() {
  form = Form::kEmpty;
  coords = 0;
  present = Bitset();
  indices.clear();
  indices.shrink_to_fit();
  values.clear();
  values.shrink_to_fit();
  rank_directory.clear();
  rank_directory.shrink_to_fit();
}

CompactUpdate decode_update_compact(const nn::ParameterStore& layout,
                                    const Payload& payload,
                                    const Bitset* candidates) {
  Reader r(payload.bytes);
  const std::size_t position_bits = payload.aux == 0 ? 64 : payload.aux;
  switch (payload.kind) {
    case PayloadKind::kDenseF32:
      return decode_dense(layout, r);
    case PayloadKind::kRowMasked:
      return decode_row_masked(layout, r);
    case PayloadKind::kSparseFixed:
      check_position_bits(position_bits);
      return decode_sparse_fixed(layout, r, position_bits);
    case PayloadKind::kSparseVarint:
      return decode_sparse_varint(layout, r);
    case PayloadKind::kTernary:
      check_position_bits(position_bits);
      return decode_ternary(layout, r, position_bits);
    case PayloadKind::kSignMean:
      return decode_sign_mean(layout, r, candidates);
    case PayloadKind::kInt8Dense:
      return decode_int8_dense(layout, r, candidates);
    case PayloadKind::kPrunedBitmap:
      return decode_pruned(layout, r, true);
    case PayloadKind::kPrunedVarint:
      return decode_pruned(layout, r, false);
    case PayloadKind::kSubModel:
      break;  // needs the strategy's WidthPlan; fall through to the error
  }
  throw DecodeError(std::string("payload kind ") + to_string(payload.kind) +
                    " has no layout-generic decoder");
}

void decode_dense_f32(std::span<const std::uint8_t> bytes,
                      std::span<float> out) {
  Reader r(bytes);
  read_dense(r, out);
}

Decoded expand(const CompactUpdate& update) {
  Decoded d;
  d.values.assign(update.coords, 0.0F);
  d.present = Bitset(update.coords);
  switch (update.form) {
    case CompactUpdate::Form::kEmpty:
      break;
    case CompactUpdate::Form::kDense:
      FEDBIAD_CHECK(update.values.size() == update.coords,
                    "dense compact update size mismatch");
      d.values = update.values;
      d.present.assign(update.coords, true);
      break;
    case CompactUpdate::Form::kBitmap: {
      FEDBIAD_CHECK(update.present.size() == update.coords,
                    "bitmap compact update size mismatch");
      d.present = update.present;
      std::size_t c = 0;
      for (std::size_t i = 0; i < update.coords; ++i) {
        if (update.present.test(i)) d.values[i] = update.values[c++];
      }
      FEDBIAD_CHECK(c == update.values.size(),
                    "bitmap compact update value count mismatch");
      break;
    }
    case CompactUpdate::Form::kSparse:
      FEDBIAD_CHECK(update.indices.size() == update.values.size(),
                    "sparse compact update index/value mismatch");
      for (std::size_t c = 0; c < update.indices.size(); ++c) {
        d.values[update.indices[c]] = update.values[c];
        d.present.set(update.indices[c]);
      }
      break;
  }
  return d;
}

}  // namespace fedbiad::wire
