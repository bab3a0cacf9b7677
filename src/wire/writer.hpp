// Byte-level wire encoding primitives.
//
// Writer appends little-endian fixed-width fields, LEB128 varints, raw byte
// runs, and (through BitWriter) sub-byte bit runs to a growing buffer. The
// encoding is platform-independent: fixed-width fields are assembled with
// explicit shifts (bulk float runs take a memcpy fast path on little-endian
// hosts), so a payload produced here decodes identically everywhere.
//
// The matching bounds-checked decoders live in wire/reader.hpp.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace fedbiad::wire {

class Writer {
 public:
  /// Sizes the buffer for `n` bytes up front, so an encoder that knows its
  /// output size hands over a payload without growth slack.
  void reserve(std::size_t n) { buf_.reserve(n); }

  void u8(std::uint8_t v) { buf_.push_back(v); }

  // Multi-byte fields grow the buffer once and store through the resized
  // span rather than chaining push_back (faster, and it sidesteps GCC's
  // stringop-overflow false positive on inlined push_back under UBSan).
  void u16(std::uint16_t v) { fixed<2>(v); }
  void u32(std::uint32_t v) { fixed<4>(v); }
  void u64(std::uint64_t v) { fixed<8>(v); }

  void f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  /// LEB128: 7 value bits per byte, high bit = continuation.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80U);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void bytes(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  /// Bulk little-endian f32 run (the payload bodies are dominated by these).
  void f32_run(std::span<const float> values) {
    if (values.empty()) return;  // empty spans may carry a null data()
    if constexpr (std::endian::native == std::endian::little) {
      const std::size_t old = buf_.size();
      buf_.resize(old + values.size() * sizeof(float));
      std::memcpy(buf_.data() + old, values.data(),
                  values.size() * sizeof(float));
    } else {
      for (const float v : values) f32(v);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

  [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(buf_); }

 private:
  template <std::size_t N>
  void fixed(std::uint64_t v) {
    const std::size_t old = buf_.size();
    buf_.resize(old + N);
    for (std::size_t i = 0; i < N; ++i) {
      buf_[old + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  std::vector<std::uint8_t> buf_;
};

/// Sub-byte appends on top of a Writer, LSB-first within each byte (bit i of
/// the stream lives in byte i/8 at position i%8 — the same convention the
/// packed row-pattern β uses). flush() zero-pads the final partial byte.
class BitWriter {
 public:
  explicit BitWriter(Writer& w) : w_(w) {}
  BitWriter(const BitWriter&) = delete;
  BitWriter& operator=(const BitWriter&) = delete;
  ~BitWriter() { flush(); }

  void bits(std::uint64_t v, unsigned n) {
    FEDBIAD_DCHECK(n <= 64, "bit run too wide");
    FEDBIAD_DCHECK(n == 64 || (v >> n) == 0, "value exceeds bit width");
    while (n > 0) {
      const unsigned take = n < 8U - fill_ ? n : 8U - fill_;
      acc_ |= static_cast<std::uint32_t>(v & ((1U << take) - 1U)) << fill_;
      fill_ += take;
      v >>= take;
      n -= take;
      if (fill_ == 8) {
        w_.u8(static_cast<std::uint8_t>(acc_));
        acc_ = 0;
        fill_ = 0;
      }
    }
  }

  void bit(bool b) { bits(b ? 1 : 0, 1); }

  void flush() {
    if (fill_ > 0) {
      w_.u8(static_cast<std::uint8_t>(acc_));
      acc_ = 0;
      fill_ = 0;
    }
  }

 private:
  Writer& w_;
  std::uint32_t acc_ = 0;
  unsigned fill_ = 0;
};

}  // namespace fedbiad::wire
