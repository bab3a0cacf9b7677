// Decoded client updates and the parser that produces them.
//
// decode_update_compact reads every layout-generic wire kind into the
// O(transmitted) form it was sent in, and is the only function that does
// (kSubModel, which needs a width plan, has its own parser in
// baselines/unit_mask.hpp): its bounds checks and DecodeError messages are
// the wire's rejection contract. A CompactUpdate stores only what the
// client actually transmitted, in one of three forms:
//
//   kDense   every coordinate present; `values` holds all N floats and no
//            presence structure is stored (the aggregator takes the all-ones
//            word fast path unconditionally).
//   kBitmap  `present` is the 1-bit-per-coordinate set and `values` holds
//            the present coordinates' floats in ascending-coordinate (rank)
//            order. A rank directory sampled every kRankStride bits makes
//            rank(i) O(kRankStride / 64) so block-parallel aggregation can
//            start mid-stream.
//   kSparse  strictly ascending `indices` with parallel `values` — the
//            natural form of the sparse/ternary wire kinds.
//
// It never allocates O(N) unless the payload itself carries O(N) data.
// Code that wants the wide view (a dense length-N vector plus presence set;
// tests and their dense aggregation oracle) derives it with expand().
//
// Where the wire already carries the values as a run of f32 (kDense, the
// row-masked and pruned kBitmap kinds, the varint-sparse run, kSubModel),
// the update borrows them: values() is a slice of the payload, so of the
// frame a server received it in, and nothing is copied. Such a run starts
// wherever the frame puts it, at any byte, so values are read through
// F32Ptr's unaligned loads; no code forms a float* to them. Kinds whose
// values are computed (ternary, sign, int8, fixed-width sparse) own theirs,
// as does every update on a big-endian host, which byte-swaps a copy.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "nn/parameter_store.hpp"
#include "wire/bitset.hpp"
#include "wire/reader.hpp"
#include "wire/shared_bytes.hpp"
#include "wire/update_codec.hpp"

namespace fedbiad::wire {

/// A pointer to native-order f32 values at any byte alignment. It loads
/// them with memcpy, which compiles to a plain (unaligned) load.
class F32Ptr {
 public:
  F32Ptr() = default;
  /// Aligned floats are one case of unaligned ones.
  F32Ptr(const float* values) noexcept
      : bytes_(reinterpret_cast<const std::uint8_t*>(values)) {}
  explicit F32Ptr(const std::uint8_t* bytes) noexcept : bytes_(bytes) {}

  [[nodiscard]] float operator[](std::size_t i) const noexcept {
    float v;
    std::memcpy(&v, bytes_ + i * sizeof(float), sizeof v);
    return v;
  }
  [[nodiscard]] F32Ptr operator+(std::size_t i) const noexcept {
    return F32Ptr(bytes_ + i * sizeof(float));
  }
  [[nodiscard]] const std::uint8_t* bytes() const noexcept { return bytes_; }

 private:
  const std::uint8_t* bytes_ = nullptr;
};

/// `count` values at an F32Ptr: a CompactUpdate's values().
struct F32Run {
  F32Ptr data;
  std::size_t count = 0;

  [[nodiscard]] std::size_t size() const noexcept { return count; }
  [[nodiscard]] bool empty() const noexcept { return count == 0; }
  [[nodiscard]] float operator[](std::size_t i) const noexcept {
    return data[i];
  }
  /// The values as aligned floats, copied.
  [[nodiscard]] std::vector<float> to_vector() const;
};

/// The wide view of a decoded payload, as expand() returns it: the dense
/// value vector (absent coordinates zeroed) and the 1-bit-per-coordinate
/// presence set.
struct Decoded {
  std::vector<float> values;
  Bitset present;
};

struct CompactUpdate {
  enum class Form : std::uint8_t { kEmpty, kDense, kBitmap, kSparse };

  /// Rank-directory sampling interval in bits. Matches the aggregator's
  /// coordinate block so a block start is at most one directory entry plus
  /// kRankStride/64 word popcounts away.
  static constexpr std::size_t kRankStride = 4096;

  Form form = Form::kEmpty;
  std::size_t coords = 0;  ///< model coordinate count N
  Bitset present;          ///< kBitmap only
  std::vector<std::uint32_t> indices;  ///< kSparse only, strictly ascending
  /// kBitmap: rank_directory[j] = number of set bits in [0, j·kRankStride).
  std::vector<std::uint32_t> rank_directory;

  /// The transmitted values: all N for kDense, the present coordinates' in
  /// rank order for kBitmap, parallel to `indices` for kSparse. The one way
  /// to read them; they may sit at any byte alignment.
  [[nodiscard]] F32Run values() const noexcept {
    return {F32Ptr(value_bytes_.data()), value_bytes_.size() / sizeof(float)};
  }

  /// Makes `values` the update's values, owned by it.
  void set_values(std::vector<float> values);

  /// Makes the native-order f32 run `bytes` the update's values, sharing
  /// its storage (a received payload's frame): nothing is copied.
  void borrow_values(SharedBytes bytes);

  [[nodiscard]] std::size_t size() const noexcept { return coords; }
  [[nodiscard]] bool empty() const noexcept { return form == Form::kEmpty; }

  /// Number of transmitted coordinates.
  [[nodiscard]] std::size_t transmitted() const noexcept {
    switch (form) {
      case Form::kEmpty:
        return 0;
      case Form::kDense:
        return coords;
      case Form::kBitmap:
      case Form::kSparse:
        return values().size();
    }
    return 0;
  }

  /// kBitmap: index into `values` of the first present coordinate >= i,
  /// i.e. the popcount of `present` over [0, i). Uses the rank directory
  /// plus at most kRankStride/64 word popcounts.
  [[nodiscard]] std::size_t rank(std::size_t i) const;

  /// Rebuilds the rank directory from `present` (kBitmap only; no-op for
  /// the other forms). Decoders call this; code that fills `present` by
  /// hand must call it before aggregation.
  void build_rank_directory();

  /// Frees everything and returns to kEmpty.
  void clear();

 private:
  /// The values' bytes: owned (set_values) or a payload slice.
  SharedBytes value_bytes_;
};

/// Reads the next `count` f32 of `r`, a Reader over `payload`, into `u`'s
/// values: a borrowed slice of `payload` on a little-endian host, a
/// byte-swapped copy elsewhere. Throws DecodeError when fewer remain.
void read_values(CompactUpdate& u, Reader& r, const SharedBytes& payload,
                 std::size_t count);

/// Decodes a payload against `layout`. `candidates` narrows the coordinate
/// set for the dense-over-candidates kinds (kSignMean/kInt8Dense) — pass
/// nullptr when every coordinate is a candidate. Malformed buffers throw
/// DecodeError. kSubModel needs the strategy's width plan — route it
/// through Strategy::decode_payload_compact.
[[nodiscard]] CompactUpdate decode_update_compact(
    const nn::ParameterStore& layout, const Payload& payload,
    const Bitset* candidates = nullptr);

/// Decodes kDenseF32 bytes straight into `out`, one float per slot: the
/// client's path from a broadcast to its model. Throws DecodeError unless
/// `bytes` holds exactly out.size() floats.
void decode_dense_f32(std::span<const std::uint8_t> bytes,
                      std::span<float> out);

/// Expands to the wide Decoded view (absent coordinates zeroed).
[[nodiscard]] Decoded expand(const CompactUpdate& update);

}  // namespace fedbiad::wire
