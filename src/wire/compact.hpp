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
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/parameter_store.hpp"
#include "wire/bitset.hpp"
#include "wire/update_codec.hpp"

namespace fedbiad::wire {

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
  std::vector<float> values;
  /// kBitmap: rank_directory[j] = number of set bits in [0, j·kRankStride).
  std::vector<std::uint32_t> rank_directory;

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
        return values.size();
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
};

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
