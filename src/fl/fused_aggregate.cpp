#include "fl/fused_aggregate.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/workspace.hpp"

namespace fedbiad::fl {

namespace fused {

namespace ref {

void accumulate_run(double* acc, double* weight_acc, const float* values,
                    const float* global, std::size_t len, double weight) {
  for (std::size_t i = 0; i < len; ++i) {
    double d = static_cast<double>(values[i]);
    if (global != nullptr) d -= static_cast<double>(global[i]);
    acc[i] += weight * d;
    weight_acc[i] += weight;
  }
}

void accumulate_sparse(double* acc, double* weight_acc,
                       const std::uint32_t* indices, const float* values,
                       const float* global, std::size_t count,
                       std::size_t base, double weight) {
  for (std::size_t c = 0; c < count; ++c) {
    double d = static_cast<double>(values[c]);
    if (global != nullptr) d -= static_cast<double>(global[indices[c]]);
    const std::size_t i = indices[c] - base;
    acc[i] += weight * d;
    weight_acc[i] += weight;
  }
}

void add_mean_run(float* global, const double* acc, const double* weight,
                  std::size_t len, double rate) {
  for (std::size_t i = 0; i < len; ++i) {
    if (weight[i] > 0.0) {
      global[i] += static_cast<float>(rate * acc[i] / weight[i]);
    }
  }
}

void store_mean_run(float* global, const double* acc, const double* weight,
                    std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    if (weight[i] > 0.0) global[i] = static_cast<float>(acc[i] / weight[i]);
  }
}

}  // namespace ref

namespace {

// GNU vector extensions: width-agnostic source, codegen picks the lanes the
// TU's -march allows (256-bit on x86-64-v3, split 128-bit pairs on the
// portable build). This file is compiled with -ffp-contract=off, so the
// w*v + acc below stays a distinct IEEE multiply and add per lane — never
// an FMA — matching the scalar ref:: kernels bit for bit.
using V4d = double __attribute__((vector_size(32)));
using V4f = float __attribute__((vector_size(16)));
// Lane masks (all ones where true): a V4d comparison's result type, and
// its narrowing to float lanes.
using V4l = decltype(V4d{} > V4d{});
using V4i = std::int32_t __attribute__((vector_size(16)));

// Widen four floats to four doubles. The element-wise initializer — not
// __builtin_convertvector on a loaded V4f — is deliberate: GCC 12 lowers
// the convertvector form to two half-width converts plus an insert, while
// this form folds into the single full-width convert-from-memory
// instruction. Conversion is exact either way, so the contract is safe.
// The helpers take and hand back vectors by reference: passing a 32-byte
// vector by value trips GCC's -Wpsabi ABI note on the portable (no-AVX)
// build, an error under FEDBIAD_WERROR.
inline void widen4(const float* p, V4d& out) noexcept {
  out = V4d{static_cast<double>(p[0]), static_cast<double>(p[1]),
            static_cast<double>(p[2]), static_cast<double>(p[3])};
}

// p[0..4) += v, lane by lane.
inline void add4d(double* p, const V4d& v) noexcept {
  V4d acc;
  std::memcpy(&acc, p, sizeof acc);
  acc += v;
  std::memcpy(p, &acc, sizeof acc);
}

inline void load4d(const double* p, V4d& out) noexcept {
  std::memcpy(&out, p, sizeof out);
}

// Rounds the four quotients q to float and adds them to g[0..4) (kAdd) or
// stores them over it, in the lanes `live` marks. The other lanes are
// written back with their own bits: a per-lane select stands in for the
// scalar loop's `if`, so the (possibly 0/0) quotient of a dead lane is
// computed but never lands.
template <bool kAdd>
inline void write4(float* g, const V4d& q, const V4l& live) noexcept {
  V4f old;
  std::memcpy(&old, g, sizeof old);
  V4f fresh = __builtin_convertvector(q, V4f);
  if constexpr (kAdd) fresh = old + fresh;
  const V4i keep = __builtin_convertvector(live, V4i);
  const V4f out = keep ? fresh : old;
  std::memcpy(g, &out, sizeof out);
}

constexpr V4l kAllLanes = {-1, -1, -1, -1};

/// One non-empty update of an all-dense merge batch.
struct DenseTerm {
  const float* values = nullptr;  ///< all N coordinates
  double weight = 0.0;
  bool is_update = false;
};

/// The register merge of ShardedAccumulator::merge over coordinates
/// [begin, end): per coordinate, acc = 0.0 then acc += w * delta for each
/// term in batch order, against the global as it was before the merge, and
/// g += (float)(mixing_rate * acc / weight_sum). `weight_sum` is 0.0 plus
/// every term's weight in batch order, and must be > 0.
void merge_dense_range(float* global, std::span<const DenseTerm> terms,
                       std::size_t begin, std::size_t end, double weight_sum,
                       double mixing_rate) {
  const V4d mr = {mixing_rate, mixing_rate, mixing_rate, mixing_rate};
  const V4d ws = {weight_sum, weight_sum, weight_sum, weight_sum};
  std::size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    V4d g;
    widen4(global + i, g);
    V4d acc = {};  // +0.0, then added to: never seeded with a product
    for (const DenseTerm& t : terms) {
      V4d v;
      widen4(t.values + i, v);
      const V4d w = {t.weight, t.weight, t.weight, t.weight};
      acc += t.is_update ? w * v : w * (v - g);
    }
    write4<true>(global + i, mr * acc / ws, kAllLanes);
  }
  for (; i < end; ++i) {
    const double g = static_cast<double>(global[i]);
    double acc = 0.0;
    for (const DenseTerm& t : terms) {
      const double v = static_cast<double>(t.values[i]);
      acc += t.weight * (t.is_update ? v : v - g);
    }
    global[i] += static_cast<float>(mixing_rate * acc / weight_sum);
  }
}

// The run and sparse kernels with the delta as a compile-time flag: with
// kDelta the global is widened and subtracted lane by lane, without it the
// global is never read.
template <bool kDelta>
void accumulate_run_lanes(double* acc, double* weight_acc, const float* values,
                          const float* global, std::size_t len,
                          double weight) {
  const V4d wv = {weight, weight, weight, weight};
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    V4d d;
    widen4(values + i, d);
    if constexpr (kDelta) {
      V4d g;
      widen4(global + i, g);
      d = d - g;
    }
    add4d(acc + i, wv * d);
    add4d(weight_acc + i, wv);
  }
  if (i < len) {
    ref::accumulate_run(acc + i, weight_acc + i, values + i,
                        kDelta ? global + i : nullptr, len - i, weight);
  }
}

template <bool kDelta>
void accumulate_sparse_lanes(double* acc, double* weight_acc,
                             const std::uint32_t* indices, const float* values,
                             const float* global, std::size_t count,
                             std::size_t base, double weight) {
  const V4d wv = {weight, weight, weight, weight};
  std::size_t c = 0;
  // Vectorize the multiply; scatter stays scalar. Indices are strictly
  // ascending, so the four destinations of one batch are distinct and the
  // scalar adds land in the same per-coordinate order as ref::.
  for (; c + 4 <= count; c += 4) {
    V4d d;
    widen4(values + c, d);
    if constexpr (kDelta) {
      const V4d g = {static_cast<double>(global[indices[c]]),
                     static_cast<double>(global[indices[c + 1]]),
                     static_cast<double>(global[indices[c + 2]]),
                     static_cast<double>(global[indices[c + 3]])};
      d = d - g;
    }
    const V4d prod = wv * d;
    for (std::size_t t = 0; t < 4; ++t) {
      const std::size_t i = indices[c + t] - base;
      acc[i] += prod[t];
      weight_acc[i] += weight;
    }
  }
  if (c < count) {
    ref::accumulate_sparse(acc, weight_acc, indices + c, values + c, global,
                           count - c, base, weight);
  }
}

}  // namespace

void accumulate_run(double* acc, double* weight_acc, const float* values,
                    const float* global, std::size_t len, double weight) {
  if (global != nullptr) {
    accumulate_run_lanes<true>(acc, weight_acc, values, global, len, weight);
  } else {
    accumulate_run_lanes<false>(acc, weight_acc, values, nullptr, len, weight);
  }
}

void accumulate_sparse(double* acc, double* weight_acc,
                       const std::uint32_t* indices, const float* values,
                       const float* global, std::size_t count,
                       std::size_t base, double weight) {
  if (global != nullptr) {
    accumulate_sparse_lanes<true>(acc, weight_acc, indices, values, global,
                                  count, base, weight);
  } else {
    accumulate_sparse_lanes<false>(acc, weight_acc, indices, values, nullptr,
                                   count, base, weight);
  }
}

void add_mean_run(float* global, const double* acc, const double* weight,
                  std::size_t len, double rate) {
  const V4d r = {rate, rate, rate, rate};
  const V4d zero = {};
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    V4d a, w;
    load4d(acc + i, a);
    load4d(weight + i, w);
    write4<true>(global + i, r * a / w, w > zero);
  }
  if (i < len) {
    ref::add_mean_run(global + i, acc + i, weight + i, len - i, rate);
  }
}

void store_mean_run(float* global, const double* acc, const double* weight,
                    std::size_t len) {
  const V4d zero = {};
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    V4d a, w;
    load4d(acc + i, a);
    load4d(weight + i, w);
    write4<false>(global + i, a / w, w > zero);
  }
  if (i < len) ref::store_mean_run(global + i, acc + i, weight + i, len - i);
}

}  // namespace fused

namespace {

constexpr std::size_t kWordBits = wire::Bitset::kWordBits;

/// Walks the transmitted coordinates of bitmap update `u` inside the
/// kBlock-aligned window [b0, b0 + len): zero words are skipped, all-ones
/// words are handed to `run(i, vals, kWordBits)` (a contiguous slice of the
/// value array — the vectorized fast path), and mixed words walk their set
/// bits via countr_zero into `one(i, v)`. b0 % kWordBits == 0 is required,
/// which the block-owner partitioning guarantees; b0 % kRankStride == 0
/// additionally makes the rank() below a single directory probe.
template <typename Run, typename One>
void walk_bitmap_aligned(const wire::CompactUpdate& u, std::size_t b0,
                         std::size_t len, Run&& run, One&& one) {
  const std::span<const std::uint64_t> words = u.present.words();
  const float* vals = u.values.data();
  std::size_t c = u.rank(b0);
  const std::size_t end = b0 + len;
  std::size_t i = b0;
  for (; i + kWordBits <= end; i += kWordBits) {
    std::uint64_t bits = words[i / kWordBits];
    if (bits == 0) continue;
    if (bits == ~std::uint64_t{0}) {
      run(i, vals + c, kWordBits);
      c += kWordBits;
      continue;
    }
    while (bits != 0) {
      const auto t = static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      one(i + t, vals[c++]);
    }
  }
  for (; i < end; ++i) {
    if (u.present.test(i)) one(i, vals[c++]);
  }
}

/// In-window slice of a sparse update: index range [c0, c0 + count) covers
/// exactly the coordinates of `u` falling in [b0, b0 + len).
struct SparseSlice {
  std::size_t c0 = 0;
  std::size_t count = 0;
};

SparseSlice sparse_slice(const wire::CompactUpdate& u, std::size_t b0,
                         std::size_t len) {
  const auto first = std::lower_bound(u.indices.begin(), u.indices.end(),
                                      static_cast<std::uint32_t>(b0));
  const auto last = std::lower_bound(first, u.indices.end(),
                                     static_cast<std::uint32_t>(b0 + len));
  return {static_cast<std::size_t>(first - u.indices.begin()),
          static_cast<std::size_t>(last - first)};
}

/// The one per-block accumulate walk of the committer. Over the
/// kBlock-aligned window [b0, b0 + len) it zeroes acc and weight, then adds
/// every update in batch order by its compact form. With `global` set (the
/// merge), a parameter payload contributes its delta against it; the
/// caller writes the block back only after the walk, so every delta sees
/// the pre-merge value — the coordinate-outer reference's schedule.
void accumulate_block(double* acc, double* weight,
                      std::span<const FusedUpdate> updates,
                      const float* global, std::size_t b0, std::size_t len) {
  std::fill_n(acc, len, 0.0);
  std::fill_n(weight, len, 0.0);
  for (const FusedUpdate& fu : updates) {
    const wire::CompactUpdate& u = *fu.update;
    const double w = fu.weight;
    // Update payloads already are deltas.
    const float* g = fu.is_update ? nullptr : global;
    const auto g_at = [g](std::size_t i) { return g ? g + i : nullptr; };
    switch (u.form) {
      case wire::CompactUpdate::Form::kEmpty:
        break;
      case wire::CompactUpdate::Form::kDense:
        fused::accumulate_run(acc, weight, u.values.data() + b0, g_at(b0),
                              len, w);
        break;
      case wire::CompactUpdate::Form::kBitmap:
        walk_bitmap_aligned(
            u, b0, len,
            [&](std::size_t i, const float* v, std::size_t run_len) {
              fused::accumulate_run(acc + (i - b0), weight + (i - b0), v,
                                    g_at(i), run_len, w);
            },
            [&](std::size_t i, float v) {
              double d = static_cast<double>(v);
              if (g != nullptr) d -= static_cast<double>(g[i]);
              acc[i - b0] += w * d;
              weight[i - b0] += w;
            });
        break;
      case wire::CompactUpdate::Form::kSparse: {
        const SparseSlice s = sparse_slice(u, b0, len);
        fused::accumulate_sparse(acc, weight, u.indices.data() + s.c0,
                                 u.values.data() + s.c0, g, s.count, b0, w);
        break;
      }
    }
  }
}

/// Commits `updates` block by block: the parallel loop iterates whole
/// kBlock blocks (block-owner partitioning, see the header), each chunk
/// takes one 64-byte-aligned panel pair from its thread's Workspace, and
/// every block is accumulated by accumulate_block and handed to
/// write_back(global + b0, acc, weight, len).
template <typename WriteBack>
void commit_blocks(std::span<float> global_params,
                   std::span<const FusedUpdate> updates, const float* global,
                   const WriteBack& write_back) {
  constexpr std::size_t kBlock = ShardedAccumulator::kBlock;
  constexpr std::size_t kLine = 64;
  constexpr std::size_t kPanelBytes = 2 * kBlock * sizeof(double);
  const std::size_t n = global_params.size();
  const std::size_t nblocks = (n + kBlock - 1) / kBlock;
  // The grain scales the old per-coordinate estimate by kBlock, keeping
  // the serial threshold for small models unchanged.
  parallel::parallel_for(
      nblocks,
      [&](std::size_t bbegin, std::size_t bend) {
        tensor::Workspace::Scope scope;
        // One cache line over, then rounded up to the line.
        void* raw = tensor::Workspace::local()
                        .alloc<double>(2 * kBlock + kLine / sizeof(double))
                        .data();
        std::size_t space = kPanelBytes + kLine;
        auto* acc = static_cast<double*>(
            std::align(kLine, kPanelBytes, raw, space));
        double* weight = acc + kBlock;
        for (std::size_t b = bbegin; b < bend; ++b) {
          const std::size_t b0 = b * kBlock;
          const std::size_t len = std::min(kBlock, n - b0);
          accumulate_block(acc, weight, updates, global, b0, len);
          write_back(global_params.data() + b0, acc, weight, len);
        }
      },
      kBlock * updates.size() * 2);
}

}  // namespace

void ShardedAccumulator::aggregate(std::span<float> global_params,
                                   std::span<const FusedUpdate> updates,
                                   AggregationRule rule) {
  FEDBIAD_CHECK(!updates.empty(), "aggregate with no client outcomes");
  const std::size_t n = global_params.size();
  const bool is_update = updates.front().is_update;
  double total_weight = 0.0;
  for (const FusedUpdate& u : updates) {
    FEDBIAD_CHECK(u.update != nullptr && u.update->size() == n,
                  "client outcome size mismatch");
    FEDBIAD_CHECK(u.is_update == is_update,
                  "cannot mix parameter and update outcomes");
    FEDBIAD_CHECK(u.weight > 0.0, "client outcome without samples");
    total_weight += u.weight;
  }
  FEDBIAD_CHECK(total_weight > 0.0, "aggregate with no weight");
  const bool masked = rule == AggregationRule::kMaskedAverage;
  commit_blocks(global_params, updates, nullptr,
                [&](float* g, const double* acc, double* weight,
                    std::size_t len) {
                  // kMaskedAverage divides every coordinate by the batch's
                  // total weight, transmitted or not.
                  if (masked) std::fill_n(weight, len, total_weight);
                  if (is_update) {
                    fused::add_mean_run(g, acc, weight, len, 1.0);
                  } else {
                    fused::store_mean_run(g, acc, weight, len);
                  }
                });
}

void ShardedAccumulator::merge(std::span<float> global_params,
                               std::span<const FusedUpdate> updates,
                               double mixing_rate) {
  FEDBIAD_CHECK(!updates.empty(), "staleness merge with no updates");
  const std::size_t n = global_params.size();
  using Form = wire::CompactUpdate::Form;
  std::vector<fused::DenseTerm> dense;
  double weight_sum = 0.0;
  bool all_dense = true;
  for (const FusedUpdate& u : updates) {
    FEDBIAD_CHECK(u.update != nullptr && u.update->size() == n,
                  "client outcome size mismatch (payload not decoded?)");
    FEDBIAD_CHECK(u.weight > 0.0, "client outcome without samples");
    if (u.update->form == Form::kDense) {
      dense.push_back({u.update->values.data(), u.weight, u.is_update});
      weight_sum += u.weight;
    } else if (u.update->form != Form::kEmpty) {
      all_dense = false;
    }
  }

  if (all_dense) {
    // Every coordinate sees the same transmitting set, so the panel path's
    // per-coordinate weight sum is this one scalar; with no dense update
    // it stays 0.0 and the panel path would write nothing either.
    if (!(weight_sum > 0.0)) return;
    const std::size_t nblocks = (n + kBlock - 1) / kBlock;
    parallel::parallel_for(
        nblocks,
        [&](std::size_t bbegin, std::size_t bend) {
          fused::merge_dense_range(global_params.data(), dense,
                                   bbegin * kBlock, std::min(n, bend * kBlock),
                                   weight_sum, mixing_rate);
        },
        kBlock * updates.size() * 2);
    return;
  }

  commit_blocks(global_params, updates, global_params.data(),
                [&](float* g, const double* acc, const double* weight,
                    std::size_t len) {
                  fused::add_mean_run(g, acc, weight, len, mixing_rate);
                });
}

}  // namespace fedbiad::fl
