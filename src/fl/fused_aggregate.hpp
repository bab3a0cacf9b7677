// Fused decode→aggregate: commits compact client updates straight into the
// global model without ever materializing a dense per-client value vector.
//
// The dense rule, the test oracle reference::aggregate (tests/aggregate.hpp),
// streams dense length-N `values`/`present` pairs — O(model) bytes per
// pending client, which is what caps how many uploads the event-driven
// engine could hold in flight. The fused path takes
// wire::CompactUpdate views (O(transmitted) each) and accumulates them with
// the *identical* floating-point operation sequence: coordinate blocks
// outer, clients middle in batch order, coordinates inner ascending, every
// contribution added as `w * (double)v` into a double panel exactly as the
// dense kernel does. Per coordinate the adds land in the same order with
// the same operands, so the committed global is bit-identical to the dense
// path — tests/test_scale.cpp pins this per payload form, and the 12
// engine goldens pin it end to end.
//
// One walk serves both commits. Per block it zeroes an accumulator pair
// (sums and transmitted weight), adds each update by its compact form —
// a dense run, bitmap words, or a sparse slice — taking the delta against
// the pre-merge global only for merge()'s parameter payloads, and hands
// the block to the caller's write-back: aggregate() divides by the
// per-coordinate weight (kMaskedAverage fills the weight panel with the
// batch's total weight), merge() steps the global by mixing_rate times
// the weighted mean. Each parallel chunk takes its panel pair from its
// thread's tensor::Workspace, so the panels are thread-private, 64-byte
// aligned and reused across rounds; the committer itself holds no state.
//
// Partitioning is block-owner: the parallel loop iterates whole kBlock
// panels, so every block starts at a kBlock-aligned coordinate regardless
// of thread count. That buys two things. Determinism: a block is touched by
// exactly one thread and clients are walked in batch (slot) order within
// it, so the per-coordinate double-add order — and with it every golden,
// checkpoint, and conservation ledger — is a function of the batch alone,
// never of how many workers ran. Speed: kBlock == CompactUpdate::kRankStride,
// so entering a bitmap block costs a single rank-directory probe with no
// popcount remainder walk.
//
// merge() has a second, panel-free path. When every non-empty update of
// the batch is kDense — FedAsync's single upload, or FedBuff's K uploads,
// in parameter or delta form — each 4-lane group of coordinates is merged
// in registers: the pre-merge global is read once, the updates are walked
// in batch order into an `acc` that starts at 0.0, and the quotient is
// written straight back. Per coordinate this is the panel path's exact
// IEEE sequence: acc = 0.0, acc += w·delta per update in batch order,
// wsum = 0.0, wsum += w likewise, and g += (float)(mixing_rate·acc / wsum)
// where wsum > 0. Dense updates cover every coordinate, so wsum is one
// scalar for the whole batch, summed once in the same order. The
// accumulator must start at 0.0 and be added to, never be seeded with the
// first product: 0.0 + (-0.0) is +0.0, so where a delta upload sends -0.0
// against a -0.0 global, a seeded accumulator would leave the global at
// -0.0 while the panel path makes it +0.0. Bitmap, sparse and mixed
// batches take the panels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "fl/strategy.hpp"
#include "wire/compact.hpp"

namespace fedbiad::fl {

/// Inner kernels of the fused committer, compiled -ffp-contract=off on
/// every build and with wide vector lanes where the target has them (see
/// src/CMakeLists.txt): per coordinate they execute exactly
/// `acc += w * (double)v` as separate IEEE multiply and add, so their
/// results are bit-identical to the scalar fused::ref:: versions below and
/// to the dense test oracle in tests/aggregate.cpp.
/// Vectorization batches *across* coordinates only — the operation sequence
/// at any one coordinate is unchanged. Values arrive as wire::F32Ptr: a
/// received update's values are a slice of its frame at any byte
/// alignment, so every kernel loads them unaligned.
namespace fused {

/// Contiguous run: acc[i] += weight * d[i] and weight_acc[i] += weight for
/// i in [0, len), where d[i] is (double)values[i], or with `global` set
/// (double)values[i] - (double)global[i] — a parameter payload's delta.
void accumulate_run(double* acc, double* weight_acc, wire::F32Ptr values,
                    const float* global, std::size_t len, double weight);

/// Sparse gather: for c in [0, count), acc[indices[c] - base] +=
/// weight * d[c] (and weight_acc likewise), with d[c] as above but the
/// global read at the absolute coordinate indices[c]. `indices` must be
/// strictly ascending and within [base, base + kBlock).
void accumulate_sparse(double* acc, double* weight_acc,
                       const std::uint32_t* indices, wire::F32Ptr values,
                       const float* global, std::size_t count,
                       std::size_t base, double weight);

// Write-back kernels: the end of every panel block. Each coordinate takes
// one true IEEE double divide and a rounding to float; lanes whose weight
// is not > 0 keep their global bits (a lane mask, not a branch).

/// Where weight[i] > 0, global[i] += (float)(rate * acc[i] / weight[i]).
/// At rate 1.0 this is the plain mean: 1.0 * acc is exact.
void add_mean_run(float* global, const double* acc, const double* weight,
                  std::size_t len, double rate);

/// Where weight[i] > 0, global[i] = (float)(acc[i] / weight[i]).
void store_mean_run(float* global, const double* acc, const double* weight,
                    std::size_t len);

/// Scalar reference kernels — the loops the vector versions must match
/// bitwise (tests/test_scale.cpp pins them against each other on ragged
/// lengths).
namespace ref {
void accumulate_run(double* acc, double* weight_acc, wire::F32Ptr values,
                    const float* global, std::size_t len, double weight);
void accumulate_sparse(double* acc, double* weight_acc,
                       const std::uint32_t* indices, wire::F32Ptr values,
                       const float* global, std::size_t count,
                       std::size_t base, double weight);
void add_mean_run(float* global, const double* acc, const double* weight,
                  std::size_t len, double rate);
void store_mean_run(float* global, const double* acc, const double* weight,
                    std::size_t len);
}  // namespace ref

}  // namespace fused

/// One pending update as the fused committer sees it: a borrowed compact
/// view plus the already-resolved aggregation weight. The caller owns the
/// CompactUpdate; it must outlive the commit call.
struct FusedUpdate {
  const wire::CompactUpdate* update = nullptr;
  /// Aggregation weight: |D_k| for the FedAvg-style rules, or the
  /// staleness-damped |D_k|·(1+τ)^-a for the async merge.
  double weight = 0.0;
  bool is_update = false;  ///< delta payload vs full-parameter payload
};

/// The fused committer. It holds no state: its panels live in the calling
/// threads' Workspaces for the length of one call.
class ShardedAccumulator {
 public:
  /// Coordinates per accumulator block. Equals the dense kernel's block and
  /// CompactUpdate::kRankStride, so a block start costs one rank-directory
  /// probe.
  static constexpr std::size_t kBlock = 4096;

  /// FedAvg-style commit: mirrors the test oracle reference::aggregate
  /// (tests/aggregate.hpp) bit for bit. `weight` must be each update's
  /// sample count (the dense oracle derives it from ClientOutcome::samples);
  /// total weight is their sum in batch order.
  void aggregate(std::span<float> global_params,
                 std::span<const FusedUpdate> updates, AggregationRule rule);

  /// Staleness-weighted merge (FedAsync / FedBuff): mirrors the engine's
  /// coordinate-outer merge bit for bit. Every update becomes a delta
  /// against the current global (parameter payloads subtract it), deltas
  /// are weight-averaged per coordinate over the transmitting clients, and
  /// the global takes a mixing_rate-sized step along the mean. All-dense
  /// batches merge in registers without panels (see the file comment).
  void merge(std::span<float> global_params,
             std::span<const FusedUpdate> updates, double mixing_rate);
};

}  // namespace fedbiad::fl
