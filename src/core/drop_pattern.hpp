// Row-wise dropping patterns β ∈ {0,1}^J (paper §III-C).
//
// A pattern covers every weight row of a model (J = store.droppable_rows()
// in paper notation). "Eligibility" narrows which rows a given strategy may
// drop: FedBIAD drops any row including recurrent connections;
// FedDrop/AFD are restricted to fully connected layers (paper §V-A).
// Ineligible rows are always kept.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "nn/parameter_store.hpp"
#include "tensor/rng.hpp"

namespace fedbiad::core {

/// Predicate deciding whether a row group participates in dropout for a
/// particular strategy.
using RowFilter = std::function<bool(const nn::RowGroup&)>;

/// FedBIAD: every group, recurrent connections included.
[[nodiscard]] RowFilter eligible_all();

/// FedDrop/AFD: fully connected (kDense) groups only.
[[nodiscard]] RowFilter eligible_dense();

class DropPattern {
 public:
  DropPattern() = default;

  /// All-kept pattern over `rows` weight rows.
  explicit DropPattern(std::size_t rows) : kept_(rows, 1) {}

  /// Samples a pattern from Z^S_N: within every eligible group exactly
  /// round(p·rows) rows are dropped uniformly at random; ineligible rows are
  /// kept. Sampling per group keeps each layer at the configured density, so
  /// the upload size is exactly (1-p)× the eligible payload.
  static DropPattern sample(const nn::ParameterStore& store, double dropout_rate,
                            const RowFilter& eligible, tensor::Rng& rng);

  [[nodiscard]] std::size_t rows() const noexcept { return kept_.size(); }
  [[nodiscard]] bool kept(std::size_t j) const { return kept_[j] != 0; }
  void set(std::size_t j, bool kept) { kept_[j] = kept ? 1 : 0; }
  [[nodiscard]] std::size_t kept_count() const;
  [[nodiscard]] std::size_t dropped_count() const {
    return rows() - kept_count();
  }

  /// Zeroes the parameters of dropped rows (β ∘ U, eq. 6).
  void apply_to_params(nn::ParameterStore& store) const;

  /// Clears `present[i]` for every coordinate belonging to a dropped row.
  /// Other coordinates are left untouched.
  void mark_presence(const nn::ParameterStore& store,
                     std::span<std::uint8_t> present) const;

  /// Wire size of a client upload under this pattern: kept rows at 4
  /// bytes/weight plus the packed 1-bit-per-row pattern itself (paper §IV-B
  /// step 3).
  [[nodiscard]] std::uint64_t upload_bytes(
      const nn::ParameterStore& store) const;

  [[nodiscard]] const std::vector<std::uint8_t>& bits() const noexcept {
    return kept_;
  }

  bool operator==(const DropPattern&) const = default;

 private:
  std::vector<std::uint8_t> kept_;  ///< kept_[j] == 1 ⇔ β_j = 1
};

/// Upload size of a full, uncompressed model (FedAvg baseline).
[[nodiscard]] std::uint64_t dense_model_bytes(const nn::ParameterStore& store);

}  // namespace fedbiad::core
