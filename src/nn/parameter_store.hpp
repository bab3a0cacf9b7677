// Flat parameter storage with weight-row metadata.
//
// Every model owns exactly one ParameterStore: a contiguous float vector for
// parameters and a parallel one for gradients. Layers register "row groups"
// (one per weight matrix) describing how the flat storage decomposes into
// weight rows — the unit of FedBIAD's spike-and-slab dropout, of upload
// accounting, and of server-side reconstruction.
//
// Every row is droppable: groups are appended at the running total, so the
// J rows, taken in global index order j, tile [0, size()) without gaps.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace fedbiad::nn {

/// What a weight matrix is; federated-dropout strategies use this to decide
/// eligibility (e.g., FedDrop/AFD apply only to fully connected layers and
/// never to recurrent connections, paper §V-A).
enum class GroupKind {
  kDense,            ///< fully connected weight (rows = output units)
  kEmbedding,        ///< token embedding table (rows = vocabulary entries)
  kRecurrentUnit,    ///< LSTM unit rows: Wx+bias+Wh of one hidden unit
};

[[nodiscard]] const char* to_string(GroupKind kind) noexcept;

/// One weight matrix inside the flat parameter vector.
struct RowGroup {
  std::string name;      ///< diagnostic name, e.g. "lstm0.Wx"
  GroupKind kind = GroupKind::kDense;
  std::size_t rows = 0;     ///< number of weight rows (dropout granularity)
  std::size_t row_len = 0;  ///< floats per row (bias tied into the row, if any)
  std::size_t offset = 0;   ///< first element inside the flat vector

  [[nodiscard]] std::size_t size() const noexcept { return rows * row_len; }
};

/// Reference to one weight row: which group and which row within it.
struct RowRef {
  std::size_t group = 0;
  std::size_t row = 0;
};

class ParameterStore {
 public:
  /// Registers a weight matrix of `rows` × `row_len` floats right after the
  /// previous group; its rows take the next global row indices. Must be
  /// called before finalize(). Returns the group index.
  std::size_t add_group(std::string name, GroupKind kind, std::size_t rows,
                        std::size_t row_len);

  /// Allocates parameter and gradient storage. No further add_group calls.
  void finalize();

  [[nodiscard]] bool finalized() const noexcept { return finalized_; }
  [[nodiscard]] std::size_t size() const noexcept { return params_.size(); }
  [[nodiscard]] const std::vector<RowGroup>& groups() const noexcept {
    return groups_;
  }
  [[nodiscard]] const RowGroup& group(std::size_t g) const;

  [[nodiscard]] std::span<float> params() noexcept { return params_; }
  [[nodiscard]] std::span<const float> params() const noexcept {
    return params_;
  }
  [[nodiscard]] std::span<float> grads() noexcept { return grads_; }
  [[nodiscard]] std::span<const float> grads() const noexcept {
    return grads_;
  }

  [[nodiscard]] std::span<float> group_params(std::size_t g);
  [[nodiscard]] std::span<const float> group_params(std::size_t g) const;
  [[nodiscard]] std::span<float> group_grads(std::size_t g);

  [[nodiscard]] std::span<float> row_params(std::size_t g, std::size_t r);
  [[nodiscard]] std::span<const float> row_params(std::size_t g,
                                                  std::size_t r) const;
  [[nodiscard]] std::span<float> row_grads(std::size_t g, std::size_t r);

  /// Total number of weight rows J (paper notation), all droppable.
  [[nodiscard]] std::size_t droppable_rows() const noexcept {
    return droppable_rows_;
  }

  /// Maps a global droppable-row index j ∈ [0, J) to its (group, row).
  [[nodiscard]] RowRef droppable_row(std::size_t j) const;

  /// Inverse of droppable_row.
  [[nodiscard]] std::size_t droppable_index(std::size_t g, std::size_t r) const;

  void zero_grads();

 private:
  std::vector<RowGroup> groups_;
  std::vector<float> params_;
  std::vector<float> grads_;
  // Prefix sums of rows per group (group -> first global row id).
  std::vector<std::size_t> droppable_base_;
  std::size_t droppable_rows_ = 0;
  std::size_t total_ = 0;
  bool finalized_ = false;
};

/// Calls f(begin, end) on each maximal run of adjacent coordinates whose
/// rows are kept, in ascending coordinate order: row j is kept when
/// `kept(j)` is true, and adjacent kept rows merge into one run, across
/// group boundaries too. The one place a row pattern β becomes coordinate
/// ranges; pass a negated predicate to walk the dropped rows instead.
template <typename Kept, typename F>
void for_each_kept_run(const ParameterStore& store, Kept&& kept, F&& f) {
  std::size_t j = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  for (const RowGroup& grp : store.groups()) {
    for (std::size_t r = 0; r < grp.rows; ++r, ++j) {
      if (!kept(j)) continue;
      const std::size_t b = grp.offset + r * grp.row_len;
      if (b != end) {
        if (end > begin) f(begin, end);
        begin = b;
      }
      end = b + grp.row_len;
    }
  }
  if (end > begin) f(begin, end);
}

}  // namespace fedbiad::nn
