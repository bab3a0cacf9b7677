// Width sub-models for ordered dropout (FjORD) and HeteroFL.
//
// Both baselines shrink hidden layers to a width ratio s ∈ (0,1]: unit u of
// a hidden layer survives iff u < ceil(s·H). Cutting unit u removes its
// weight rows and the columns that read it downstream. A WidthPlan captures
// this unit→coordinate mapping for a concrete architecture, built once from
// a prototype model and reusable across replicas (construction order makes
// group ids identical). Clients train the width sub-model through the row
// pattern (the same kept-row loop as FedDrop); the column rules only shape
// the kSubModel wire format.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/drop_pattern.hpp"
#include "nn/lstm_lm_model.hpp"
#include "nn/mlp_model.hpp"
#include "nn/parameter_store.hpp"
#include "wire/compact.hpp"
#include "wire/update_codec.hpp"

namespace fedbiad::baselines {

class WidthPlan {
 public:
  /// One masking rule.
  ///  - kRows cuts whole rows of a group: unit u owns row b·units + u of
  ///    every one of `blocks` blocks.
  ///  - kCols cuts column u of every row for cut units (columns at or beyond
  ///    `units` — e.g. the bias column — always survive).
  ///  - kLstmWhCols cuts, inside every surviving unit-major LSTM row, the
  ///    recurrent-weight entries reading cut unit u: positions
  ///    4·(in+1) + gate·hidden + u for each of the 4 gates.
  ///  - kLstmWxCols cuts the input-weight entries reading cut unit u of the
  ///    layer below: positions gate·(in+1) + u for each gate.
  struct Rule {
    std::size_t group = 0;
    enum class Axis { kRows, kCols, kLstmWhCols, kLstmWxCols } axis =
        Axis::kRows;
    std::size_t units = 0;   ///< width of the hidden layer being cut
    std::size_t blocks = 1;  ///< row blocks (kRows only)
    std::size_t in_dim = 0;  ///< LSTM layer input width (kLstm* only)
    std::size_t hidden = 0;  ///< LSTM layer hidden width (kLstm* only)
  };

  WidthPlan() = default;
  explicit WidthPlan(std::vector<Rule> rules) : rules_(std::move(rules)) {}

  /// Clears `present[i]` for every coordinate cut at width `ratio`.
  /// Coordinates not covered by any rule are left untouched.
  void build_mask(const nn::ParameterStore& store, double ratio,
                  std::span<std::uint8_t> present) const;

  /// The row pattern β of the width-`ratio` sub-model: the kRows rules' cut
  /// units are dropped, every other row is kept. Training it with
  /// Model::train_step(batch, β) + nn::sgd_step(β) never reads the cut
  /// columns, so the surviving coordinates match a step under build_mask's
  /// coordinate mask.
  [[nodiscard]] core::DropPattern pattern(const nn::ParameterStore& store,
                                          double ratio) const;

  /// Wire size of the sub-model at `ratio`: surviving coordinates at 4 bytes
  /// plus the 8-byte width ratio (the structure is implicit — one of ordered
  /// dropout's selling points). Exactly encode_submodel(...).size(), via the
  /// shared wire::submodel_bytes accounting.
  [[nodiscard]] std::uint64_t submodel_bytes(const nn::ParameterStore& store,
                                             double ratio) const;

  /// Encodes the width-`ratio` sub-model of `values`: f64 ratio followed by
  /// the surviving coordinates in ascending order (wire kind kSubModel).
  [[nodiscard]] wire::Payload encode_submodel(
      const nn::ParameterStore& store, double ratio,
      std::span<const float> values) const;

  /// Decodes a kSubModel payload: rebuilds the coordinate mask from the
  /// transmitted ratio through this plan and reads the surviving values in
  /// ascending order — kDense when the ratio keeps every coordinate,
  /// otherwise kBitmap over the mask. Throws wire::DecodeError on malformed
  /// input.
  [[nodiscard]] wire::CompactUpdate decode_submodel(
      const nn::ParameterStore& layout, const wire::Payload& payload) const;

  [[nodiscard]] const std::vector<Rule>& rules() const noexcept {
    return rules_;
  }

  /// Plan for the paper's MLP: fc1 rows and fc2 input columns follow the
  /// hidden width.
  static WidthPlan for_mlp(const nn::MlpModel& model);

  /// Plan for the paper's LSTM LM: every LSTM layer's unit rows, the
  /// surviving rows' recurrent columns, deeper layers' input columns, and
  /// the output head's columns follow the hidden width. The embedding stays
  /// full.
  static WidthPlan for_lstm_lm(const nn::LstmLmModel& model);

 private:
  std::vector<Rule> rules_;
};

}  // namespace fedbiad::baselines
