// Width sub-model baselines: HeteroFL and FjORD.
//
// HeteroFL (Diao et al., ICLR 2021): clients train nested width sub-models
// of heterogeneous ratios ("different clients could adopt different
// shrinkage ratios", paper §V-A), and the server averages every coordinate
// over the clients whose sub-model contains it.
//
// FjORD (Horvath et al., NeurIPS 2021), ordered dropout, is the one-level
// ladder {1 - p}: every client extracts the left-most width-(1-p) sub-model
// — "preferentially drops the right-most adjacent neurons of each layer"
// (paper §V-A). Either way the structure is deterministic, so uploads carry
// only the width ratio and the surviving values, never a pattern.
#pragma once

#include <string>
#include <vector>

#include "baselines/unit_mask.hpp"
#include "fl/strategy.hpp"

namespace fedbiad::baselines {

class HeteroFlStrategy final : public fl::Strategy {
 public:
  /// `levels` are the available width ratios; client k statically uses
  /// levels[k mod levels.size()]. The default ladder for dropout rate p is
  /// {1, 1-p, (1-p)/2} clamped to ≥ 0.25.
  HeteroFlStrategy(WidthPlan plan, std::vector<double> levels);

  /// FjORD: every client at width ratio s = 1 - `dropout_rate`.
  static HeteroFlStrategy fjord(WidthPlan plan, double dropout_rate);

  static std::vector<double> default_levels(double dropout_rate);

  [[nodiscard]] std::string name() const override { return name_; }
  fl::ClientOutcome run_client(fl::ClientContext& ctx) override;
  /// Sub-model payloads carry only the width ratio; the coordinate mask is
  /// rebuilt server-side through the shared WidthPlan.
  [[nodiscard]] wire::CompactUpdate decode_payload_compact(
      const nn::ParameterStore& layout,
      const wire::Payload& payload) const override;

  [[nodiscard]] const std::vector<double>& levels() const noexcept {
    return levels_;
  }

  /// Width-s sub-models shrink both dimensions of hidden matrices: ~s²,
  /// averaged over the static level ladder.
  [[nodiscard]] double compute_cost_multiplier() const override {
    double acc = 0.0;
    for (const double s : levels_) acc += s * s;
    return acc / static_cast<double>(levels_.size());
  }

 private:
  HeteroFlStrategy(WidthPlan plan, std::vector<double> levels,
                   std::string name);

  WidthPlan plan_;
  std::vector<double> levels_;
  std::string name_;
};

}  // namespace fedbiad::baselines
