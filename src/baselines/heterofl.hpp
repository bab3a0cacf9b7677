// HeteroFL (Diao et al., ICLR 2021): clients train nested width sub-models
// of heterogeneous ratios ("different clients could adopt different
// shrinkage ratios", paper §V-A). Sub-models are prefix-nested exactly like
// FjORD's, and the server averages every coordinate over the clients whose
// sub-model contains it.
#pragma once

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

  static std::vector<double> default_levels(double dropout_rate);

  [[nodiscard]] std::string name() const override { return "HeteroFL"; }
  fl::ClientOutcome run_client(fl::ClientContext& ctx) override;
  [[nodiscard]] wire::CompactUpdate decode_payload_compact(
      const nn::ParameterStore& layout,
      const wire::Payload& payload) const override;

  [[nodiscard]] const std::vector<double>& levels() const noexcept {
    return levels_;
  }

  /// Population-mean width-s² cost over the static level ladder.
  [[nodiscard]] double compute_cost_multiplier() const override {
    double acc = 0.0;
    for (const double s : levels_) acc += s * s;
    return levels_.empty() ? 1.0 : acc / static_cast<double>(levels_.size());
  }

 private:
  WidthPlan plan_;
  std::vector<double> levels_;
};

}  // namespace fedbiad::baselines
