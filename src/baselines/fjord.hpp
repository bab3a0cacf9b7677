// FjORD (Horvath et al., NeurIPS 2021): ordered dropout. Every client
// extracts the left-most width-(1-p) sub-model — "preferentially drops the
// right-most adjacent neurons of each layer" (paper §V-A) — trains it, and
// uploads only the sub-model. The structure is deterministic, so no pattern
// needs transmitting.
#pragma once

#include "baselines/unit_mask.hpp"
#include "fl/strategy.hpp"

namespace fedbiad::baselines {

class FjordStrategy final : public fl::Strategy {
 public:
  /// `dropout_rate` p maps to width ratio s = 1 - p.
  FjordStrategy(WidthPlan plan, double dropout_rate);

  [[nodiscard]] std::string name() const override { return "FjORD"; }
  fl::ClientOutcome run_client(fl::ClientContext& ctx) override;
  /// Sub-model payloads carry only the width ratio; the coordinate mask is
  /// rebuilt server-side through the shared WidthPlan.
  [[nodiscard]] wire::CompactUpdate decode_payload_compact(
      const nn::ParameterStore& layout,
      const wire::Payload& payload) const override;

  [[nodiscard]] double width_ratio() const noexcept { return ratio_; }

  /// Width-s sub-models shrink both dimensions of hidden matrices: ~s².
  [[nodiscard]] double compute_cost_multiplier() const override {
    return ratio_ * ratio_;
  }

 private:
  WidthPlan plan_;
  double ratio_;
};

}  // namespace fedbiad::baselines
