// FedDrop (Caldas et al., 2019 / Wen et al., 2022): random federated
// dropout. Each client samples a random fixed pattern per round over fully
// connected and convolutional layers only — the method "does not extend to
// recurrent layers" (paper §V-A), so LSTM matrices are never dropped.
#pragma once

#include "core/drop_pattern.hpp"
#include "fl/strategy.hpp"

namespace fedbiad::baselines {

class FedDropStrategy final : public fl::Strategy {
 public:
  explicit FedDropStrategy(double dropout_rate);

  [[nodiscard]] std::string name() const override { return "FedDrop"; }
  fl::ClientOutcome run_client(fl::ClientContext& ctx) override;
  /// Clients train the row-dropped sub-model (Model::train_step with
  /// `kept`): ~(1-p) of the dense compute on the MLP and LSTM models, whose
  /// dropped fully connected rows leave the GEMMs.
  [[nodiscard]] double compute_cost_multiplier() const override {
    return 1.0 - dropout_rate_;
  }

 private:
  double dropout_rate_;
};

}  // namespace fedbiad::baselines
