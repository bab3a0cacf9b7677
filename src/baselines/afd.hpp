// AFD — Adaptive Federated Dropout (Bouacida et al., INFOCOM WKSHPS 2021).
//
// The *server* maintains a score map over weight rows (here: an exponential
// moving average of each row's aggregated update magnitude) and derives one
// dropping pattern per round that every selected client must use — clients
// "cannot adjust dropping structures during local training" (paper §I).
// Like FedDrop it applies to fully connected layers only.
#pragma once

#include <mutex>
#include <vector>

#include "core/drop_pattern.hpp"
#include "fl/strategy.hpp"

namespace fedbiad::baselines {

class AfdStrategy final : public fl::Strategy {
 public:
  /// `exploration` is the fraction of the drop budget chosen at random
  /// instead of by score. Without it, rows dropped early never update, their
  /// activity score decays to zero, and they stay dropped forever — dead
  /// rows that cripple the model (the original AFD re-scores continuously,
  /// which our per-round Δ-based score map needs exploration to emulate).
  explicit AfdStrategy(double dropout_rate, double score_momentum = 0.9,
                       double exploration = 0.3);

  [[nodiscard]] std::string name() const override { return "AFD"; }
  void begin_round(std::size_t round,
                   std::span<const float> global_params) override;
  fl::ClientOutcome run_client(fl::ClientContext& ctx) override;
  void end_round(std::size_t round, std::span<const float> old_global,
                 std::span<const float> new_global) override;
  /// Clients train the server-chosen row-dropped sub-model (Model::
  /// train_step with `kept`): ~(1-p) of the dense compute on the MLP and
  /// LSTM models, whose dropped fully connected rows leave the GEMMs.
  [[nodiscard]] double compute_cost_multiplier() const override {
    return 1.0 - dropout_rate_;
  }

  /// Server score map (test hook; valid after at least one round).
  [[nodiscard]] const std::vector<double>& row_scores() const {
    return row_scores_;
  }

 private:
  double dropout_rate_;
  double score_momentum_;
  double exploration_;
  std::vector<double> row_scores_;
  /// Flat (offset, length) of every droppable row, captured on first use so
  /// end_round can score rows without a ParameterStore at hand.
  std::vector<std::pair<std::size_t, std::size_t>> row_extents_;
  core::DropPattern round_pattern_;
  tensor::Rng server_rng_{0xAFD};
  std::mutex init_mutex_;
  bool initialized_ = false;
};

}  // namespace fedbiad::baselines
