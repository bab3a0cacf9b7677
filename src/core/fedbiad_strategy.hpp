// FedBIAD client/server strategy (paper §IV, Algorithm 1).
//
// Round r, client k:
//   1. Initialize θ^{k,0}_r ~ N(U_{r-1}, s̃²I) (spike-and-slab slab sample).
//   2. Stage one (r ≤ Rb): start from a random dropping pattern; every τ
//      iterations evaluate the loss gap (eq. 8), resample the pattern when
//      the loss went up, and record the experience in the weight score
//      vector E^k (eq. 9).
//      Stage two (r > Rb): fix the pattern from E^k (§IV-D).
//   3. Train with masked gradients (eq. 7).
//   4. Upload the variational parameters of kept rows plus the 1-bit/row
//      pattern; the server reconstructs β ∘ U and averages (eq. 10).
#pragma once

#include "bayes/theory.hpp"
#include "core/drop_pattern.hpp"
#include "core/weight_score.hpp"
#include "fl/client_state.hpp"
#include "fl/strategy.hpp"

namespace fedbiad::core {

struct FedBiadConfig {
  double dropout_rate = 0.5;        ///< p
  std::size_t tau = 3;              ///< loss-gap window (paper: τ = 3)
  std::size_t stage_boundary = 55;  ///< Rb (paper: 55 of 60 rounds)
  /// Sample θ ~ N(U, s̃²I) at client init. The paper's s̃² (eq. 13) is used
  /// when `posterior_variance` < 0; a fixed value otherwise (0 disables the
  /// noise entirely, useful for deterministic tests).
  bool sample_posterior = true;
  double posterior_variance = -1.0;
  /// Keep updating E^k in stage two (Algorithm 1 line 26 runs every
  /// iteration; the resampling in lines 18–25 is stage-one only).
  bool update_scores_in_stage_two = true;
  fl::AggregationRule aggregation =
      fl::AggregationRule::kPerCoordinateNormalized;
};

class FedBiadStrategy final : public fl::Strategy {
 public:
  /// Every droppable group is eligible (eligible_all()) — including
  /// recurrent connections, the paper's headline capability.
  explicit FedBiadStrategy(FedBiadConfig cfg);

  [[nodiscard]] std::string name() const override { return "FedBIAD"; }
  fl::ClientOutcome run_client(fl::ClientContext& ctx) override;
  [[nodiscard]] fl::AggregationRule aggregation_rule() const override {
    return cfg_.aggregation;
  }

  [[nodiscard]] const FedBiadConfig& config() const noexcept { return cfg_; }

  /// Clients train the sub-model β selects (Model::train_step with
  /// `kept`): on the MLP and LSTM models the dropped rows leave every GEMM,
  /// so one step costs ~(1-p) of the dense model — the LTTR advantage of
  /// Fig. 7.
  [[nodiscard]] double compute_cost_multiplier() const override {
    return 1.0 - cfg_.dropout_rate;
  }

  /// Weight scores of a client, if it has participated (test hook).
  [[nodiscard]] const WeightScoreVector* client_scores(std::size_t client_id);

  /// Checkpoints the weight-score store E^k — the only cross-round server
  /// state FedBIAD keeps. Without it a resumed stage-two run would rebuild
  /// patterns from empty scores and diverge from the uninterrupted run.
  [[nodiscard]] std::vector<std::uint8_t> save_state() const override;
  void load_state(std::span<const std::uint8_t> bytes) override;

  /// The posterior variance a client with `samples` data points uses at
  /// round `round` (eq. 13 applied to m = r·V·|D_k|).
  [[nodiscard]] double effective_posterior_variance(
      const nn::ParameterStore& store, std::size_t round, std::size_t samples,
      std::size_t local_iterations) const;

 private:
  FedBiadConfig cfg_;
  fl::ClientStateStore<WeightScoreVector> scores_;
};

/// Derives the (S, L, D, d, B) structure of eq. 13/15 from a parameter store
/// and a dropout rate: S = (1-p)·N over droppable weights plus all
/// non-droppable ones, L = number of weight matrices (row groups),
/// D = widest layer, d = widest row.
bayes::ModelStructure structure_of(const nn::ParameterStore& store,
                                   double dropout_rate);

}  // namespace fedbiad::core
