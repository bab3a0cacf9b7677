#include "baselines/afd.hpp"

#include <algorithm>
#include <cmath>

#include "baselines/local_train.hpp"
#include "common/check.hpp"
#include "core/weight_score.hpp"
#include "wire/update_codec.hpp"

namespace fedbiad::baselines {

AfdStrategy::AfdStrategy(double dropout_rate, double score_momentum,
                         double exploration)
    : dropout_rate_(dropout_rate),
      score_momentum_(score_momentum),
      exploration_(exploration) {
  FEDBIAD_CHECK(dropout_rate >= 0.0 && dropout_rate < 1.0,
                "dropout rate must be in [0,1)");
  FEDBIAD_CHECK(score_momentum >= 0.0 && score_momentum < 1.0,
                "momentum must be in [0,1)");
  FEDBIAD_CHECK(exploration >= 0.0 && exploration <= 1.0,
                "exploration must be in [0,1]");
}

void AfdStrategy::begin_round(std::size_t round,
                              std::span<const float> global_params) {
  (void)round;
  (void)global_params;
  // The pattern for the round is derived on the first client run because the
  // pattern needs the store's row metadata; see run_client.
}

fl::ClientOutcome AfdStrategy::run_client(fl::ClientContext& ctx) {
  nn::ParameterStore& store = ctx.model.store();
  {
    // First client of the first round sizes the server state; afterwards the
    // pattern is recomputed once per round by whoever enters first.
    std::scoped_lock lock(init_mutex_);
    if (row_scores_.empty()) {
      row_scores_.assign(store.droppable_rows(), 0.0);
      row_extents_.reserve(row_scores_.size());
      for (std::size_t j = 0; j < row_scores_.size(); ++j) {
        const auto ref = store.droppable_row(j);
        const nn::RowGroup& grp = store.group(ref.group);
        row_extents_.emplace_back(grp.offset + ref.row * grp.row_len,
                                  grp.row_len);
      }
    }
    if (!initialized_) {
      // Score-ranked pattern: drop the lowest-scoring p-fraction per FC
      // group (with all-zero scores this degenerates to a random pattern —
      // AFD's bootstrap round). An exploration share of the scores is
      // randomized so currently-dropped rows periodically re-enter and
      // refresh their activity estimate.
      core::WeightScoreVector scores(row_scores_);
      if (exploration_ > 0.0) {
        double max_score = 0.0;
        for (const double s : row_scores_) max_score = std::max(max_score, s);
        std::vector<double> jittered = row_scores_;
        for (auto& s : jittered) {
          if (server_rng_.bernoulli(exploration_)) {
            s = server_rng_.uniform(0.0, std::max(max_score, 1e-12));
          }
        }
        scores = core::WeightScoreVector(std::move(jittered));
      }
      round_pattern_ = scores.make_pattern(
          store, dropout_rate_, core::eligible_dense(), server_rng_);
      initialized_ = true;
    }
  }

  const auto stats = train_rounds(ctx, &round_pattern_);

  fl::ClientOutcome out;
  out.samples = ctx.shard.size();
  out.payload =
      wire::encode_row_masked(store, round_pattern_.bits(), store.params());
  out.is_update = false;
  out.mean_loss = stats.mean_loss;
  out.last_loss = stats.last_loss;
  return out;
}

void AfdStrategy::end_round(std::size_t round,
                            std::span<const float> old_global,
                            std::span<const float> new_global) {
  (void)round;
  // EMA of per-row mean |Δ| over the aggregated update — the server-side
  // activity score map. Row extents were captured on first client contact
  // (no ParameterStore is available here).
  if (row_scores_.empty() || row_extents_.empty()) return;
  for (std::size_t j = 0; j < row_scores_.size(); ++j) {
    const auto [begin, len] = row_extents_[j];
    double acc = 0.0;
    for (std::size_t i = begin; i < begin + len; ++i) {
      acc += std::abs(static_cast<double>(new_global[i]) - old_global[i]);
    }
    const double mean_delta = acc / static_cast<double>(len);
    row_scores_[j] =
        score_momentum_ * row_scores_[j] + (1.0 - score_momentum_) * mean_delta;
  }
  initialized_ = false;  // next round recomputes the pattern from new scores
}

}  // namespace fedbiad::baselines
