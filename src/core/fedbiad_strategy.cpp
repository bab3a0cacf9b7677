#include "core/fedbiad_strategy.hpp"

#include <algorithm>
#include <cmath>

#include "bayes/spike_slab.hpp"
#include "common/check.hpp"
#include "core/loss_trend.hpp"
#include "nn/optimizer.hpp"
#include "tensor/ops.hpp"
#include "wire/reader.hpp"
#include "wire/writer.hpp"

namespace fedbiad::core {

namespace {

/// Copies the trained values of kept rows (and every non-droppable
/// coordinate) from the live parameters into the variational parameters
/// U^k. Dropped rows keep their previous U values — dropping zeroes the
/// sampled weight, not μ_j (paper eq. 4).
void sync_kept_rows(const nn::ParameterStore& store, const DropPattern& pattern,
                    std::span<const float> params, std::span<float> u_full) {
  for (std::size_t g = 0; g < store.groups().size(); ++g) {
    const nn::RowGroup& grp = store.group(g);
    if (!grp.droppable) {
      std::copy(params.begin() + static_cast<std::ptrdiff_t>(grp.offset),
                params.begin() + static_cast<std::ptrdiff_t>(grp.offset +
                                                             grp.size()),
                u_full.begin() + static_cast<std::ptrdiff_t>(grp.offset));
      continue;
    }
    for (std::size_t r = 0; r < grp.rows; ++r) {
      if (!pattern.kept(store.droppable_index(g, r))) continue;
      const std::size_t begin = grp.offset + r * grp.row_len;
      std::copy(params.begin() + static_cast<std::ptrdiff_t>(begin),
                params.begin() + static_cast<std::ptrdiff_t>(begin +
                                                             grp.row_len),
                u_full.begin() + static_cast<std::ptrdiff_t>(begin));
    }
  }
}

}  // namespace

bayes::ModelStructure structure_of(const nn::ParameterStore& store,
                                   double dropout_rate) {
  bayes::ModelStructure s;
  s.layers = store.groups().size();
  std::size_t droppable_weights = 0;
  std::size_t fixed_weights = 0;
  for (const nn::RowGroup& g : store.groups()) {
    if (g.droppable) {
      droppable_weights += g.size();
    } else {
      fixed_weights += g.size();
    }
    s.width = std::max(s.width, g.rows);
    s.input = std::max(s.input, g.row_len - 1);
  }
  s.sparsity = fixed_weights +
               static_cast<std::size_t>(
                   (1.0 - dropout_rate) *
                   static_cast<double>(droppable_weights));
  s.input = std::max<std::size_t>(1, std::min(s.input, s.width));
  s.weight_bound = 2.0;
  return s;
}

FedBiadStrategy::FedBiadStrategy(FedBiadConfig cfg) : cfg_(cfg) {
  FEDBIAD_CHECK(cfg_.dropout_rate >= 0.0 && cfg_.dropout_rate < 1.0,
                "dropout rate must be in [0,1)");
  FEDBIAD_CHECK(cfg_.tau >= 1, "tau must be positive");
}

const WeightScoreVector* FedBiadStrategy::client_scores(
    std::size_t client_id) {
  return scores_.find(client_id);
}

std::vector<std::uint8_t> FedBiadStrategy::save_state() const {
  // varint client count, then per client (ascending id): varint id,
  // varint rows, f64 scores. Ascending order keeps the blob — and the
  // snapshot CRC over it — independent of hash-map iteration order.
  wire::Writer w;
  w.varint(scores_.size());
  scores_.for_each_sorted([&w](std::size_t id, const WeightScoreVector& v) {
    w.varint(id);
    w.varint(v.rows());
    for (std::size_t j = 0; j < v.rows(); ++j) w.f64(v.score(j));
  });
  return std::move(w).take();
}

void FedBiadStrategy::load_state(std::span<const std::uint8_t> bytes) {
  FEDBIAD_CHECK(scores_.size() == 0,
                "FedBIAD state restore requires a fresh strategy");
  wire::Reader r(bytes);
  const std::uint64_t clients = r.varint();
  for (std::uint64_t k = 0; k < clients; ++k) {
    const auto id = static_cast<std::size_t>(r.varint());
    const auto rows = static_cast<std::size_t>(r.varint());
    std::vector<double> scores(rows);
    for (std::size_t j = 0; j < rows; ++j) scores[j] = r.f64();
    scores_.get_or_create(
        id, [&scores] { return WeightScoreVector(std::move(scores)); });
  }
  r.expect_done();
}

double FedBiadStrategy::effective_posterior_variance(
    const nn::ParameterStore& store, std::size_t round, std::size_t samples,
    std::size_t local_iterations) const {
  if (!cfg_.sample_posterior) return 0.0;
  if (cfg_.posterior_variance >= 0.0) return cfg_.posterior_variance;
  const auto structure = structure_of(store, cfg_.dropout_rate);
  const std::size_t m = std::max<std::size_t>(
      1, bayes::min_client_data(round, local_iterations, samples));
  return bayes::posterior_variance(structure, m);
}

fl::ClientOutcome FedBiadStrategy::run_client(fl::ClientContext& ctx) {
  nn::ParameterStore& store = ctx.model.store();
  const std::size_t n = store.size();
  const std::size_t J = store.droppable_rows();

  WeightScoreVector& scores =
      scores_.get_or_create(ctx.client_id, [J] { return WeightScoreVector(J); });

  // Step 1: θ^{k,0}_r ~ N(U_{r-1}, s̃²I).
  const double s2 = effective_posterior_variance(
      store, ctx.round, ctx.shard.size(), ctx.settings.local_iterations);
  if (s2 > 0.0) {
    bayes::sample_gaussian(store.params(), s2, ctx.rng, store.params());
  }
  std::vector<float> u_full(n);
  tensor::copy(store.params(), u_full);

  // Step 2: initial dropping pattern.
  const bool stage_one = ctx.round <= cfg_.stage_boundary;
  const RowFilter eligible = eligible_all();
  DropPattern pattern =
      stage_one
          ? DropPattern::sample(store, cfg_.dropout_rate, eligible, ctx.rng)
          : scores.make_pattern(store, cfg_.dropout_rate, eligible, ctx.rng);
  pattern.apply_to_params(store);

  LossTrendController trend(cfg_.tau);
  for (std::size_t v = 0; v < ctx.settings.local_iterations; ++v) {
    const auto batch = ctx.dataset.make_batch(
        data::sample_indices(ctx.shard, ctx.settings.batch_size, ctx.rng));
    // The client trains the sub-model β selects: dropped rows do no work,
    // and the masked update of U (eq. 7) steps only the kept rows — the
    // dropped ones stay at the +0 apply_to_params gave them.
    const float loss = ctx.model.train_step(batch, pattern.bits());
    nn::sgd_step(store, ctx.settings.sgd, pattern.bits());
    trend.record(loss);

    if (trend.should_evaluate() &&
        v + 1 < ctx.settings.local_iterations) {  // no switch after last iter
      const double gap = trend.loss_gap();
      const bool decreased = gap <= 0.0;
      if (stage_one && !decreased) {
        DropPattern next =
            DropPattern::sample(store, cfg_.dropout_rate, eligible, ctx.rng);
        scores.update(pattern, false, next);
        // Restore μ for rows becoming active, then mask with the new pattern.
        sync_kept_rows(store, pattern, store.params(), u_full);
        tensor::copy(u_full, store.params());
        pattern = std::move(next);
        pattern.apply_to_params(store);
      } else if (stage_one || cfg_.update_scores_in_stage_two) {
        scores.update(pattern, decreased, pattern);
      }
    }
  }
  sync_kept_rows(store, pattern, store.params(), u_full);

  // Step 3: encode kept rows + the packed pattern β — the actual bytes the
  // client transmits (§IV-B); the server decodes them before aggregation.
  fl::ClientOutcome out;
  out.samples = ctx.shard.size();
  out.payload = wire::encode_row_masked(store, pattern.bits(), u_full);
  out.is_update = false;
  out.mean_loss = trend.mean_loss();
  out.last_loss = trend.last_loss();
  return out;
}

}  // namespace fedbiad::core
