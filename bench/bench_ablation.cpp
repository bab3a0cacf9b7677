// Ablations of FedBIAD's design choices (bench/README.md's bench map):
//   1. Aggregation rule: per-row-normalized vs the literal eq. 10 average.
//   2. Stage boundary Rb: never / mid / paper-like / always stage-two.
//   3. Loss-gap window tau.
//   4. Posterior sampling on/off (the Bayesian θ ~ N(U, s̃²I) init).
//   5. Importance indicator vs pure random dropout at equal upload.
// Also prints the Theorem-1 bound decay alongside measured accuracy.
#include <cstdio>

#include "bayes/theory.hpp"
#include "common.hpp"

namespace {

using namespace fedbiad;
using namespace fedbiad::bench;

fl::SimulationResult run_cfg(const Workload& w, core::FedBiadConfig cfg) {
  return run_strategy(w, std::make_shared<core::FedBiadStrategy>(cfg));
}

void report(const char* label, const Workload& w,
            const fl::SimulationResult& r) {
  const auto upload = netsim::summarize_upload(r, w.dense_bytes);
  std::printf("%-34s acc=%6.2f%%  save=%5.2fx\n", label,
              100.0 * r.best_accuracy(w.topk_metric), upload.save_ratio);
  std::fflush(stdout);
}

}  // namespace

int main() {
  Workload w = make_workload(DatasetId::kFmnist);
  const std::size_t rb = stage_boundary(w);
  const double p = w.dropout_rate;

  std::printf("=== FedBIAD ablations (FMNIST-like, p=%.1f, rounds=%zu) "
              "===\n\n",
              p, w.sim.rounds);

  std::printf("-- aggregation rule (see docs/ARCHITECTURE.md) --\n");
  report("per-row normalized (default)", w,
         run_cfg(w, {.dropout_rate = p, .stage_boundary = rb}));
  report("literal eq.10 masked average", w,
         run_cfg(w, {.dropout_rate = p,
                     .stage_boundary = rb,
                     .aggregation = fl::AggregationRule::kMaskedAverage}));

  std::printf("\n-- stage boundary Rb --\n");
  for (const std::size_t b :
       {std::size_t{0}, w.sim.rounds / 2, rb, w.sim.rounds}) {
    char label[64];
    std::snprintf(label, sizeof label, "Rb=%zu", b);
    report(label, w, run_cfg(w, {.dropout_rate = p, .stage_boundary = b}));
  }

  std::printf("\n-- loss-gap window tau --\n");
  for (const std::size_t tau : {std::size_t{1}, std::size_t{3},
                                std::size_t{5}, w.sim.train.local_iterations}) {
    char label[64];
    std::snprintf(label, sizeof label, "tau=%zu%s", tau,
                  tau >= w.sim.train.local_iterations ? " (no resampling)"
                                                      : "");
    report(label, w,
           run_cfg(w, {.dropout_rate = p, .tau = tau, .stage_boundary = rb}));
  }

  std::printf("\n-- posterior sampling theta ~ N(U, s~2 I) --\n");
  report("eq.13 variance (default)", w,
         run_cfg(w, {.dropout_rate = p, .stage_boundary = rb}));
  report("disabled (deterministic init)", w,
         run_cfg(w, {.dropout_rate = p,
                     .stage_boundary = rb,
                     .sample_posterior = false}));
  report("inflated variance 1e-4", w,
         run_cfg(w, {.dropout_rate = p,
                     .stage_boundary = rb,
                     .posterior_variance = 1e-4}));

  std::printf("\n-- importance indicator vs random dropout --\n");
  report("FedBIAD (adaptive + scores)", w,
         run_cfg(w, {.dropout_rate = p, .stage_boundary = rb}));
  const auto feddrop = run_strategy(w, make_strategy("FedDrop", w));
  report("FedDrop (random, equal upload)", w, feddrop);

  std::printf("\n-- Theorem 1 bound decay (structure of this model) --\n");
  nn::MlpModel probe({.input = 784, .hidden = 256, .classes = 10});
  const auto s = core::structure_of(probe.store(), p);
  const std::size_t min_dk = 4000 / 60;
  for (const std::size_t r : {std::size_t{1}, std::size_t{10},
                              std::size_t{30}, std::size_t{60}}) {
    const auto m_r = bayes::min_client_data(
        r, w.sim.train.local_iterations, min_dk);
    const double eps = bayes::epsilon_bound(s, m_r);
    const double bound = bayes::generalization_bound(0.5, 1.0, eps, 0.0);
    std::printf("round %3zu  m_r=%8zu  eps=%.4e  bound=%.4e\n", r, m_r, eps,
                bound);
  }
  return 0;
}
