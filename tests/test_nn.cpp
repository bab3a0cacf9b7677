// Unit tests for the NN substrate: parameter store, layer forward/backward
// correctness (finite-difference gradient checks), loss, optimizer, models.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/drop_pattern.hpp"
#include "data/batch.hpp"
#include "masked_step.hpp"
#include "nn/dense.hpp"
#include "nn/embedding.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/lstm_lm_model.hpp"
#include "nn/mlp_model.hpp"
#include "nn/optimizer.hpp"
#include "tensor/ops.hpp"
#include "tensor/vmath.hpp"

namespace fedbiad::nn {
namespace {

using tensor::Matrix;
using tensor::Rng;

TEST(ParameterStore, GroupRegistrationAndOffsets) {
  ParameterStore store;
  const auto g0 = store.add_group("a", GroupKind::kDense, 4, 5, true);
  const auto g1 = store.add_group("b", GroupKind::kEmbedding, 3, 2, false);
  const auto g2 = store.add_group("c", GroupKind::kRecurrentUnit, 2, 2, true);
  store.finalize();
  EXPECT_EQ(store.size(), 4u * 5 + 3u * 2 + 2u * 2);
  EXPECT_EQ(store.group(g0).offset, 0u);
  EXPECT_EQ(store.group(g1).offset, 20u);
  EXPECT_EQ(store.group(g2).offset, 26u);
  EXPECT_EQ(store.droppable_rows(), 4u + 2u);  // groups a and c
}

TEST(ParameterStore, DroppableRowRoundTrip) {
  ParameterStore store;
  store.add_group("a", GroupKind::kDense, 4, 5, true);
  store.add_group("b", GroupKind::kEmbedding, 3, 2, false);
  store.add_group("c", GroupKind::kRecurrentUnit, 2, 2, true);
  store.finalize();
  for (std::size_t j = 0; j < store.droppable_rows(); ++j) {
    const auto ref = store.droppable_row(j);
    EXPECT_EQ(store.droppable_index(ref.group, ref.row), j);
  }
  EXPECT_THROW((void)store.droppable_row(6), fedbiad::CheckError);
  EXPECT_THROW((void)store.droppable_index(1, 0), fedbiad::CheckError);
}

TEST(ParameterStore, RowSpansAreDisjointAndOrdered) {
  ParameterStore store;
  store.add_group("a", GroupKind::kDense, 3, 4, true);
  store.finalize();
  auto r0 = store.row_params(0, 0);
  auto r2 = store.row_params(0, 2);
  EXPECT_EQ(r0.size(), 4u);
  EXPECT_EQ(r2.data() - r0.data(), 8);
}

TEST(ParameterStore, FinalizeGuards) {
  ParameterStore store;
  EXPECT_THROW(store.finalize(), fedbiad::CheckError);  // empty
  store.add_group("a", GroupKind::kDense, 1, 1, true);
  store.finalize();
  EXPECT_THROW(store.add_group("b", GroupKind::kDense, 1, 1, true),
               fedbiad::CheckError);
  EXPECT_THROW(store.finalize(), fedbiad::CheckError);  // twice
}

TEST(ParameterStore, ZeroGradsClears) {
  ParameterStore store;
  store.add_group("a", GroupKind::kDense, 2, 2, true);
  store.finalize();
  store.grads()[1] = 3.0F;
  store.zero_grads();
  for (float g : store.grads()) EXPECT_FLOAT_EQ(g, 0.0F);
}

// ---- finite-difference gradient checking ----------------------------------

// Scalar loss L = <R, output> for a fixed random R gives deterministic
// gradients g_out = R to feed backward.
void expect_grad_close(double analytic, double numeric, double atol,
                       double rtol, const std::string& what) {
  EXPECT_NEAR(analytic, numeric,
              atol + rtol * std::max(std::abs(analytic), std::abs(numeric)))
      << what;
}

TEST(Dense, GradientCheck) {
  ParameterStore store;
  Dense layer(store, "fc", 5, 4);
  store.finalize();
  Rng rng(7);
  layer.init(store, rng);
  // Give biases nonzero values so their gradient path is exercised.
  for (std::size_t o = 0; o < 4; ++o) {
    store.row_params(0, o)[5] = static_cast<float>(rng.uniform(-0.5, 0.5));
  }

  Matrix x(3, 5);
  x.fill_uniform(rng, -1.0F, 1.0F);
  Matrix r(3, 4);
  r.fill_uniform(rng, -1.0F, 1.0F);

  auto loss = [&] {
    Matrix out;
    layer.forward(store, x, out);
    return tensor::dot(r.flat(), out.flat());
  };

  store.zero_grads();
  Matrix out, g_in;
  layer.forward(store, x, out);
  layer.backward(store, x, r, &g_in);

  const float eps = 1e-2F;
  auto params = store.params();
  auto grads = store.grads();
  for (std::size_t i = 0; i < params.size(); i += 3) {
    const float saved = params[i];
    params[i] = saved + eps;
    const double up = loss();
    params[i] = saved - eps;
    const double down = loss();
    params[i] = saved;
    const double numeric = (up - down) / (2.0 * eps);
    expect_grad_close(grads[i], numeric, 1e-3, 2e-2,
                      "param " + std::to_string(i));
  }
  // Input gradient check.
  for (std::size_t i = 0; i < x.size(); i += 2) {
    const float saved = x.flat()[i];
    x.flat()[i] = saved + eps;
    const double up = loss();
    x.flat()[i] = saved - eps;
    const double down = loss();
    x.flat()[i] = saved;
    const double numeric = (up - down) / (2.0 * eps);
    expect_grad_close(g_in.flat()[i], numeric, 1e-3, 2e-2,
                      "input " + std::to_string(i));
  }
}

TEST(Embedding, ForwardLooksUpRows) {
  ParameterStore store;
  Embedding emb(store, "e", 5, 3);
  store.finalize();
  auto table = store.group_params(emb.group());
  std::iota(table.begin(), table.end(), 0.0F);
  std::vector<std::int32_t> tokens{2, 0, 4};
  Matrix out;
  emb.forward(store, tokens, out);
  EXPECT_FLOAT_EQ(out(0, 0), 6.0F);
  EXPECT_FLOAT_EQ(out(0, 2), 8.0F);
  EXPECT_FLOAT_EQ(out(1, 0), 0.0F);
  EXPECT_FLOAT_EQ(out(2, 1), 13.0F);
}

TEST(Embedding, BackwardScatterAddsRepeatedTokens) {
  ParameterStore store;
  Embedding emb(store, "e", 4, 2);
  store.finalize();
  std::vector<std::int32_t> tokens{1, 1, 3};
  Matrix g(3, 2);
  g(0, 0) = 1.0F;
  g(1, 0) = 2.0F;
  g(2, 1) = 5.0F;
  emb.backward(store, tokens, g);
  auto grads = store.group_grads(emb.group());
  EXPECT_FLOAT_EQ(grads[1 * 2 + 0], 3.0F);  // token 1 accumulated twice
  EXPECT_FLOAT_EQ(grads[3 * 2 + 1], 5.0F);
  EXPECT_FLOAT_EQ(grads[0], 0.0F);
}

TEST(Lstm, ForwardShapesAndDeterminism) {
  ParameterStore store;
  LstmLayer lstm(store, "l", 3, 4);
  store.finalize();
  Rng rng(9);
  lstm.init(store, rng);
  Matrix x(2 * 5, 3);
  x.fill_uniform(rng, -1.0F, 1.0F);
  LstmLayer::Cache c1, c2;
  lstm.forward(store, x, 5, 2, c1);
  lstm.forward(store, x, 5, 2, c2);
  ASSERT_EQ(c1.h.rows(), 10u);
  ASSERT_EQ(c1.h.cols(), 4u);
  for (std::size_t i = 0; i < c1.h.size(); ++i) {
    EXPECT_FLOAT_EQ(c1.h.flat()[i], c2.h.flat()[i]);
  }
}

TEST(Lstm, HiddenStateStaysBounded) {
  // tanh output gate bounds |h| ≤ 1 regardless of weights.
  ParameterStore store;
  LstmLayer lstm(store, "l", 2, 3);
  store.finalize();
  Rng rng(11);
  for (auto& v : store.params()) v = static_cast<float>(rng.uniform(-3, 3));
  Matrix x(4 * 8, 2);
  x.fill_uniform(rng, -5.0F, 5.0F);
  LstmLayer::Cache cache;
  lstm.forward(store, x, 4, 8, cache);
  for (float h : cache.h.flat()) {
    EXPECT_LE(std::abs(h), 1.0F);
  }
}

TEST(Lstm, GradientCheck) {
  ParameterStore store;
  LstmLayer lstm(store, "l", 3, 4);
  store.finalize();
  Rng rng(13);
  lstm.init(store, rng);

  const std::size_t batch = 2, seq = 3;
  Matrix x(batch * seq, 3);
  x.fill_uniform(rng, -1.0F, 1.0F);
  Matrix r(batch * seq, 4);
  r.fill_uniform(rng, -1.0F, 1.0F);

  auto loss = [&] {
    LstmLayer::Cache cache;
    lstm.forward(store, x, batch, seq, cache);
    return tensor::dot(r.flat(), cache.h.flat());
  };

  store.zero_grads();
  LstmLayer::Cache cache;
  lstm.forward(store, x, batch, seq, cache);
  Matrix g_x;
  lstm.backward(store, x, cache, r, g_x);

  const float eps = 1e-2F;
  auto params = store.params();
  auto grads = store.grads();
  for (std::size_t i = 0; i < params.size(); i += 5) {
    const float saved = params[i];
    params[i] = saved + eps;
    const double up = loss();
    params[i] = saved - eps;
    const double down = loss();
    params[i] = saved;
    const double numeric = (up - down) / (2.0 * eps);
    expect_grad_close(grads[i], numeric, 5e-3, 5e-2,
                      "param " + std::to_string(i));
  }
  for (std::size_t i = 0; i < x.size(); i += 3) {
    const float saved = x.flat()[i];
    x.flat()[i] = saved + eps;
    const double up = loss();
    x.flat()[i] = saved - eps;
    const double down = loss();
    x.flat()[i] = saved;
    const double numeric = (up - down) / (2.0 * eps);
    expect_grad_close(g_x.flat()[i], numeric, 5e-3, 5e-2,
                      "input " + std::to_string(i));
  }
}

TEST(Loss, CrossEntropyMatchesManualComputation) {
  Matrix logits(1, 3);
  logits(0, 0) = 1.0F;
  logits(0, 1) = 2.0F;
  logits(0, 2) = 3.0F;
  std::vector<std::int32_t> labels{2};
  Matrix g;
  const float loss = softmax_cross_entropy(logits, labels, g);
  const double denom = std::exp(1.0) + std::exp(2.0) + std::exp(3.0);
  EXPECT_NEAR(loss, -std::log(std::exp(3.0) / denom), 1e-5);
  // Gradient = softmax - onehot.
  EXPECT_NEAR(g(0, 0), std::exp(1.0) / denom, 1e-5);
  EXPECT_NEAR(g(0, 2), std::exp(3.0) / denom - 1.0, 1e-5);
}

TEST(Loss, IgnoresNegativeLabels) {
  Matrix logits(2, 3);
  logits.fill(1.0F);
  std::vector<std::int32_t> labels{-1, 0};
  Matrix g;
  const float loss = softmax_cross_entropy(logits, labels, g);
  EXPECT_NEAR(loss, std::log(3.0), 1e-5);  // only the second row counts
  for (std::size_t c = 0; c < 3; ++c) EXPECT_FLOAT_EQ(g(0, c), 0.0F);
}

TEST(Loss, GradientCheckAgainstFiniteDifference) {
  Rng rng(19);
  Matrix logits(4, 6);
  logits.fill_uniform(rng, -2.0F, 2.0F);
  std::vector<std::int32_t> labels{0, 3, 5, 2};
  Matrix g;
  softmax_cross_entropy(logits, labels, g);
  const float eps = 1e-3F;
  for (std::size_t i = 0; i < logits.size(); i += 5) {
    Matrix up = logits, down = logits;
    up.flat()[i] += eps;
    down.flat()[i] -= eps;
    Matrix scratch;
    const double numeric =
        (softmax_cross_entropy(up, labels, scratch) -
         softmax_cross_entropy(down, labels, scratch)) /
        (2.0 * eps);
    expect_grad_close(g.flat()[i], numeric, 1e-3, 2e-2,
                      "logit " + std::to_string(i));
  }
}

TEST(Loss, EvaluateLogitsCountsTopK) {
  Matrix logits(2, 4);
  // Sample 0: label 1 ranks 2nd; sample 1: label 3 ranks 1st.
  logits(0, 0) = 3.0F;
  logits(0, 1) = 2.0F;
  logits(0, 2) = 1.0F;
  logits(0, 3) = 0.0F;
  logits(1, 3) = 5.0F;
  std::vector<std::int32_t> labels{1, 3};
  const auto top1 = evaluate_logits(logits, labels, 1);
  EXPECT_EQ(top1.count, 2u);
  EXPECT_EQ(top1.top1, 1u);
  const auto top2 = evaluate_logits(logits, labels, 2);
  EXPECT_EQ(top2.topk, 2u);
}

TEST(Loss, EvalResultMerge) {
  EvalResult a{.loss_sum = 1.0, .top1 = 2, .topk = 3, .count = 4};
  EvalResult b{.loss_sum = 2.0, .top1 = 1, .topk = 1, .count = 4};
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.loss_sum, 3.0);
  EXPECT_EQ(a.top1, 3u);
  EXPECT_DOUBLE_EQ(a.mean_loss(), 3.0 / 8.0);
  EXPECT_DOUBLE_EQ(a.top1_accuracy(), 3.0 / 8.0);
  EXPECT_DOUBLE_EQ(a.topk_accuracy(), 4.0 / 8.0);
}

TEST(Optimizer, SgdStepMovesAgainstGradient) {
  ParameterStore store;
  store.add_group("a", GroupKind::kDense, 1, 3, true);
  store.finalize();
  store.params()[0] = 1.0F;
  store.grads()[0] = 2.0F;
  SgdConfig cfg{.lr = 0.5F, .weight_decay = 0.0F, .clip_norm = 0.0F};
  sgd_step(store, cfg);
  EXPECT_FLOAT_EQ(store.params()[0], 0.0F);
}

TEST(Optimizer, WeightDecayShrinksParams) {
  ParameterStore store;
  store.add_group("a", GroupKind::kDense, 1, 2, true);
  store.finalize();
  store.params()[0] = 1.0F;
  SgdConfig cfg{.lr = 0.1F, .weight_decay = 0.5F, .clip_norm = 0.0F};
  sgd_step(store, cfg);
  EXPECT_FLOAT_EQ(store.params()[0], 1.0F - 0.1F * 0.5F);
}

TEST(Optimizer, ClipNormLimitsStep) {
  ParameterStore store;
  store.add_group("a", GroupKind::kDense, 1, 2, true);
  store.finalize();
  store.grads()[0] = 3.0F;
  store.grads()[1] = 4.0F;  // norm = 5
  SgdConfig cfg{.lr = 1.0F, .weight_decay = 0.0F, .clip_norm = 1.0F};
  const double norm = sgd_step(store, cfg);
  EXPECT_DOUBLE_EQ(norm, 5.0);
  EXPECT_NEAR(store.params()[0], -3.0F / 5.0F, 1e-6);
  EXPECT_NEAR(store.params()[1], -4.0F / 5.0F, 1e-6);
}

/// sgd_step as a serial formula: the left-to-right squared norm, its clip
/// scale, one sgd_axpy over everything.
void serial_sgd_step(std::span<float> params, std::span<const float> grads,
                     const SgdConfig& cfg) {
  const double norm = std::sqrt(tensor::squared_norm(grads));
  float scale = 1.0F;
  if (cfg.clip_norm > 0.0F && norm > cfg.clip_norm) {
    scale = static_cast<float>(cfg.clip_norm / norm);
  }
  tensor::vmath::sgd_axpy(params.size(), params.data(), grads.data(), cfg.lr,
                          scale, cfg.weight_decay);
}

float clip_scale_at(double sum_sq, float clip) {
  const double norm = std::sqrt(sum_sq);
  return norm > clip ? static_cast<float>(clip / norm) : 1.0F;
}

/// Fills `grads` with noise worth about half of `target` plus three trailing
/// coordinates that bring the serial Σg² to within a few ulp of `target`.
void tune_squared_norm(std::span<float> grads, double target, Rng& rng) {
  const double amp =
      std::sqrt(1.5 * target / static_cast<double>(grads.size() - 3));
  double serial = 0.0;
  for (std::size_t i = 0; i + 3 < grads.size(); ++i) {
    grads[i] = static_cast<float>(rng.uniform(-amp, amp));
    serial += static_cast<double>(grads[i]) * grads[i];
  }
  for (std::size_t i = grads.size() - 3; i < grads.size(); ++i) {
    const double gap = target - serial;
    float g = gap > 0.0 ? static_cast<float>(std::sqrt(gap)) : 0.0F;
    if (static_cast<double>(g) * g > gap) g = std::nextafter(g, 0.0F);
    grads[i] = g;
    serial += static_cast<double>(g) * g;
  }
}

TEST(Optimizer, CertifiedClipMatchesSerialNorm) {
  // Each tie case tunes the gradient so that clip/norm lands on the
  // midpoint between two floats (for the float below 1.0 that also puts
  // the norm within an ulp of clip_norm), and so that the lane sum and the
  // serial sum round to different scales: only the recomputed serial sum
  // gives the right step. The last case puts the norm exactly on clip_norm.
  constexpr std::size_t kSize = 1003;
  const float clip = 1.5F;
  const auto midpoint = [](float f) {
    return (static_cast<double>(f) +
            static_cast<double>(std::nextafter(f, 2.0F))) / 2.0;
  };
  const double ratios[] = {midpoint(std::nextafter(1.0F, 0.0F)),
                           midpoint(0.3F), midpoint(0.61803395F), 1.0};
  Rng rng(331);
  for (const double ratio : ratios) {
    SCOPED_TRACE(testing::Message() << "clip/norm=" << ratio);
    ParameterStore store;
    store.add_group("w", GroupKind::kDense, 1, kSize, false);
    store.finalize();
    auto grads = store.grads();
    const double target = (clip / ratio) * (clip / ratio);
    if (ratio == 1.0) {
      tune_squared_norm(grads, target, rng);
    } else {
      bool split = false;
      bool lanes_differ = false;
      double lanes = 0.0;
      for (int attempt = 0; attempt < 64 && !split; ++attempt) {
        // Nudge the target by a few ulp either way so the serial sum lands
        // on both sides of the tie across attempts.
        const double nudge = static_cast<double>(attempt % 9 - 4) * 0x1p-52;
        tune_squared_norm(grads, target * (1.0 + nudge), rng);
        lanes = tensor::vmath::sum_squares(kSize, grads.data());
        const double serial = tensor::squared_norm(grads);
        lanes_differ = lanes_differ || lanes != serial;
        split = clip_scale_at(lanes, clip) != clip_scale_at(serial, clip);
      }
      // A build whose lane sum is the serial sum (FEDBIAD_PORTABLE) cannot
      // split the scales; any other must, within 64 attempts.
      if (lanes_differ) ASSERT_TRUE(split) << "no gradient split the scales";
      // Either way the lane sum's error bound cannot decide the scale.
      const double slack = 4.0 * (kSize + 16) * 0x1p-53;
      ASSERT_NE(clip_scale_at(lanes * (1.0 - slack), clip),
                clip_scale_at(lanes * (1.0 + slack), clip));
    }
    for (float& p : store.params()) {
      p = static_cast<float>(rng.uniform(-1, 1));
    }
    const SgdConfig cfg{.lr = 0.2F, .weight_decay = 1e-2F, .clip_norm = clip};
    std::vector<float> want(store.params().begin(), store.params().end());
    serial_sgd_step(want, grads, cfg);
    const double norm = sgd_step(store, cfg);
    EXPECT_EQ(std::memcmp(store.params().data(), want.data(),
                          want.size() * sizeof(float)),
              0);
    if (ratio != 1.0) {
      EXPECT_EQ(norm, std::sqrt(tensor::squared_norm(grads)));
    }
  }
}

TEST(Optimizer, KeptRowsStepCoversNonDroppableGroups) {
  // Droppable and non-droppable groups interleaved: the kept-rows step must
  // update every non-droppable coordinate, as the masked full step does.
  ParameterStore masked;
  masked.add_group("a", GroupKind::kDense, 4, 5, true);
  masked.add_group("b", GroupKind::kDense, 3, 2, false);
  masked.add_group("c", GroupKind::kRecurrentUnit, 6, 7, true);
  masked.add_group("d", GroupKind::kEmbedding, 1, 3, false);
  masked.finalize();
  Rng rng(337);
  core::DropPattern pattern(masked.droppable_rows());
  for (std::size_t j = 0; j < pattern.rows(); ++j) {
    pattern.set(j, rng.bernoulli(0.5));
  }
  for (float& p : masked.params()) p = static_cast<float>(rng.uniform(-1, 1));
  pattern.apply_to_params(masked);
  ParameterStore kept = masked;
  for (const float clip : {0.0F, 0.5F}) {
    const SgdConfig cfg{.lr = 0.3F, .weight_decay = 1e-2F, .clip_norm = clip};
    for (float& g : kept.grads()) g = static_cast<float>(rng.uniform(-1, 1));
    tensor::copy(kept.grads(), masked.grads());
    reference::zero_dropped_grads(pattern, masked);
    (void)sgd_step(masked, cfg);
    pattern.apply_to_params(masked);
    (void)sgd_step(kept, cfg, pattern.bits());
    EXPECT_EQ(std::memcmp(kept.params().data(), masked.params().data(),
                          masked.size() * sizeof(float)),
              0);
  }
}

data::Batch toy_image_batch(Rng& rng, std::size_t n, std::size_t dim,
                            std::size_t classes) {
  data::Batch b;
  b.batch = n;
  b.x.resize(n, dim);
  b.targets.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<std::int32_t>(rng.uniform_index(classes));
    b.targets[i] = c;
    for (std::size_t d = 0; d < dim; ++d) {
      b.x(i, d) = static_cast<float>(
          rng.normal(d % classes == static_cast<std::size_t>(c) ? 1.0 : 0.0,
                     0.3));
    }
  }
  return b;
}

TEST(MlpModel, TrainingReducesLoss) {
  MlpModel model({.input = 16, .hidden = 24, .classes = 4});
  Rng rng(21);
  model.init_params(rng);
  const auto batch = toy_image_batch(rng, 64, 16, 4);
  SgdConfig cfg{.lr = 0.5F, .weight_decay = 0.0F, .clip_norm = 0.0F};
  const float first = model.train_step(batch);
  sgd_step(model.store(), cfg);
  float last = first;
  for (int i = 0; i < 60; ++i) {
    last = model.train_step(batch);
    sgd_step(model.store(), cfg);
  }
  EXPECT_LT(last, first * 0.5F);
}

TEST(MlpModel, EvalBatchIsConsistentWithTraining) {
  MlpModel model({.input = 8, .hidden = 8, .classes = 3});
  Rng rng(23);
  model.init_params(rng);
  const auto batch = toy_image_batch(rng, 32, 8, 3);
  const auto eval = model.eval_batch(batch, 2);
  EXPECT_EQ(eval.count, 32u);
  EXPECT_LE(eval.top1, eval.topk);
  EXPECT_LE(eval.topk, eval.count);
}

data::Batch toy_text_batch(Rng& rng, std::size_t n, std::size_t seq,
                           std::size_t vocab) {
  data::Batch b;
  b.batch = n;
  b.seq = seq;
  b.tokens.resize(n * seq);
  b.targets.resize(n * seq);
  for (std::size_t i = 0; i < n; ++i) {
    auto tok = static_cast<std::int32_t>(rng.uniform_index(vocab));
    for (std::size_t t = 0; t < seq; ++t) {
      b.tokens[i * seq + t] = tok;
      const auto next = static_cast<std::int32_t>((tok + 1) %
                                                  static_cast<int>(vocab));
      b.targets[i * seq + t] = next;
      tok = next;
    }
  }
  return b;
}

TEST(LstmLmModel, LearnsDeterministicSuccessor) {
  LstmLmModel model({.vocab = 12, .embed = 16, .hidden = 24, .layers = 2});
  Rng rng(25);
  model.init_params(rng);
  SgdConfig cfg{.lr = 0.5F, .weight_decay = 0.0F, .clip_norm = 5.0F};
  const auto batch = toy_text_batch(rng, 16, 6, 12);
  const float first = model.train_step(batch);
  sgd_step(model.store(), cfg);
  float last = first;
  for (int i = 0; i < 420; ++i) {
    last = model.train_step(batch);
    sgd_step(model.store(), cfg);
  }
  EXPECT_LT(last, first * 0.4F);
  const auto eval = model.eval_batch(batch, 1);
  EXPECT_GT(eval.top1_accuracy(), 0.8);
}

TEST(LstmLmModel, GroupMetadataExposesRecurrentKinds) {
  LstmLmModel model({.vocab = 10, .embed = 4, .hidden = 6, .layers = 2});
  const auto& store = model.store();
  EXPECT_EQ(store.group(model.embed_group()).kind, GroupKind::kEmbedding);
  EXPECT_EQ(store.group(model.unit_group(0)).kind, GroupKind::kRecurrentUnit);
  EXPECT_EQ(store.group(model.unit_group(1)).kind, GroupKind::kRecurrentUnit);
  EXPECT_EQ(store.group(model.out_group()).kind, GroupKind::kDense);
  // One row per hidden unit: all 4 gates' input weights, biases, and
  // recurrent weights live in that row.
  EXPECT_EQ(store.group(model.unit_group(0)).rows, 6u);
  EXPECT_EQ(store.group(model.unit_group(0)).row_len, 4u * (4 + 1) + 4u * 6);
  EXPECT_EQ(store.group(model.unit_group(1)).row_len, 4u * (6 + 1) + 4u * 6);
}

TEST(Lstm, DroppedUnitRowIsExactlyInert) {
  // The paper's row = activation-dropout equivalence: zeroing a unit row
  // makes that unit's hidden output identically zero at every timestep.
  ParameterStore store;
  LstmLayer lstm(store, "l", 3, 5);
  store.finalize();
  Rng rng(77);
  lstm.init(store, rng);
  // Zero unit 2's entire row.
  for (auto& v : store.row_params(lstm.group(), 2)) v = 0.0F;
  Matrix x(3 * 7, 3);
  x.fill_uniform(rng, -2.0F, 2.0F);
  LstmLayer::Cache cache;
  lstm.forward(store, x, 3, 7, cache);
  for (std::size_t row = 0; row < cache.h.rows(); ++row) {
    EXPECT_EQ(cache.h(row, 2), 0.0F);
    EXPECT_NE(cache.h(row, 0), 0.0F);
    // Exactly +0, sign bit clear: sub-model training skips this unit's
    // terms, which is exact only because they multiply a +0 (a -0 could
    // flip the sign of a zero sum).
    EXPECT_EQ(cache.c(row, 2), 0.0F);
    EXPECT_FALSE(std::signbit(cache.h(row, 2)));
    EXPECT_FALSE(std::signbit(cache.c(row, 2)));
  }
}

TEST(Models, InitIsDeterministicGivenSeed) {
  MlpModel a({.input = 8, .hidden = 8, .classes = 3});
  MlpModel b({.input = 8, .hidden = 8, .classes = 3});
  Rng ra(31), rb(31);
  a.init_params(ra);
  b.init_params(rb);
  auto pa = a.store().params();
  auto pb = b.store().params();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_FLOAT_EQ(pa[i], pb[i]);
  }
}

// ---- sub-model training is bit-identical -----------------------------------
//
// Model::train_step(batch, β) computes only the kept rows. Its loss, every
// gradient, and the parameters after an SGD step must equal — memcmp, not
// within tolerance — the full step followed by reference::zero_dropped_grads.

/// Kept mask over n units: one unit, an odd count, or all of them.
std::vector<std::uint8_t> kept_mask(std::size_t n, int mode, Rng& rng) {
  std::vector<std::uint8_t> kept(n, mode == 2 ? 1 : 0);
  if (mode == 2) return kept;
  const std::size_t count = mode == 0 ? 1 : (n / 2) | 1;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  for (std::size_t i = 0; i < count; ++i) kept[order[i]] = 1;
  return kept;
}

std::vector<std::size_t> kept_list(const std::vector<std::uint8_t>& kept) {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    if (kept[i] != 0) idx.push_back(i);
  }
  return idx;
}

/// Row r of (rows × cols) `m`, restricted to the kept columns.
Matrix kept_columns(const Matrix& m, const std::vector<std::size_t>& cols) {
  Matrix out(m.rows(), cols.size());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t j = 0; j < cols.size(); ++j) out(r, j) = m(r, cols[j]);
  }
  return out;
}

void expect_same_bits(std::span<const float> got, std::span<const float> want,
                      const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  if (std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) == 0) {
    return;
  }
  std::size_t i = 0;
  while (std::memcmp(&got[i], &want[i], sizeof(float)) == 0) ++i;
  ADD_FAILURE() << what << ": first differing bits at flat index " << i
                << " of " << got.size() << " (" << got[i] << " vs " << want[i]
                << ")";
}

/// Pattern over a store from per-group kept masks (non-droppable groups
/// contribute nothing); groups not in `masks` are fully kept.
core::DropPattern pattern_of(
    const ParameterStore& store,
    const std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>>&
        masks) {
  core::DropPattern pattern(store.droppable_rows());
  for (const auto& [group, mask] : masks) {
    for (std::size_t r = 0; r < mask.size(); ++r) {
      pattern.set(store.droppable_index(group, r), mask[r] != 0);
    }
  }
  return pattern;
}

const SgdConfig kSubModelSgd{.lr = 0.3F, .weight_decay = 1e-2F,
                             .clip_norm = 1.0F};

/// (hidden units H, kept-count mode 0/1/2 = one/odd/all, batch size).
class SubModel
    : public ::testing::TestWithParam<std::tuple<std::size_t, int,
                                                 std::size_t>> {};

TEST_P(SubModel, DenseMatchesMaskedFullLayer) {
  const auto [H, mode, batch] = GetParam();
  const std::size_t in = H + 3;
  Rng rng(301);
  ParameterStore full_store, sub_store;
  Dense full(full_store, "d", in, H);
  Dense sub(sub_store, "d", in, H);
  full_store.finalize();
  sub_store.finalize();
  full.init(full_store, rng);
  const auto out_mask = kept_mask(H, mode, rng);
  const auto in_mask = kept_mask(in, mode, rng);
  const auto pattern = pattern_of(full_store, {{full.group(), out_mask}});
  pattern.apply_to_params(full_store);
  tensor::copy(full_store.params(), sub_store.params());
  const auto out_idx = kept_list(out_mask);
  const auto in_idx = kept_list(in_mask);
  const Units out_units{out_idx.size(), out_idx.data()};
  const Units in_units{in_idx.size(), in_idx.data()};

  // Dropped inputs are +0, as a dropped unit's activation is.
  Matrix x(batch, in);
  x.fill_uniform(rng, -1.0F, 1.0F);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t i = 0; i < in; ++i) {
      if (in_mask[i] == 0) x(b, i) = 0.0F;
    }
  }
  Matrix out_full, out_sub;
  full.forward(full_store, x, out_full);
  const Matrix x_sub = kept_columns(x, in_idx);
  sub.forward(sub_store, x_sub, out_sub, in_units, out_units);
  expect_same_bits(out_sub.flat(), kept_columns(out_full, out_idx).flat(),
                   "dense forward");

  // Upstream gradients reach dropped outputs too; they must not leak.
  Matrix g_out(batch, H);
  g_out.fill_uniform(rng, -1.0F, 1.0F);
  Matrix g_in_full, g_in_sub;
  full.backward(full_store, x, g_out, &g_in_full);
  reference::zero_dropped_grads(pattern, full_store);
  sub.backward(sub_store, x_sub, kept_columns(g_out, out_idx), &g_in_sub,
               in_units, out_units);
  expect_same_bits(sub_store.grads(), full_store.grads(), "dense grads");
  expect_same_bits(g_in_sub.flat(), kept_columns(g_in_full, in_idx).flat(),
                   "dense input gradient");
  sgd_step(full_store, kSubModelSgd);
  sgd_step(sub_store, kSubModelSgd);
  expect_same_bits(sub_store.params(), full_store.params(), "dense params");
}

TEST_P(SubModel, LstmMatchesMaskedFullLayer) {
  const auto [H, mode, batch] = GetParam();
  const std::size_t in = H + 2;
  const std::size_t seq = 4;
  Rng rng(303);
  ParameterStore full_store, sub_store;
  LstmLayer full(full_store, "l", in, H);
  LstmLayer sub(sub_store, "l", in, H);
  full_store.finalize();
  sub_store.finalize();
  full.init(full_store, rng);
  const auto unit_mask = kept_mask(H, mode, rng);
  const auto in_mask = kept_mask(in, mode, rng);
  const auto pattern = pattern_of(full_store, {{full.group(), unit_mask}});
  pattern.apply_to_params(full_store);
  tensor::copy(full_store.params(), sub_store.params());
  const auto unit_idx = kept_list(unit_mask);
  const auto in_idx = kept_list(in_mask);
  const Units units{unit_idx.size(), unit_idx.data()};
  const Units in_units{in_idx.size(), in_idx.data()};

  Matrix x(batch * seq, in);
  x.fill_uniform(rng, -1.5F, 1.5F);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t i = 0; i < in; ++i) {
      if (in_mask[i] == 0) x(r, i) = 0.0F;
    }
  }
  LstmLayer::Cache full_cache, sub_cache;
  full.forward(full_store, x, batch, seq, full_cache);
  const Matrix x_sub = kept_columns(x, in_idx);
  sub.forward(sub_store, x_sub, batch, seq, sub_cache, in_units, units);
  expect_same_bits(sub_cache.h.flat(),
                   kept_columns(full_cache.h, unit_idx).flat(), "lstm h");
  expect_same_bits(sub_cache.c.flat(),
                   kept_columns(full_cache.c, unit_idx).flat(), "lstm c");
  std::vector<std::size_t> gate_idx;
  for (std::size_t gate = 0; gate < 4; ++gate) {
    for (const std::size_t j : unit_idx) gate_idx.push_back(gate * H + j);
  }
  expect_same_bits(sub_cache.gates.flat(),
                   kept_columns(full_cache.gates, gate_idx).flat(),
                   "lstm gates");

  Matrix g_h(batch * seq, H);
  g_h.fill_uniform(rng, -1.0F, 1.0F);
  Matrix g_x_full, g_x_sub;
  full.backward(full_store, x, full_cache, g_h, g_x_full);
  reference::zero_dropped_grads(pattern, full_store);
  sub.backward(sub_store, x_sub, sub_cache, kept_columns(g_h, unit_idx),
               g_x_sub, in_units, units);
  expect_same_bits(sub_store.grads(), full_store.grads(), "lstm grads");
  expect_same_bits(g_x_sub.flat(), kept_columns(g_x_full, in_idx).flat(),
                   "lstm input gradient");
  sgd_step(full_store, kSubModelSgd);
  sgd_step(sub_store, kSubModelSgd);
  expect_same_bits(sub_store.params(), full_store.params(), "lstm params");
}

/// Runs three masked SGD steps on two copies of `Model` — the full
/// train_step and train_step with β, each followed by the masked-step
/// reference's zero_dropped_grads — comparing loss, grads and params bit for
/// bit after every step.
template <typename Model, typename Config>
void expect_sub_model_steps_match(const Config& cfg,
                                  const data::Batch& batch, int mode,
                                  Rng& rng) {
  Model full(cfg);
  Model sub(cfg);
  full.init_params(rng);
  const ParameterStore& store = full.store();
  std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> masks;
  for (std::size_t g = 0; g < store.groups().size(); ++g) {
    if (!store.group(g).droppable) continue;
    // Hidden units take the parameterized count; vocabulary/class rows
    // drop about half, as FedBIAD's p = 0.5 does.
    const bool unit_group =
        store.group(g).kind == GroupKind::kRecurrentUnit ||
        (store.group(g).kind == GroupKind::kDense && g == 0);
    masks.emplace_back(g, kept_mask(store.group(g).rows,
                                    unit_group ? mode : 1, rng));
  }
  const auto pattern = pattern_of(store, masks);
  pattern.apply_to_params(full.store());
  tensor::copy(full.store().params(), sub.store().params());
  for (int step = 0; step < 3; ++step) {
    const float loss_full = full.train_step(batch);
    reference::zero_dropped_grads(pattern, full.store());
    const float loss_sub = sub.train_step(batch, pattern.bits());
    // Dropped rows' gradients are the caller's to discard (the embedding
    // still scatter-adds into dropped vocabulary rows).
    reference::zero_dropped_grads(pattern, sub.store());
    EXPECT_EQ(std::memcmp(&loss_full, &loss_sub, sizeof(float)), 0)
        << "loss, step " << step;
    expect_same_bits(sub.store().grads(), full.store().grads(), "grads");
    sgd_step(full.store(), kSubModelSgd);
    sgd_step(sub.store(), kSubModelSgd);
    pattern.apply_to_params(full.store());
    pattern.apply_to_params(sub.store());
    expect_same_bits(sub.store().params(), full.store().params(), "params");
  }
}

/// Three sub-model steps on two copies of `Model`: one masks the whole
/// store around a full sgd_step (zero dropped grads, step, zero dropped
/// params), the other steps only the kept rows. Params must agree bit for
/// bit, with weight decay on and clipping both active and inactive.
template <typename Model, typename Config>
void expect_kept_rows_sgd_matches_masked(const Config& cfg,
                                         const data::Batch& batch, int mode,
                                         Rng& rng) {
  Model masked(cfg);
  Model kept(cfg);
  masked.init_params(rng);
  const ParameterStore& store = masked.store();
  std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> masks;
  for (std::size_t g = 0; g < store.groups().size(); ++g) {
    if (!store.group(g).droppable) continue;
    masks.emplace_back(g, kept_mask(store.group(g).rows, mode, rng));
  }
  const auto pattern = pattern_of(store, masks);
  pattern.apply_to_params(masked.store());
  tensor::copy(masked.store().params(), kept.store().params());
  for (const float clip : {0.0F, 1e-3F, 1.0F}) {
    const SgdConfig sgd{.lr = 0.3F, .weight_decay = 1e-2F, .clip_norm = clip};
    for (int step = 0; step < 3; ++step) {
      (void)masked.train_step(batch, pattern.bits());
      (void)kept.train_step(batch, pattern.bits());
      reference::zero_dropped_grads(pattern, masked.store());
      const double norm_masked = sgd_step(masked.store(), sgd);
      pattern.apply_to_params(masked.store());
      const double norm_kept = sgd_step(kept.store(), sgd, pattern.bits());
      EXPECT_NEAR(norm_kept, norm_masked, 1e-12 * norm_masked);
      expect_same_bits(kept.store().params(), masked.store().params(),
                       "kept-rows params");
    }
  }
}

TEST_P(SubModel, SgdOverKeptRowsMatchesMaskedStep) {
  const auto [H, mode, batch_size] = GetParam();
  Rng rng(309);
  const auto image_batch = toy_image_batch(rng, batch_size, 12, 5);
  expect_kept_rows_sgd_matches_masked<MlpModel>(
      MlpConfig{.input = 12, .hidden = H, .classes = 5}, image_batch, mode,
      rng);
  data::Batch text_batch;
  text_batch.batch = batch_size;
  text_batch.seq = 5;
  for (std::size_t i = 0; i < batch_size * text_batch.seq; ++i) {
    text_batch.tokens.push_back(
        static_cast<std::int32_t>(rng.uniform_index(23)));
    text_batch.targets.push_back(
        static_cast<std::int32_t>(rng.uniform_index(23)));
  }
  expect_kept_rows_sgd_matches_masked<LstmLmModel>(
      LstmLmConfig{.vocab = 23, .embed = 6, .hidden = H, .layers = 2},
      text_batch, mode, rng);
}

TEST_P(SubModel, MlpTrainStepMatchesMaskedFullStep) {
  const auto [H, mode, batch_size] = GetParam();
  Rng rng(305);
  const auto batch = toy_image_batch(rng, batch_size, 12, 5);
  expect_sub_model_steps_match<MlpModel>(
      MlpConfig{.input = 12, .hidden = H, .classes = 5}, batch, mode, rng);
}

TEST_P(SubModel, LstmLmTrainStepMatchesMaskedFullStep) {
  const auto [H, mode, batch_size] = GetParam();
  Rng rng(307);
  data::Batch batch;
  batch.batch = batch_size;
  batch.seq = 5;
  for (std::size_t i = 0; i < batch_size * batch.seq; ++i) {
    batch.tokens.push_back(static_cast<std::int32_t>(rng.uniform_index(23)));
    batch.targets.push_back(static_cast<std::int32_t>(rng.uniform_index(23)));
  }
  expect_sub_model_steps_match<LstmLmModel>(
      LstmLmConfig{.vocab = 23, .embed = 6, .hidden = H, .layers = 2}, batch,
      mode, rng);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SubModel,
    ::testing::Combine(::testing::Values<std::size_t>(5, 13, 64),
                       ::testing::Values(0, 1, 2),
                       ::testing::Values<std::size_t>(1, 3)));

}  // namespace
}  // namespace fedbiad::nn
