// Tests for the declarative scenario subsystem: the JSON reader, strict
// config parsing, the availability/churn/deadline models, the scheduler's
// cancellation surface, and the engine integration — hand-computed partial-
// cohort references for all three aggregation modes, wire-accounting
// regressions under cutoff, thread-count determinism under every knob, and
// fuzzed invariant checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/fedavg.hpp"
#include "common/check.hpp"
#include "data/image_synth.hpp"
#include "data/partition.hpp"
#include "fl/aggregate.hpp"
#include "fl/async_simulation.hpp"
#include "fl/engine_hooks.hpp"
#include "fl/scheduler.hpp"
#include "fl/strategy.hpp"
#include "netsim/client_profile.hpp"
#include "nn/mlp_model.hpp"
#include "scenario/config.hpp"
#include "scenario/json.hpp"
#include "scenario/model.hpp"
#include "tensor/rng.hpp"
#include "wire/accounting.hpp"

namespace fedbiad {
namespace {

// --- EventScheduler cancellation surface ----------------------------------

TEST(SchedulerCancel, CancelPreventsExecution) {
  fl::EventScheduler sched;
  std::vector<int> order;
  const auto a = sched.schedule_at(1.0, [&] { order.push_back(1); });
  sched.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_TRUE(sched.cancel(a));
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(SchedulerCancel, CancelledEventNeverAdvancesClock) {
  fl::EventScheduler sched;
  const auto late = sched.schedule_at(9.0, [] { FAIL() << "cancelled ran"; });
  sched.schedule_at(2.0, [] {});
  EXPECT_TRUE(sched.cancel(late));
  sched.run();
  EXPECT_DOUBLE_EQ(sched.now(), 2.0);
  EXPECT_TRUE(sched.empty());
}

TEST(SchedulerCancel, CancelReturnsFalseForUnknownRunOrRepeat) {
  fl::EventScheduler sched;
  EXPECT_FALSE(sched.cancel(fl::EventScheduler::kNoEvent));
  EXPECT_FALSE(sched.cancel(12345));  // never issued
  const auto id = sched.schedule_at(1.0, [] {});
  EXPECT_TRUE(sched.run_next());
  EXPECT_FALSE(sched.cancel(id));  // already ran
  const auto id2 = sched.schedule_at(2.0, [] {});
  EXPECT_TRUE(sched.cancel(id2));
  EXPECT_FALSE(sched.cancel(id2));  // already cancelled
}

TEST(SchedulerCancel, PendingExcludesCancelled) {
  fl::EventScheduler sched;
  const auto a = sched.schedule_at(1.0, [] {});
  sched.schedule_at(2.0, [] {});
  sched.schedule_at(3.0, [] {});
  EXPECT_EQ(sched.pending(), 3u);
  EXPECT_TRUE(sched.cancel(a));
  EXPECT_EQ(sched.pending(), 2u);
  EXPECT_FALSE(sched.empty());
  sched.run();
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_TRUE(sched.empty());
}

// A storm of events at one timestamp (the simultaneous-arrival worst case
// of the engine) runs in insertion order with interleaved cancels honored.
TEST(SchedulerCancel, SimultaneousTimestampEventStorm) {
  fl::EventScheduler sched;
  std::vector<int> order;
  std::vector<fl::EventScheduler::EventId> ids;
  sched.schedule_at(0.5, [&] { order.push_back(-1); });
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(sched.schedule_at(1.0, [&, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 1000; i += 3) EXPECT_TRUE(sched.cancel(ids[i]));
  sched.run();
  EXPECT_DOUBLE_EQ(sched.now(), 1.0);
  std::vector<int> expect = {-1};
  for (int i = 0; i < 1000; ++i) {
    if (i % 3 != 0) expect.push_back(i);
  }
  EXPECT_EQ(order, expect);
}

// --- JSON reader ----------------------------------------------------------

TEST(ScenarioJson, ParsesNestedDocument) {
  const auto v = scenario::json::Value::parse(
      R"({"a": 1.5, "b": [true, null, "x"], "c": {"d": -2e3}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.find("a")->as_number(), 1.5);
  const auto& arr = v.find("b")->as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_TRUE(arr[0].as_bool());
  EXPECT_TRUE(arr[1].is_null());
  EXPECT_EQ(arr[2].as_string(), "x");
  EXPECT_DOUBLE_EQ(v.find("c")->find("d")->as_number(), -2000.0);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ScenarioJson, ObjectKeysKeepFileOrder) {
  const auto v = scenario::json::Value::parse(R"({"z": 1, "a": 2, "m": 3})");
  const auto& obj = v.as_object();
  ASSERT_EQ(obj.size(), 3u);
  EXPECT_EQ(obj[0].first, "z");
  EXPECT_EQ(obj[1].first, "a");
  EXPECT_EQ(obj[2].first, "m");
}

TEST(ScenarioJson, RejectsTrailingContent) {
  EXPECT_THROW(scenario::json::Value::parse("{} trailing"), CheckError);
  EXPECT_THROW(scenario::json::Value::parse("1 2"), CheckError);
}

TEST(ScenarioJson, RejectsDuplicateKeys) {
  EXPECT_THROW(scenario::json::Value::parse(R"({"a": 1, "a": 2})"),
               CheckError);
}

TEST(ScenarioJson, RejectsMalformedInput) {
  EXPECT_THROW(scenario::json::Value::parse(""), CheckError);
  EXPECT_THROW(scenario::json::Value::parse("{"), CheckError);
  EXPECT_THROW(scenario::json::Value::parse("[1,]"), CheckError);
  EXPECT_THROW(scenario::json::Value::parse("tru"), CheckError);
  EXPECT_THROW(scenario::json::Value::parse("\"unterminated"), CheckError);
  EXPECT_THROW(scenario::json::Value::parse("{\"a\": 1.}"), CheckError);
}

TEST(ScenarioJson, ParsesStringEscapes) {
  const auto v = scenario::json::Value::parse(R"(["a\"b", "\n\t\\", "A"])");
  const auto& arr = v.as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr[0].as_string(), "a\"b");
  EXPECT_EQ(arr[1].as_string(), "\n\t\\");
  EXPECT_EQ(arr[2].as_string(), "A");
}

// --- Config parsing and validation ----------------------------------------

scenario::Config full_config() {
  scenario::Config cfg;
  cfg.name = "full";
  cfg.seed = 1234;
  cfg.over_selection = 1.5;
  cfg.deadline_seconds = 40.0;
  cfg.availability = scenario::AvailabilityConfig{
      .period_seconds = 240.0,
      .window_fraction = 0.5,
      .on_probability = 0.9,
      .correlation = 0.6,
  };
  cfg.churn = scenario::ChurnConfig{.failure_rate = 0.2};
  return cfg;
}

TEST(ScenarioConfig, RoundTripsFullConfig) {
  const scenario::Config cfg = full_config();
  const scenario::Config back = scenario::Config::from_json(cfg.to_json());
  EXPECT_EQ(back, cfg);
  EXPECT_TRUE(cfg.active());
}

TEST(ScenarioConfig, RoundTripsMinimalConfig) {
  const scenario::Config cfg;  // ideal scenario, all defaults
  const scenario::Config back = scenario::Config::from_json(cfg.to_json());
  EXPECT_EQ(back, cfg);
  EXPECT_FALSE(cfg.active());
  EXPECT_EQ(scenario::Config::from_json("{}"), cfg);
}

TEST(ScenarioConfig, ActiveReflectsEveryKnob) {
  scenario::Config cfg;
  EXPECT_FALSE(cfg.active());
  cfg.over_selection = 1.5;
  EXPECT_TRUE(cfg.active());
  cfg = {};
  cfg.deadline_seconds = 1.0;
  EXPECT_TRUE(cfg.active());
  cfg = {};
  cfg.availability = scenario::AvailabilityConfig{};
  EXPECT_TRUE(cfg.active());
  cfg = {};
  cfg.churn = scenario::ChurnConfig{};
  EXPECT_TRUE(cfg.active());
}

TEST(ScenarioConfig, RejectsUnknownTopLevelKey) {
  EXPECT_THROW(scenario::Config::from_json(R"({"deadline": 1.0})"),
               CheckError);
}

TEST(ScenarioConfig, RejectsUnknownSectionKeys) {
  EXPECT_THROW(scenario::Config::from_json(
                   R"({"availability": {"period": 10.0}})"),
               CheckError);
  EXPECT_THROW(scenario::Config::from_json(R"({"churn": {"rate": 0.5}})"),
               CheckError);
}

TEST(ScenarioConfig, RejectsNonObjectRootAndSections) {
  EXPECT_THROW(scenario::Config::from_json("[]"), CheckError);
  EXPECT_THROW(scenario::Config::from_json("42"), CheckError);
  EXPECT_THROW(scenario::Config::from_json(R"({"availability": 3})"),
               CheckError);
}

TEST(ScenarioConfig, RejectsFailureRateOutOfRange) {
  EXPECT_THROW(scenario::Config::from_json(
                   R"({"churn": {"failure_rate": 0.96}})"),
               CheckError);
  EXPECT_THROW(scenario::Config::from_json(
                   R"({"churn": {"failure_rate": -0.1}})"),
               CheckError);
  // The cap itself is fine.
  EXPECT_EQ(scenario::Config::from_json(R"({"churn": {"failure_rate": 0.95}})")
                .churn->failure_rate,
            0.95);
}

TEST(ScenarioConfig, RejectsZeroWidthWindow) {
  EXPECT_THROW(scenario::Config::from_json(
                   R"({"availability": {"window_fraction": 0.0}})"),
               CheckError);
  EXPECT_THROW(scenario::Config::from_json(
                   R"({"availability": {"window_fraction": 1.5}})"),
               CheckError);
}

TEST(ScenarioConfig, RejectsBadAvailabilityRanges) {
  EXPECT_THROW(scenario::Config::from_json(
                   R"({"availability": {"period_seconds": 0.0}})"),
               CheckError);
  EXPECT_THROW(scenario::Config::from_json(
                   R"({"availability": {"on_probability": 0.0}})"),
               CheckError);
  EXPECT_THROW(scenario::Config::from_json(
                   R"({"availability": {"correlation": 1.0}})"),
               CheckError);
  EXPECT_THROW(scenario::Config::from_json(
                   R"({"availability": {"correlation": -0.1}})"),
               CheckError);
}

TEST(ScenarioConfig, RejectsBadOverSelectionAndDeadline) {
  EXPECT_THROW(scenario::Config::from_json(R"({"over_selection": 0.9})"),
               CheckError);
  EXPECT_THROW(scenario::Config::from_json(R"({"over_selection": 8.5})"),
               CheckError);
  EXPECT_THROW(scenario::Config::from_json(R"({"deadline_seconds": -1.0})"),
               CheckError);
}

TEST(ScenarioConfig, RejectsBadSeedAndName) {
  EXPECT_THROW(scenario::Config::from_json(R"({"seed": 1.5})"), CheckError);
  EXPECT_THROW(scenario::Config::from_json(R"({"seed": -3})"), CheckError);
  EXPECT_THROW(scenario::Config::from_json(R"({"seed": "7"})"), CheckError);
  EXPECT_THROW(scenario::Config::from_json(R"({"name": "has space"})"),
               CheckError);
  EXPECT_THROW(scenario::Config::from_json(R"({"name": ""})"), CheckError);
  EXPECT_THROW(scenario::Config::from_json(R"({"name": 7})"), CheckError);
}

TEST(ScenarioConfig, ValidateCatchesMutationsAfterParse) {
  scenario::Config cfg = full_config();
  cfg.validate();
  cfg.over_selection = 100.0;
  EXPECT_THROW(cfg.validate(), CheckError);
}

TEST(ScenarioConfig, LoadRejectsMissingFile) {
  EXPECT_THROW(scenario::Config::load("/nonexistent/scenario.json"),
               CheckError);
}

// Every checked-in corpus file parses, matches its filename, and survives a
// canonical-emission round trip.
TEST(ScenarioConfig, CorpusFilesParseAndRoundTrip) {
  const std::string dir = FEDBIAD_SCENARIO_DIR;
  const std::vector<std::string> names = {
      "ideal",          "churn_moderate", "churn_heavy", "deadline_tight",
      "deadline_bench", "diurnal",        "flash_crowd", "faulty"};
  for (const std::string& name : names) {
    const scenario::Config cfg =
        scenario::Config::load(dir + "/" + name + ".json");
    EXPECT_EQ(cfg.name, name);
    EXPECT_EQ(scenario::Config::from_json(cfg.to_json()), cfg) << name;
    EXPECT_EQ(cfg.active(), name != "ideal") << name;
  }
}

// --- AvailabilityModel ----------------------------------------------------

TEST(ScenarioAvailability, AlwaysOnWithoutConfig) {
  scenario::AvailabilityModel m(std::nullopt, 1, 4);
  for (const double t : {0.0, 0.5, 123.0, 1e6}) {
    EXPECT_TRUE(m.available(0, t));
    EXPECT_EQ(m.next_available_time(2, t), t);
  }
  EXPECT_TRUE(m.period_on(3, 10'000));
  EXPECT_EQ(m.phase_seconds(1), 0.0);
}

TEST(ScenarioAvailability, WindowGatesWithinPeriod) {
  const scenario::AvailabilityConfig cfg{.period_seconds = 10.0,
                                         .window_fraction = 0.3,
                                         .on_probability = 1.0,
                                         .correlation = 0.0};
  scenario::AvailabilityModel m(cfg, 21, 20);
  // Find a client whose window does not wrap the period boundary.
  std::size_t k = 20;
  for (std::size_t c = 0; c < 20; ++c) {
    if (m.phase_seconds(c) + 3.0 < 9.9) {
      k = c;
      break;
    }
  }
  ASSERT_LT(k, 20u) << "no non-wrapping phase among 20 clients";
  const double phase = m.phase_seconds(k);
  EXPECT_TRUE(m.available(k, phase));          // start is inclusive
  EXPECT_TRUE(m.available(k, phase + 1.5));    // inside
  EXPECT_FALSE(m.available(k, phase + 3.0));   // end is exclusive
  EXPECT_FALSE(m.available(k, phase + 5.0));   // past the window
  if (phase > 0.1) EXPECT_FALSE(m.available(k, phase - 0.05));
  // Periodic: same offsets one period later (on_probability 1 keeps every
  // period on).
  EXPECT_TRUE(m.available(k, 10.0 + phase + 1.5));
  EXPECT_FALSE(m.available(k, 10.0 + phase + 3.0));
  // From just past the window, the next on-time is the next period's start.
  EXPECT_EQ(m.next_available_time(k, phase + 3.0), 10.0 + phase);
}

TEST(ScenarioAvailability, WrapAroundWindowSpillsIntoNextPeriod) {
  const scenario::AvailabilityConfig cfg{.period_seconds = 10.0,
                                         .window_fraction = 0.6,
                                         .on_probability = 1.0,
                                         .correlation = 0.0};
  scenario::AvailabilityModel m(cfg, 33, 20);
  std::size_t k = 20;
  for (std::size_t c = 0; c < 20; ++c) {
    if (m.phase_seconds(c) > 4.5) {  // phase + 6 wraps past 10
      k = c;
      break;
    }
  }
  ASSERT_LT(k, 20u) << "no wrapping phase among 20 clients";
  const double phase = m.phase_seconds(k);
  // The window is [phase, 10) ∪ [0, phase - 4): on at the period start…
  EXPECT_TRUE(m.available(k, 0.0));
  EXPECT_TRUE(m.available(k, phase));
  EXPECT_TRUE(m.available(k, 9.99));
  // …off in the gap between the spill-over and the window start…
  const double gap_mid = phase - 2.0;
  EXPECT_FALSE(m.available(k, gap_mid));
  // …and the next on-time from inside the gap is exactly the window start.
  EXPECT_EQ(m.next_available_time(k, gap_mid), phase);
}

// Property: next_available_time is consistent with available() — it never
// moves backwards, lands on an available instant, is the identity on
// available instants, and nothing strictly between t and the answer is on.
TEST(ScenarioAvailability, NextAvailableTimeConsistency) {
  const scenario::AvailabilityConfig cfg{.period_seconds = 1.0,
                                         .window_fraction = 0.5,
                                         .on_probability = 0.7,
                                         .correlation = 0.3};
  scenario::AvailabilityModel m(cfg, 17, 4);
  for (std::size_t c = 0; c < 4; ++c) {
    for (double t = 0.0; t < 8.0; t += 0.037) {
      if (m.available(c, t)) {
        EXPECT_EQ(m.next_available_time(c, t), t);
        continue;
      }
      const double na = m.next_available_time(c, t);
      ASSERT_GT(na, t);
      EXPECT_TRUE(m.available(c, na)) << "client " << c << " t " << t;
      for (int j = 1; j <= 4; ++j) {
        const double mid = t + (na - t) * j / 5.0;
        EXPECT_FALSE(m.available(c, mid))
            << "client " << c << " skipped an on-instant at " << mid;
      }
    }
  }
}

TEST(ScenarioAvailability, MarginalMatchesOnProbability) {
  const scenario::AvailabilityConfig cfg{.period_seconds = 1.0,
                                         .window_fraction = 1.0,
                                         .on_probability = 0.6,
                                         .correlation = 0.0};
  scenario::AvailabilityModel m(cfg, 5, 2);
  std::size_t on = 0;
  const std::size_t periods = 4000;
  for (std::size_t p = 0; p < periods; ++p) on += m.period_on(0, p) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(on) / periods, 0.6, 0.04);
}

// Correlation makes presence sticky: P(on | previous on) ≈ ρ + (1-ρ)·p,
// well above the uncorrelated marginal.
TEST(ScenarioAvailability, CorrelationCreatesPersistentRuns) {
  const scenario::AvailabilityConfig cfg{.period_seconds = 1.0,
                                         .window_fraction = 1.0,
                                         .on_probability = 0.6,
                                         .correlation = 0.7};
  scenario::AvailabilityModel m(cfg, 5, 2);
  std::size_t on_on = 0, on = 0;
  const std::size_t periods = 6000;
  bool prev = m.period_on(0, 0);
  for (std::size_t p = 1; p < periods; ++p) {
    const bool cur = m.period_on(0, p);
    if (prev) {
      ++on;
      on_on += cur ? 1 : 0;
    }
    prev = cur;
  }
  ASSERT_GT(on, 1000u);
  EXPECT_NEAR(static_cast<double>(on_on) / static_cast<double>(on),
              0.7 + 0.3 * 0.6, 0.05);
}

// The per-client chain is cached sequentially: random-access query orders
// and distinct model instances agree state for state.
TEST(ScenarioAvailability, ChainIsQueryOrderIndependent) {
  const scenario::AvailabilityConfig cfg{.period_seconds = 2.0,
                                         .window_fraction = 0.5,
                                         .on_probability = 0.9,
                                         .correlation = 0.5};
  scenario::AvailabilityModel a(cfg, 75, 6);
  scenario::AvailabilityModel b(cfg, 75, 6);
  // a queries far-first, b near-first.
  for (std::size_t c = 0; c < 6; ++c) {
    const bool far_a = a.period_on(c, 500);
    const bool near_a = a.period_on(c, 3);
    const bool near_b = b.period_on(c, 3);
    const bool far_b = b.period_on(c, 500);
    EXPECT_EQ(far_a, far_b);
    EXPECT_EQ(near_a, near_b);
    EXPECT_EQ(a.phase_seconds(c), b.phase_seconds(c));
  }
  for (double t = 0.0; t < 20.0; t += 0.41) {
    for (std::size_t c = 0; c < 6; ++c) {
      EXPECT_EQ(a.available(c, t), b.available(c, t));
    }
  }
}

// --- ChurnInjector --------------------------------------------------------

TEST(ScenarioChurn, DeterministicPerDispatchDraws) {
  const scenario::ChurnConfig cfg{.failure_rate = 0.3};
  const scenario::ChurnInjector a(cfg, 72);
  const scenario::ChurnInjector b(cfg, 72);
  const scenario::ChurnInjector other(cfg, 73);
  bool any_diff = false;
  for (std::size_t c = 0; c < 6; ++c) {
    for (std::size_t s = 0; s < 50; ++s) {
      const auto da = a.decide(c, s);
      const auto db = b.decide(c, s);
      EXPECT_EQ(da.fails, db.fails);
      EXPECT_EQ(da.fraction, db.fraction);
      any_diff |= da.fails != other.decide(c, s).fails;
    }
  }
  EXPECT_TRUE(any_diff) << "different seeds should draw differently";
}

TEST(ScenarioChurn, ZeroRateNeverFails) {
  const scenario::ChurnInjector off(std::nullopt, 9);
  const scenario::ChurnInjector zero(scenario::ChurnConfig{.failure_rate = 0.0},
                                     9);
  for (std::size_t s = 0; s < 200; ++s) {
    EXPECT_FALSE(off.decide(s % 7, s).fails);
    EXPECT_FALSE(zero.decide(s % 7, s).fails);
  }
}

TEST(ScenarioChurn, MatchesConfiguredRateStatistically) {
  const scenario::ChurnInjector inj(scenario::ChurnConfig{.failure_rate = 0.3},
                                    11);
  std::size_t fails = 0;
  const std::size_t draws = 5000;
  for (std::size_t s = 0; s < draws; ++s) {
    const auto d = inj.decide(s % 13, s);
    fails += d.fails ? 1 : 0;
    EXPECT_GE(d.fraction, 0.0);
    EXPECT_LT(d.fraction, 1.0);
  }
  EXPECT_NEAR(static_cast<double>(fails) / draws, 0.3, 0.03);
}

// --- Engine integration fixtures ------------------------------------------

constexpr std::size_t kClients = 6;

struct Fixture {
  fl::SimulationConfig sim;
  data::DatasetPtr train;
  data::DatasetPtr test;
  data::Partition partition;
  nn::ModelFactory factory;
};

// Mirrors tests/test_async.cpp's harness: 6 clients, 3 in flight, a tiny
// 10×10 MLP — jobs take ~0.03–0.8 virtual seconds under the stressed fleet.
Fixture make_fixture(std::size_t threads, std::size_t rounds = 4) {
  Fixture fx;
  fx.sim.rounds = rounds;
  fx.sim.selection_fraction = 0.5;
  fx.sim.train.local_iterations = 3;
  fx.sim.train.batch_size = 8;
  fx.sim.train.sgd = {.lr = 0.1F, .weight_decay = 0.0F, .clip_norm = 0.0F};
  fx.sim.seed = 9;
  fx.sim.threads = threads;
  auto img_cfg = data::ImageSynthConfig::mnist_like(3);
  img_cfg.train_samples = 96;
  img_cfg.test_samples = 30;
  img_cfg.height = 10;
  img_cfg.width = 10;
  const auto datasets = data::make_image_datasets(img_cfg);
  fx.train = datasets.train;
  fx.test = datasets.test;
  tensor::Rng prng(5);
  fx.partition = data::partition_iid(datasets.train->size(), kClients, prng);
  fx.factory = [] {
    return std::make_unique<nn::MlpModel>(
        nn::MlpConfig{.input = 100, .hidden = 8, .classes = 10});
  };
  return fx;
}

netsim::HeterogeneityConfig stressed_fleet() {
  netsim::HeterogeneityConfig h;
  h.compute_spread = 6.0;
  h.bandwidth_spread = 3.0;
  h.straggler_fraction = 0.3;
  h.straggler_multiplier = 4.0;
  return h;
}

fl::SimulationResult run_hooked(std::shared_ptr<fl::EngineHooks> hooks,
                                const std::string& name,
                                fl::AggregationMode mode, std::size_t threads,
                                const netsim::HeterogeneityConfig& fleet,
                                std::size_t rounds = 4,
                                std::size_t buffer_k = 2) {
  Fixture fx = make_fixture(threads, rounds);
  fl::AsyncSimulationConfig cfg;
  cfg.base = fx.sim;
  cfg.mode = mode;
  cfg.buffer_size = buffer_k;
  cfg.heterogeneity = fleet;
  cfg.hooks = std::move(hooks);
  cfg.scenario_name = name;
  fl::AsyncSimulation sim(cfg, fx.factory, fx.train, fx.test, fx.partition,
                          std::make_shared<baselines::FedAvgStrategy>());
  return sim.run();
}

fl::SimulationResult run_scenario(const scenario::Config& cfg,
                                  fl::AggregationMode mode,
                                  std::size_t threads,
                                  const netsim::HeterogeneityConfig& fleet,
                                  std::size_t rounds = 4,
                                  std::size_t buffer_k = 2) {
  return run_hooked(scenario::make_engine_hooks(cfg, kClients), cfg.name, mode,
                    threads, fleet, rounds, buffer_k);
}

fl::SimulationResult run_plain(fl::AggregationMode mode, std::size_t threads,
                               const netsim::HeterogeneityConfig& fleet,
                               std::size_t rounds = 4,
                               std::size_t buffer_k = 2) {
  return run_hooked(nullptr, "", mode, threads, fleet, rounds, buffer_k);
}

void expect_identical(const fl::SimulationResult& a,
                      const fl::SimulationResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].participants, b.rounds[i].participants);
    EXPECT_EQ(a.rounds[i].uplink_bytes_total, b.rounds[i].uplink_bytes_total);
    EXPECT_EQ(a.rounds[i].downlink_bytes, b.rounds[i].downlink_bytes);
    EXPECT_EQ(a.rounds[i].train_loss, b.rounds[i].train_loss) << "round " << i;
    EXPECT_EQ(a.rounds[i].test_loss, b.rounds[i].test_loss) << "round " << i;
    EXPECT_EQ(a.rounds[i].top1, b.rounds[i].top1) << "round " << i;
    EXPECT_EQ(a.rounds[i].clock_seconds, b.rounds[i].clock_seconds);
    EXPECT_EQ(a.rounds[i].mean_staleness, b.rounds[i].mean_staleness);
    EXPECT_EQ(a.rounds[i].abandoned, b.rounds[i].abandoned);
    EXPECT_EQ(a.rounds[i].wasted_uplink_bytes,
              b.rounds[i].wasted_uplink_bytes);
  }
  EXPECT_EQ(a.total_dispatched, b.total_dispatched);
  EXPECT_EQ(a.total_committed, b.total_committed);
  EXPECT_EQ(a.total_abandoned, b.total_abandoned);
  EXPECT_EQ(a.total_wasted_uplink_bytes, b.total_wasted_uplink_bytes);
  EXPECT_EQ(a.final_buffered, b.final_buffered);
  EXPECT_EQ(a.final_in_flight, b.final_in_flight);
  ASSERT_EQ(a.final_params.size(), b.final_params.size());
  for (std::size_t i = 0; i < a.final_params.size(); ++i) {
    ASSERT_EQ(a.final_params[i], b.final_params[i]) << "param " << i;
  }
}

// The conservation ledger and clock monotonicity — the scenario property
// invariants every run must satisfy.
void expect_conserved(const fl::SimulationResult& r) {
  EXPECT_EQ(r.total_dispatched, r.total_committed + r.total_abandoned +
                                    r.final_buffered + r.final_in_flight);
  std::size_t parts = 0;
  std::size_t abandoned = 0;
  std::uint64_t wasted = 0;
  double clock = 0.0;
  for (const auto& rec : r.rounds) {
    parts += rec.participants;
    abandoned += rec.abandoned;
    wasted += rec.wasted_uplink_bytes;
    // No upper bound against kClients: buffered-K commits can hold several
    // updates from the same client across dispatch generations.
    EXPECT_GE(rec.participants, 1u);
    EXPECT_GE(rec.clock_seconds, clock) << "clock moved backwards";
    clock = rec.clock_seconds;
  }
  EXPECT_EQ(parts, r.total_committed);
  // Abandons after the final commit stay out of every RoundRecord.
  EXPECT_LE(abandoned, r.total_abandoned);
  EXPECT_LE(wasted, r.total_wasted_uplink_bytes);
  const double f = r.dropped_upload_fraction();
  EXPECT_GE(f, 0.0);
  EXPECT_LE(f, 1.0);
}

// --- Reference machinery: replays the engine's draws and formulas ---------

struct ReferenceRig {
  Fixture fx;
  std::vector<netsim::ClientProfile> profiles;
  std::unique_ptr<nn::Model> model;  ///< layout for decode, initial params
  std::vector<float> global;
  tensor::Rng rng{0};  ///< the engine's selection stream, mid-replay
  std::uint64_t downlink = 0;
};

// Replays AsyncSimulation::run()'s setup draw for draw: profiles from
// split(0xA11C), init params from split(0xF0F0), then rig.rng is positioned
// exactly where the engine's selection stream starts.
ReferenceRig make_rig(std::size_t rounds,
                      const netsim::HeterogeneityConfig& fleet,
                      fl::Strategy& strategy) {
  ReferenceRig rig;
  rig.fx = make_fixture(1, rounds);
  rig.rng = tensor::Rng(rig.fx.sim.seed);
  rig.profiles = netsim::make_profiles(rig.fx.partition.size(), fleet,
                                       rig.fx.sim.link, rig.rng.split(0xA11C));
  rig.model = rig.fx.factory();
  {
    tensor::Rng init_rng = rig.rng.split(0xF0F0);
    rig.model->init_params(init_rng);
  }
  const auto params = rig.model->store().params();
  rig.global.assign(params.begin(), params.end());
  rig.downlink = strategy.downlink_bytes(rig.global.size());
  return rig;
}

double reference_work_units(const Fixture& fx, fl::Strategy& strategy,
                            std::size_t client) {
  const double samples = static_cast<double>(std::min<std::size_t>(
      fx.sim.train.batch_size, fx.partition[client].size()));
  return static_cast<double>(fx.sim.train.local_iterations) * samples *
         strategy.compute_cost_multiplier();
}

struct Timing {
  double download = 0.0;
  double compute = 0.0;
  double upload = 0.0;
  // The engine hops training-done (download + compute) then arrival
  // (+ upload); keep the same association order.
  [[nodiscard]] double total() const { return (download + compute) + upload; }
};

Timing reference_timing(const ReferenceRig& rig, fl::Strategy& strategy,
                        std::size_t client, std::uint64_t payload_bytes) {
  Timing t;
  t.download = rig.profiles[client].download_seconds(rig.downlink);
  t.compute = rig.profiles[client].compute_seconds(
      reference_work_units(rig.fx, strategy, client));
  t.upload = rig.profiles[client].upload_seconds(payload_bytes);
  return t;
}

// Runs one client exactly as the engine's pool task would: same snapshot,
// same (client, stream) rng, same context. Round/version are fixed at 1/0 —
// every reference test observes the first commit only.
fl::ClientOutcome reference_run_client(const ReferenceRig& rig,
                                       fl::Strategy& strategy,
                                       std::size_t client,
                                       std::uint64_t stream,
                                       double dispatch_clock,
                                       double deadline) {
  auto replica = rig.fx.factory();
  const auto params = replica->store().params();
  std::copy(rig.global.begin(), rig.global.end(), params.begin());
  tensor::Rng ctx_rng =
      tensor::Rng(rig.fx.sim.seed).split(0x1000 + client).split(stream);
  fl::ClientContext ctx{
      .client_id = client,
      .round = 1,
      .model = *replica,
      .global_params = rig.global,
      .dataset = *rig.fx.train,
      .shard = rig.fx.partition[client],
      .settings = rig.fx.sim.train,
      .rng = ctx_rng,
      .model_version = 0,
      .dispatch_clock = dispatch_clock,
      .deadline_seconds = deadline,
  };
  fl::ClientOutcome out = strategy.run_client(ctx);
  out.client_id = client;
  return out;
}

// staleness_merge replicated bit for bit for τ = 0 commits (version 0).
std::vector<float> reference_async_merge(
    std::vector<float> global, const std::vector<fl::ClientOutcome>& batch) {
  std::vector<double> weights(batch.size());
  for (std::size_t k = 0; k < batch.size(); ++k) {
    weights[k] = static_cast<double>(batch[k].samples) * std::pow(1.0, -0.5);
  }
  for (std::size_t i = 0; i < global.size(); ++i) {
    double acc = 0.0;
    double weight = 0.0;
    for (std::size_t k = 0; k < batch.size(); ++k) {
      if (!batch[k].present.test(i)) continue;
      const double v = static_cast<double>(batch[k].values[i]);
      const double delta =
          batch[k].is_update ? v : v - static_cast<double>(global[i]);
      acc += weights[k] * delta;
      weight += weights[k];
    }
    if (weight > 0.0) global[i] += static_cast<float>(0.6 * acc / weight);
  }
  return global;
}

// Replays the engine's *initial* async top_up: three uniform draws over the
// idle populated clients (ascending order, rebuilt between draws).
std::vector<std::size_t> replay_initial_topup(tensor::Rng& rng) {
  std::vector<std::size_t> idle;
  for (std::size_t c = 0; c < kClients; ++c) idle.push_back(c);
  std::vector<std::size_t> drawn;
  for (int k = 0; k < 3; ++k) {
    const std::size_t j = rng.uniform_index(idle.size());
    drawn.push_back(idle[j]);
    idle.erase(idle.begin() + static_cast<std::ptrdiff_t>(j));
  }
  return drawn;
}

// Test-local hooks: everything available, programmable churn, fixed
// deadline/over-selection.
struct TestHooks final : fl::EngineHooks {
  std::function<fl::ChurnDecision(std::size_t, std::size_t)> churn_fn;
  double deadline = 0.0;
  double over = 1.0;

  bool client_available(std::size_t, double) override { return true; }
  double next_available_time(std::size_t, double now) override { return now; }
  fl::ChurnDecision churn(std::size_t client, std::size_t seq) override {
    return churn_fn ? churn_fn(client, seq) : fl::ChurnDecision{};
  }
  double deadline_seconds() const override { return deadline; }
  double over_selection() const override { return over; }
};

// --- Engine integration: bit-identity and determinism ---------------------

// An all-defaults scenario must be bit-identical to no scenario at all in
// barrier mode: same selection draws, same events, same trajectory. (The
// async modes intentionally differ — their dispatch budgeting changes under
// a scenario — so only the barrier pins this.)
TEST(EngineScenario, EmptyScenarioBarrierBitIdentical) {
  for (const std::size_t threads : {1u, 4u}) {
    const auto plain =
        run_plain(fl::AggregationMode::kBarrier, threads, stressed_fleet());
    scenario::Config cfg;  // ideal: nothing active
    const auto hooked = run_scenario(cfg, fl::AggregationMode::kBarrier,
                                     threads, stressed_fleet());
    expect_identical(plain, hooked);
    EXPECT_EQ(plain.scenario, "");
    EXPECT_EQ(hooked.scenario, "unnamed");
    EXPECT_EQ(hooked.total_abandoned, 0u);
    EXPECT_EQ(hooked.total_wasted_uplink_bytes, 0u);
    expect_conserved(hooked);
  }
}

TEST(EngineScenario, HookFreeLedgerIsClean) {
  for (const auto mode :
       {fl::AggregationMode::kBarrier, fl::AggregationMode::kFedAsync,
        fl::AggregationMode::kBufferedK}) {
    const auto r = run_plain(mode, 2, stressed_fleet());
    expect_conserved(r);
    EXPECT_EQ(r.total_abandoned, 0u);
    EXPECT_EQ(r.total_wasted_uplink_bytes, 0u);
    EXPECT_EQ(r.scenario, "");
  }
}

// Thread-count invariance under every scenario knob, for every mode: churn
// only, availability only (exercises the dispatch-retry path), and the
// full flash-crowd combination (availability + churn + deadline +
// over-selection).
class ScenarioDeterminism
    : public ::testing::TestWithParam<fl::AggregationMode> {};

TEST_P(ScenarioDeterminism, ThreadCountInvariantUnderEveryKnob) {
  std::vector<scenario::Config> configs(3);
  configs[0].name = "churn_heavy";
  configs[0].seed = 72;
  configs[0].over_selection = 1.5;
  configs[0].churn = scenario::ChurnConfig{.failure_rate = 0.4};
  configs[1].name = "diurnal";
  configs[1].seed = 75;
  configs[1].availability = scenario::AvailabilityConfig{
      .period_seconds = 2.0,
      .window_fraction = 0.5,
      .on_probability = 0.9,
      .correlation = 0.5,
  };
  configs[2].name = "flash_crowd";
  configs[2].seed = 76;
  configs[2].over_selection = 2.0;
  configs[2].deadline_seconds = 1.0;
  configs[2].availability = scenario::AvailabilityConfig{
      .period_seconds = 1.0,
      .window_fraction = 0.8,
      .on_probability = 0.7,
      .correlation = 0.8,
  };
  configs[2].churn = scenario::ChurnConfig{.failure_rate = 0.2};
  for (const auto& cfg : configs) {
    const auto t1 = run_scenario(cfg, GetParam(), 1, stressed_fleet(), 3);
    const auto t4 = run_scenario(cfg, GetParam(), 4, stressed_fleet(), 3);
    expect_identical(t1, t4);
    expect_conserved(t1);
    EXPECT_EQ(t1.scenario, cfg.name);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, ScenarioDeterminism,
                         ::testing::Values(fl::AggregationMode::kBarrier,
                                           fl::AggregationMode::kFedAsync,
                                           fl::AggregationMode::kBufferedK),
                         [](const auto& info) {
                           return std::string(fl::to_string(info.param));
                         });

// --- Hand-computed partial-cohort references ------------------------------

// Barrier + deadline: replay the engine's wave, compute each member's
// timeline, pick a deadline that cuts exactly the slowest member, and check
// the engine's partial aggregate against fl::aggregate over the survivors.
TEST(EngineScenario, BarrierDeadlineMatchesHandComputedReference) {
  baselines::FedAvgStrategy strategy;
  const auto fleet = stressed_fleet();
  ReferenceRig rig = make_rig(1, fleet, strategy);
  const auto picks = rig.rng.sample_without_replacement(kClients, 3);

  struct Member {
    std::size_t client;
    fl::ClientOutcome out;
    Timing t;
  };
  std::vector<Member> wave;
  for (const std::size_t client : picks) {
    // The engine passes the configured deadline into ClientContext; FedAvg
    // ignores it, so running with 0 here yields the identical outcome.
    fl::ClientOutcome out =
        reference_run_client(rig, strategy, client, /*stream=*/1, 0.0, 0.0);
    const Timing t = reference_timing(rig, strategy, client, out.payload.size());
    wave.push_back({client, std::move(out), t});
  }
  std::vector<double> totals;
  for (const auto& m : wave) totals.push_back(m.t.total());
  std::vector<double> sorted = totals;
  std::sort(sorted.begin(), sorted.end());
  ASSERT_LT(sorted[0], sorted[1]);
  ASSERT_LT(sorted[1], sorted[2]);
  const double deadline = 0.5 * (sorted[1] + sorted[2]);

  // Survivors aggregate in selection-slot order, exactly like a full wave.
  std::vector<fl::ClientOutcome> survivors;
  std::uint64_t expect_wasted = 0;
  std::uint64_t expect_uplink = 0;
  for (auto& m : wave) {
    if (m.t.total() < deadline) {
      fl::decode_outcome(strategy, rig.model->store(), m.out);
      expect_uplink += m.out.uplink_bytes;
      survivors.push_back(std::move(m.out));
    } else if (deadline > m.t.download + m.t.compute) {
      // Cut mid-upload: the engine charges the pushed fraction as wasted.
      const double frac = std::clamp(
          (deadline - (m.t.download + m.t.compute)) / m.t.upload, 0.0, 1.0);
      expect_wasted += static_cast<std::uint64_t>(
          static_cast<double>(m.out.payload.size()) * frac);
    }
  }
  ASSERT_EQ(survivors.size(), 2u);
  std::vector<float> expect = rig.global;
  fl::aggregate(expect, survivors, strategy.aggregation_rule());

  scenario::Config cfg;
  cfg.name = "deadline_ref";
  cfg.deadline_seconds = deadline;
  const auto r =
      run_scenario(cfg, fl::AggregationMode::kBarrier, 1, fleet, /*rounds=*/1);
  ASSERT_EQ(r.rounds.size(), 1u);
  EXPECT_EQ(r.rounds[0].participants, 2u);
  EXPECT_EQ(r.rounds[0].abandoned, 1u);
  EXPECT_EQ(r.rounds[0].uplink_bytes_total, expect_uplink);
  EXPECT_EQ(r.rounds[0].wasted_uplink_bytes, expect_wasted);
  EXPECT_EQ(r.rounds[0].clock_seconds, deadline);  // the cutoff commits
  EXPECT_EQ(r.total_abandoned, 1u);
  expect_conserved(r);
  ASSERT_EQ(r.final_params.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(r.final_params[i], expect[i]) << "param " << i;
  }
}

// Barrier + churn: slot 1 of the wave dies before its upload starts; the
// engine must aggregate slots 0 and 2 exactly as a two-member wave.
TEST(EngineScenario, BarrierChurnMatchesHandComputedReference) {
  baselines::FedAvgStrategy strategy;
  const auto fleet = stressed_fleet();
  ReferenceRig rig = make_rig(1, fleet, strategy);
  const auto picks = rig.rng.sample_without_replacement(kClients, 3);

  std::vector<fl::ClientOutcome> survivors;
  for (std::size_t slot = 0; slot < picks.size(); ++slot) {
    fl::ClientOutcome out =
        reference_run_client(rig, strategy, picks[slot], /*stream=*/1, 0.0, 0.0);
    if (slot == 1) {
      // Dies at 10% of its timeline — before training completes, so no
      // bytes were pushed.
      const Timing t =
          reference_timing(rig, strategy, picks[slot], out.payload.size());
      ASSERT_LE(0.1 * t.total(), t.download + t.compute);
      continue;
    }
    fl::decode_outcome(strategy, rig.model->store(), out);
    survivors.push_back(std::move(out));
  }
  std::vector<float> expect = rig.global;
  fl::aggregate(expect, survivors, strategy.aggregation_rule());

  auto hooks = std::make_shared<TestHooks>();
  hooks->churn_fn = [](std::size_t, std::size_t seq) {
    return fl::ChurnDecision{.fails = seq == 1, .fraction = 0.1};
  };
  const auto r = run_hooked(hooks, "churn_ref", fl::AggregationMode::kBarrier,
                            1, fleet, /*rounds=*/1);
  ASSERT_EQ(r.rounds.size(), 1u);
  EXPECT_EQ(r.rounds[0].participants, 2u);
  EXPECT_EQ(r.rounds[0].abandoned, 1u);
  EXPECT_EQ(r.rounds[0].wasted_uplink_bytes, 0u);
  expect_conserved(r);
  ASSERT_EQ(r.final_params.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(r.final_params[i], expect[i]) << "param " << i;
  }
}

// Churn at 99.99% of the timeline dies mid-upload: the wasted-byte ledger
// must charge exactly the pushed fraction of the payload.
TEST(EngineScenario, ChurnMidUploadChargesWastedBytes) {
  baselines::FedAvgStrategy strategy;
  const auto fleet = stressed_fleet();
  ReferenceRig rig = make_rig(1, fleet, strategy);
  const auto picks = rig.rng.sample_without_replacement(kClients, 3);
  const double kFraction = 0.9999;

  const std::size_t victim = picks[0];
  fl::ClientOutcome out =
      reference_run_client(rig, strategy, victim, /*stream=*/1, 0.0, 0.0);
  const Timing t = reference_timing(rig, strategy, victim, out.payload.size());
  const double fail_t = kFraction * t.total();
  ASSERT_GT(fail_t, t.download + t.compute) << "victim must die mid-upload";
  const double frac = (fail_t - (t.download + t.compute)) / t.upload;
  const auto expect_wasted = static_cast<std::uint64_t>(
      static_cast<double>(out.payload.size()) * frac);
  ASSERT_GT(expect_wasted, 0u);

  auto hooks = std::make_shared<TestHooks>();
  hooks->churn_fn = [kFraction](std::size_t, std::size_t seq) {
    return fl::ChurnDecision{.fails = seq == 0, .fraction = kFraction};
  };
  const auto r = run_hooked(hooks, "churn_waste", fl::AggregationMode::kBarrier,
                            1, fleet, /*rounds=*/1);
  ASSERT_EQ(r.rounds.size(), 1u);
  EXPECT_EQ(r.rounds[0].participants, 2u);
  EXPECT_EQ(r.rounds[0].wasted_uplink_bytes, expect_wasted);
  EXPECT_EQ(r.total_wasted_uplink_bytes, expect_wasted);
  expect_conserved(r);
}

// FedAsync + churn over a homogeneous fleet: the first dispatch dies during
// compute, so the first *arrival* is the second dispatch, and the commit is
// a single staleness-weighted merge of exactly that update.
TEST(EngineScenario, FedAsyncChurnMatchesHandComputedReference) {
  baselines::FedAvgStrategy strategy;
  const netsim::HeterogeneityConfig homogeneous;
  ReferenceRig rig = make_rig(1, homogeneous, strategy);
  const auto drawn = replay_initial_topup(rig.rng);

  fl::ClientOutcome survivor = reference_run_client(
      rig, strategy, drawn[1], /*stream=*/0x10000 + 1, 0.0, 0.0);
  const Timing t =
      reference_timing(rig, strategy, drawn[0], survivor.payload.size());
  ASSERT_LE(0.1 * t.total(), t.download + t.compute)
      << "victim must die before its upload starts";
  fl::decode_outcome(strategy, rig.model->store(), survivor);
  const std::vector<float> expect =
      reference_async_merge(rig.global, {survivor});

  auto hooks = std::make_shared<TestHooks>();
  hooks->churn_fn = [](std::size_t, std::size_t seq) {
    return fl::ChurnDecision{.fails = seq == 0, .fraction = 0.1};
  };
  const auto r = run_hooked(hooks, "fedasync_churn",
                            fl::AggregationMode::kFedAsync, 1, homogeneous,
                            /*rounds=*/1);
  ASSERT_EQ(r.rounds.size(), 1u);
  EXPECT_EQ(r.rounds[0].participants, 1u);
  EXPECT_EQ(r.rounds[0].mean_staleness, 0.0);
  EXPECT_EQ(r.total_abandoned, 1u);
  // The immediate abandon triggered a replacement dispatch before the
  // commit: 3 initial + 1 replacement, two still in flight at exit.
  EXPECT_EQ(r.total_dispatched, 4u);
  EXPECT_EQ(r.final_in_flight, 2u);
  expect_conserved(r);
  ASSERT_EQ(r.final_params.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(r.final_params[i], expect[i]) << "param " << i;
  }
}

// --- Deadline emulation for the async modes -------------------------------

// Replays the deadline-only async timeline (no churn, no availability)
// independently of the engine: per-job arrival/deadline races, top-up
// replacement draws, and the first K-arrival commit. Used as the
// hand-computed reference for FedAsync (K=1) and buffered-K partial
// cohorts, where abandons trigger replacement dispatches that a closed-form
// reference cannot enumerate.
struct EmulationResult {
  std::vector<float> params;
  std::size_t dispatched = 0;
  std::size_t abandoned = 0;
  std::size_t in_flight = 0;
  std::size_t committed = 0;
  double commit_clock = 0.0;
};

EmulationResult emulate_async_deadline(ReferenceRig& rig,
                                       fl::Strategy& strategy,
                                       std::size_t k_commit, double deadline) {
  struct EmuJob {
    std::size_t seq = 0;
    std::size_t client = 0;
    double arrival_t = 0.0;
    double deadline_t = 0.0;
    fl::ClientOutcome out;
  };
  std::vector<EmuJob> active;
  std::vector<fl::ClientOutcome> buffer;
  std::size_t seq = 0;
  EmulationResult res;

  auto busy = [&](std::size_t c) {
    for (const auto& j : active) {
      if (j.client == c) return true;
    }
    return false;
  };
  auto top_up = [&](double now) {
    while (active.size() < 3) {
      std::vector<std::size_t> avail;
      for (std::size_t c = 0; c < kClients; ++c) {
        if (!busy(c)) avail.push_back(c);
      }
      const std::size_t client = avail[rig.rng.uniform_index(avail.size())];
      EmuJob job;
      job.seq = seq;
      job.client = client;
      job.out = reference_run_client(rig, strategy, client, 0x10000 + seq,
                                     now, deadline);
      const Timing t =
          reference_timing(rig, strategy, client, job.out.payload.size());
      job.arrival_t = (now + (t.download + t.compute)) + t.upload;
      job.deadline_t = now + deadline;
      ++seq;
      active.push_back(std::move(job));
    }
  };

  top_up(0.0);
  for (int guard = 0;; ++guard) {
    FEDBIAD_CHECK(guard < 2000, "deadline emulation failed to converge");
    // Each job resolves at its arrival if that is strictly before its
    // deadline (the engine schedules the deadline event first, so an exact
    // tie is a cutoff), else at its deadline.
    double best_t = std::numeric_limits<double>::infinity();
    for (const auto& j : active) {
      best_t = std::min(best_t,
                        j.arrival_t < j.deadline_t ? j.arrival_t : j.deadline_t);
    }
    // Same-instant resolutions: only equal *deadlines* are legitimate (two
    // replacements dispatched at the same abandon instant); the engine
    // orders their events by dispatch sequence.
    std::size_t pick = active.size();
    bool pick_arrives = false;
    std::size_t ties = 0;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const bool arrives = active[i].arrival_t < active[i].deadline_t;
      const double t = arrives ? active[i].arrival_t : active[i].deadline_t;
      if (t != best_t) continue;
      ++ties;
      if (pick == active.size() || active[i].seq < active[pick].seq) {
        pick = i;
        pick_arrives = arrives;
      }
      FEDBIAD_CHECK(!arrives || ties == 1,
                    "emulation fixture hit an arrival-time tie");
    }
    EmuJob job = std::move(active[pick]);
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
    if (pick_arrives) {
      fl::decode_outcome(strategy, rig.model->store(), job.out);
      buffer.push_back(std::move(job.out));
      if (buffer.size() == k_commit) {
        res.commit_clock = best_t;
        break;
      }
      top_up(best_t);
    } else {
      ++res.abandoned;
      top_up(best_t);
    }
  }
  res.params = reference_async_merge(rig.global, buffer);
  res.dispatched = seq;
  res.in_flight = active.size();
  res.committed = buffer.size();
  return res;
}

// Probe the wave the engine will dispatch first, so the test can position
// the deadline between two completion times. FedAvg uploads are dense, so
// every timeline is computable without running the client.
std::vector<double> probe_initial_totals(fl::Strategy& strategy,
                                         const netsim::HeterogeneityConfig& fleet) {
  ReferenceRig probe = make_rig(1, fleet, strategy);
  const auto drawn = replay_initial_topup(probe.rng);
  const std::uint64_t payload = wire::dense_f32_bytes(probe.global.size());
  std::vector<double> totals;
  for (const std::size_t c : drawn) {
    totals.push_back(reference_timing(probe, strategy, c, payload).total());
  }
  return totals;
}

// Buffered-K (K = 2) + deadline placed between the two fastest initial
// completions: the two slower initial members are cut off, replacements are
// drawn, and the commit is a partial cohort of the two earliest survivors.
TEST(EngineScenario, BufferedDeadlineMatchesEmulatedReference) {
  baselines::FedAvgStrategy strategy;
  const auto fleet = stressed_fleet();
  std::vector<double> totals = probe_initial_totals(strategy, fleet);
  std::sort(totals.begin(), totals.end());
  ASSERT_LT(totals[0], totals[1]);
  // Place the deadline just above the fastest initial member: close enough
  // that no replacement (dispatched at that first arrival) can complete
  // before the two slow initial members hit their cutoff. A plain midpoint
  // between totals[0] and totals[1] leaves room for a globally-fast
  // replacement to fill the buffer before anyone is cut.
  ReferenceRig min_probe = make_rig(1, fleet, strategy);
  const std::uint64_t dense = wire::dense_f32_bytes(min_probe.global.size());
  double min_total = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < kClients; ++c) {
    min_total = std::min(
        min_total, reference_timing(min_probe, strategy, c, dense).total());
  }
  const double deadline = totals[0] + 0.5 * min_total;
  ASSERT_LT(deadline, totals[1]) << "slow members must miss the deadline";

  ReferenceRig rig = make_rig(1, fleet, strategy);
  const EmulationResult emu =
      emulate_async_deadline(rig, strategy, /*k_commit=*/2, deadline);
  ASSERT_GE(emu.abandoned, 1u) << "fixture must actually cut someone off";

  scenario::Config cfg;
  cfg.name = "buffered_deadline";
  cfg.deadline_seconds = deadline;
  const auto r = run_scenario(cfg, fl::AggregationMode::kBufferedK, 1, fleet,
                              /*rounds=*/1, /*buffer_k=*/2);
  ASSERT_EQ(r.rounds.size(), 1u);
  EXPECT_EQ(r.rounds[0].participants, 2u);
  EXPECT_EQ(r.rounds[0].clock_seconds, emu.commit_clock);
  EXPECT_EQ(r.total_dispatched, emu.dispatched);
  EXPECT_EQ(r.total_abandoned, emu.abandoned);
  EXPECT_EQ(r.final_in_flight, emu.in_flight);
  EXPECT_EQ(r.final_buffered, 0u);
  expect_conserved(r);
  ASSERT_EQ(r.final_params.size(), emu.params.size());
  for (std::size_t i = 0; i < emu.params.size(); ++i) {
    ASSERT_EQ(r.final_params[i], emu.params[i]) << "param " << i;
  }
}

// FedAsync (K = 1) + a deadline only the globally fastest client can beat:
// the whole initial cohort may be cut off and replacements cycle until the
// fastest client gets drawn and survives.
TEST(EngineScenario, FedAsyncDeadlineMatchesEmulatedReference) {
  baselines::FedAvgStrategy strategy;
  const auto fleet = stressed_fleet();
  ReferenceRig probe = make_rig(1, fleet, strategy);
  const std::uint64_t payload = wire::dense_f32_bytes(probe.global.size());
  std::vector<double> totals;
  for (std::size_t c = 0; c < kClients; ++c) {
    totals.push_back(reference_timing(probe, strategy, c, payload).total());
  }
  std::sort(totals.begin(), totals.end());
  ASSERT_LT(totals[0], totals[1]);
  const double deadline = 0.5 * (totals[0] + totals[1]);

  ReferenceRig rig = make_rig(1, fleet, strategy);
  const EmulationResult emu =
      emulate_async_deadline(rig, strategy, /*k_commit=*/1, deadline);

  scenario::Config cfg;
  cfg.name = "fedasync_deadline";
  cfg.deadline_seconds = deadline;
  const auto r = run_scenario(cfg, fl::AggregationMode::kFedAsync, 1, fleet,
                              /*rounds=*/1);
  ASSERT_EQ(r.rounds.size(), 1u);
  EXPECT_EQ(r.rounds[0].participants, 1u);
  EXPECT_EQ(r.rounds[0].clock_seconds, emu.commit_clock);
  EXPECT_EQ(r.total_dispatched, emu.dispatched);
  EXPECT_EQ(r.total_abandoned, emu.abandoned);
  EXPECT_EQ(r.final_in_flight, emu.in_flight);
  expect_conserved(r);
  ASSERT_EQ(r.final_params.size(), emu.params.size());
  for (std::size_t i = 0; i < emu.params.size(); ++i) {
    ASSERT_EQ(r.final_params[i], emu.params[i]) << "param " << i;
  }
}

// --- Starvation, stress, and accounting -----------------------------------

// A deadline below every client's minimum timeline can never commit; the
// dispatch cap must turn that into a loud error instead of an endless loop.
TEST(EngineScenario, StarvedScenarioThrowsAtDispatchCap) {
  scenario::Config cfg;
  cfg.name = "starved";
  cfg.deadline_seconds = 1e-4;
  EXPECT_THROW(run_scenario(cfg, fl::AggregationMode::kBarrier, 1,
                            stressed_fleet(), /*rounds=*/1),
               CheckError);
}

// Backfill stress: K = 8 exceeds the 3 clients ever simultaneously in
// flight, so every commit needs arrivals from multiple dispatch
// generations.
TEST(EngineScenario, BufferedKExceedsInFlightCohort) {
  scenario::Config cfg;
  cfg.name = "backfill";
  cfg.seed = 21;
  cfg.churn = scenario::ChurnConfig{.failure_rate = 0.2};
  const auto t1 = run_scenario(cfg, fl::AggregationMode::kBufferedK, 1,
                               stressed_fleet(), /*rounds=*/2, /*buffer_k=*/8);
  const auto t2 = run_scenario(cfg, fl::AggregationMode::kBufferedK, 2,
                               stressed_fleet(), /*rounds=*/2, /*buffer_k=*/8);
  expect_identical(t1, t2);
  expect_conserved(t1);
  ASSERT_EQ(t1.rounds.size(), 2u);
  EXPECT_EQ(t1.rounds[0].participants, 8u);
  EXPECT_EQ(t1.rounds[1].participants, 8u);
  EXPECT_GE(t1.total_dispatched, 16u);
}

// Staleness stress: a 128× straggler multiplier makes some snapshots
// extremely old under FedAsync without breaking determinism or the ledger.
// Enough rounds that the fast clients cycle the clock past the stragglers'
// ~128×-long timelines, so their ancient updates actually arrive and
// commit; no churn, so nothing can abandon them first.
TEST(EngineScenario, FedAsyncSurvivesExtremeStragglers) {
  netsim::HeterogeneityConfig fleet = stressed_fleet();
  fleet.straggler_multiplier = 128.0;
  scenario::Config cfg;
  cfg.name = "staleness_stress";
  cfg.seed = 31;
  cfg.over_selection = 1.5;
  const auto t1 = run_scenario(cfg, fl::AggregationMode::kFedAsync, 1, fleet,
                               /*rounds=*/200);
  const auto t4 = run_scenario(cfg, fl::AggregationMode::kFedAsync, 4, fleet,
                               /*rounds=*/200);
  expect_identical(t1, t4);
  expect_conserved(t1);
  double max_staleness = 0.0;
  for (const auto& rec : t1.rounds) {
    max_staleness = std::max(max_staleness, rec.mean_staleness);
  }
  EXPECT_GT(max_staleness, 0.0) << "stragglers should produce stale commits";
}

// Satellite regression: abandoned uploads must never be double-counted into
// uplink traffic. Every round's uplink must be exactly participants ×
// dense-payload size (the wire::accounting oracle), no matter how many
// uploads the deadline cut off mid-flight.
TEST(EngineScenario, UplinkAccountingExcludesAbandonedUnderCutoff) {
  scenario::Config cfg;
  cfg.name = "cutoff_accounting";
  cfg.seed = 73;
  cfg.over_selection = 1.5;
  cfg.deadline_seconds = 0.12;
  const auto r = run_scenario(cfg, fl::AggregationMode::kBarrier, 2,
                              stressed_fleet(), /*rounds=*/4);
  const std::uint64_t dense =
      wire::dense_f32_bytes(r.final_params.size());
  for (const auto& rec : r.rounds) {
    EXPECT_EQ(rec.uplink_bytes_total, rec.participants * dense)
        << "round " << rec.round;
    EXPECT_EQ(rec.uplink_bytes_max, rec.participants > 0 ? dense : 0u);
    // Wasted bytes stay in their own ledger and are bounded by what the
    // abandoned uploads could possibly have pushed.
    EXPECT_LE(rec.wasted_uplink_bytes, rec.abandoned * dense);
  }
  EXPECT_GT(r.total_abandoned, 0u) << "fixture must exercise the cutoff";
  expect_conserved(r);
}

TEST(EngineScenario, UplinkAccountingExcludesChurnedUploads) {
  scenario::Config cfg;
  cfg.name = "churn_accounting";
  cfg.seed = 72;
  cfg.over_selection = 1.5;
  cfg.churn = scenario::ChurnConfig{.failure_rate = 0.4};
  const auto r = run_scenario(cfg, fl::AggregationMode::kBufferedK, 2,
                              stressed_fleet(), /*rounds=*/4, /*buffer_k=*/2);
  const std::uint64_t dense =
      wire::dense_f32_bytes(r.final_params.size());
  std::uint64_t uplink = 0;
  for (const auto& rec : r.rounds) uplink += rec.uplink_bytes_total;
  EXPECT_EQ(uplink, r.total_committed * dense);
  EXPECT_GT(r.total_abandoned, 0u) << "fixture must exercise churn";
  EXPECT_LE(r.total_wasted_uplink_bytes, r.total_abandoned * dense);
  expect_conserved(r);
}

// decode_outcome's double-decode guard — the invariant that makes
// "abandoned uploads are never decoded, so never counted" checkable.
TEST(EngineScenario, DecodeOutcomeRejectsDoubleDecode) {
  baselines::FedAvgStrategy strategy;
  ReferenceRig rig = make_rig(1, {}, strategy);
  fl::ClientOutcome out =
      reference_run_client(rig, strategy, 0, /*stream=*/1, 0.0, 0.0);
  fl::decode_outcome(strategy, rig.model->store(), out);
  EXPECT_EQ(out.uplink_bytes, wire::dense_f32_bytes(rig.global.size()));
  EXPECT_THROW(fl::decode_outcome(strategy, rig.model->store(), out),
               CheckError);
}

// The guard spans both views: an outcome the engines already decoded
// compactly must not be decoded again into the wide view — the two are
// mutually exclusive and the second decode would re-charge uplink bytes.
TEST(EngineScenario, DecodeOutcomeRejectsDenseAfterCompact) {
  baselines::FedAvgStrategy strategy;
  ReferenceRig rig = make_rig(1, {}, strategy);
  fl::ClientOutcome out =
      reference_run_client(rig, strategy, 0, /*stream=*/1, 0.0, 0.0);
  fl::decode_outcome_compact(strategy, rig.model->store(), out);
  EXPECT_THROW(fl::decode_outcome(strategy, rig.model->store(), out),
               CheckError);
  EXPECT_TRUE(out.values.empty());
  EXPECT_EQ(out.present.size(), 0U);
}

// --- Fuzzed scenario invariants -------------------------------------------

scenario::Config fuzz_config(tensor::Rng& rng) {
  scenario::Config cfg;
  cfg.name = "fuzz";
  cfg.seed = rng.next_u64() >> 1;
  cfg.over_selection = 1.0 + rng.uniform();
  if (rng.bernoulli(0.5)) {
    // Above the homogeneous-fleet minimum timeline (~0.03 s), so the
    // fastest clients always beat the cutoff and the scenario cannot
    // starve the engine.
    cfg.deadline_seconds = 0.04 + 0.46 * rng.uniform();
  }
  if (rng.bernoulli(0.6)) {
    cfg.availability = scenario::AvailabilityConfig{
        .period_seconds = 0.5 + 1.5 * rng.uniform(),
        .window_fraction = 0.4 + 0.6 * rng.uniform(),
        .on_probability = 0.5 + 0.5 * rng.uniform(),
        .correlation = 0.8 * rng.uniform(),
    };
  }
  if (rng.bernoulli(0.6)) {
    cfg.churn = scenario::ChurnConfig{.failure_rate = 0.5 * rng.uniform()};
  }
  cfg.validate();
  return cfg;
}

class ScenarioFuzz : public ::testing::TestWithParam<int> {};

// Thirty randomized (but seeded) scenarios across all modes: whatever the
// knobs, the conservation ledger holds, the virtual clock is monotone, and
// a scenario with nothing to abandon abandons nothing.
TEST_P(ScenarioFuzz, InvariantsHoldUnderRandomScenarios) {
  tensor::Rng rng(0xF022 + static_cast<std::uint64_t>(GetParam()));
  const scenario::Config cfg = fuzz_config(rng);
  const fl::AggregationMode mode =
      std::array{fl::AggregationMode::kBarrier, fl::AggregationMode::kFedAsync,
                 fl::AggregationMode::kBufferedK}[GetParam() % 3];
  netsim::HeterogeneityConfig fleet;
  fleet.compute_spread = 1.0 + rng.uniform();
  fleet.bandwidth_spread = 1.0 + rng.uniform();
  const auto r = run_scenario(cfg, mode, 1, fleet, /*rounds=*/2);
  expect_conserved(r);
  EXPECT_EQ(r.rounds.size(), 2u);
  EXPECT_EQ(r.scenario, "fuzz");
  if (!cfg.churn.has_value() && cfg.deadline_seconds == 0.0) {
    EXPECT_EQ(r.total_abandoned, 0u);
    EXPECT_EQ(r.total_wasted_uplink_bytes, 0u);
  }
  if (r.total_abandoned == 0) {
    EXPECT_EQ(r.total_wasted_uplink_bytes, 0u);
    EXPECT_EQ(r.dropped_upload_fraction(), 0.0);
  }
  // A third of the cases additionally pin thread-count invariance.
  if (GetParam() % 3 == 0) {
    const auto r2 = run_scenario(cfg, mode, 2, fleet, /*rounds=*/2);
    expect_identical(r, r2);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioFuzz, ::testing::Range(0, 30));

}  // namespace
}  // namespace fedbiad
