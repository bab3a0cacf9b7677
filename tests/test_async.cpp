// Tests for the event-driven engine: the virtual-clock scheduler, per-client
// heterogeneity profiles, determinism across seeds/thread counts/engines,
// barrier-mode trajectories independent of the fleet, and the
// staleness-aware aggregation modes.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baselines/afd.hpp"
#include "baselines/fedavg.hpp"
#include "common/check.hpp"
#include "core/fedbiad_strategy.hpp"
#include "data/image_synth.hpp"
#include "data/partition.hpp"
#include "fl/async_simulation.hpp"
#include "fl/scheduler.hpp"
#include "netsim/client_profile.hpp"
#include "nn/mlp_model.hpp"

namespace fedbiad::fl {
namespace {

// --- EventScheduler -------------------------------------------------------

TEST(EventScheduler, RunsInTimeOrder) {
  EventScheduler sched;
  std::vector<int> order;
  sched.schedule_at(3.0, [&] { order.push_back(3); });
  sched.schedule_at(1.0, [&] { order.push_back(1); });
  sched.schedule_at(2.0, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sched.now(), 3.0);
  EXPECT_TRUE(sched.empty());
}

TEST(EventScheduler, BreaksTimeTiesByInsertionOrder) {
  EventScheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    sched.schedule_at(1.0, [&, i] { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventScheduler, CallbacksMayScheduleFurtherEvents) {
  EventScheduler sched;
  std::vector<double> times;
  sched.schedule_after(1.0, [&] {
    times.push_back(sched.now());
    sched.schedule_after(0.5, [&] { times.push_back(sched.now()); });
  });
  sched.schedule_at(1.2, [&] { times.push_back(sched.now()); });
  sched.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 1.2);  // pre-scheduled event beats the nested 1.5
  EXPECT_DOUBLE_EQ(times[2], 1.5);
}

TEST(EventScheduler, RejectsSchedulingInThePast) {
  EventScheduler sched;
  sched.schedule_at(2.0, [] {});
  EXPECT_TRUE(sched.run_next());
  EXPECT_THROW(sched.schedule_at(1.0, [] {}), fedbiad::CheckError);
  EXPECT_THROW(sched.schedule_after(-0.1, [] {}), fedbiad::CheckError);
}

TEST(EventScheduler, RunNextReportsEmptiness) {
  EventScheduler sched;
  EXPECT_FALSE(sched.run_next());
  sched.schedule_after(0.0, [] {});
  EXPECT_EQ(sched.pending(), 1u);
  EXPECT_TRUE(sched.run_next());
  EXPECT_FALSE(sched.run_next());
}

// --- ClientProfile --------------------------------------------------------

TEST(ClientProfile, HomogeneousDefaultsMatchBaseLink) {
  const netsim::LinkModel base;
  const netsim::HeterogeneityConfig cfg;  // all spreads at 1
  EXPECT_TRUE(cfg.homogeneous());
  const auto profiles =
      netsim::make_profiles(5, cfg, base, tensor::Rng(123));
  for (const auto& p : profiles) {
    EXPECT_EQ(p.link.up_mbps, base.up_mbps);
    EXPECT_EQ(p.link.down_mbps, base.down_mbps);
    EXPECT_EQ(p.compute_multiplier, 1.0);
    // Timing formulas are then bit-identical to the shared LinkModel.
    EXPECT_EQ(p.upload_seconds(12345), base.upload_seconds(12345));
    EXPECT_EQ(p.download_seconds(999), base.download_seconds(999));
  }
}

TEST(ClientProfile, DeterministicForSameStream) {
  netsim::HeterogeneityConfig cfg;
  cfg.compute_spread = 8.0;
  cfg.bandwidth_spread = 4.0;
  cfg.straggler_fraction = 0.25;
  const netsim::LinkModel base;
  const auto a = netsim::make_profiles(40, cfg, base, tensor::Rng(7));
  const auto b = netsim::make_profiles(40, cfg, base, tensor::Rng(7));
  const auto c = netsim::make_profiles(40, cfg, base, tensor::Rng(8));
  ASSERT_EQ(a.size(), b.size());
  bool any_diff_to_c = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].compute_multiplier, b[i].compute_multiplier);
    EXPECT_EQ(a[i].link.up_mbps, b[i].link.up_mbps);
    any_diff_to_c |= a[i].compute_multiplier != c[i].compute_multiplier;
  }
  EXPECT_TRUE(any_diff_to_c) << "different seeds should differ";
}

TEST(ClientProfile, DrawsStayWithinConfiguredSpreads) {
  netsim::HeterogeneityConfig cfg;
  cfg.compute_spread = 8.0;
  cfg.bandwidth_spread = 4.0;
  cfg.straggler_fraction = 0.5;
  cfg.straggler_multiplier = 3.0;
  const netsim::LinkModel base;
  const auto profiles =
      netsim::make_profiles(200, cfg, base, tensor::Rng(11));
  bool saw_straggler = false;
  for (const auto& p : profiles) {
    EXPECT_GE(p.compute_multiplier, 1.0);
    EXPECT_LE(p.compute_multiplier,
              cfg.compute_spread * cfg.straggler_multiplier);
    saw_straggler |= p.compute_multiplier > cfg.compute_spread;
    EXPECT_LE(p.link.up_mbps, base.up_mbps);
    EXPECT_GE(p.link.up_mbps, base.up_mbps / cfg.bandwidth_spread - 1e-12);
    EXPECT_GT(p.compute_seconds(100.0), 0.0);
  }
  EXPECT_TRUE(saw_straggler);
}

TEST(ClientProfile, RejectsInvalidConfig) {
  netsim::HeterogeneityConfig cfg;
  cfg.compute_spread = 0.5;
  EXPECT_THROW(netsim::make_profiles(1, cfg, {}, tensor::Rng(1)),
               fedbiad::CheckError);
  cfg = {};
  cfg.straggler_fraction = 1.5;
  EXPECT_THROW(netsim::make_profiles(1, cfg, {}, tensor::Rng(1)),
               fedbiad::CheckError);
}

// --- Engine determinism ---------------------------------------------------

struct EngineScenario {
  SimulationConfig sim;
  data::DatasetPtr train;
  data::DatasetPtr test;
  data::Partition partition;
  nn::ModelFactory factory;
};

EngineScenario make_engine_scenario(std::size_t threads) {
  EngineScenario sc;
  sc.sim.rounds = 4;
  sc.sim.selection_fraction = 0.5;  // 3 of 6 clients in flight
  sc.sim.train.local_iterations = 3;
  sc.sim.train.batch_size = 8;
  sc.sim.train.sgd = {.lr = 0.1F, .weight_decay = 0.0F, .clip_norm = 0.0F};
  sc.sim.seed = 9;
  sc.sim.threads = threads;
  auto img_cfg = data::ImageSynthConfig::mnist_like(3);
  img_cfg.train_samples = 96;
  img_cfg.test_samples = 30;
  img_cfg.height = 10;
  img_cfg.width = 10;
  const auto datasets = data::make_image_datasets(img_cfg);
  sc.train = datasets.train;
  sc.test = datasets.test;
  tensor::Rng prng(5);
  sc.partition = data::partition_iid(datasets.train->size(), 6, prng);
  sc.factory = [] {
    return std::make_unique<nn::MlpModel>(
        nn::MlpConfig{.input = 100, .hidden = 8, .classes = 10});
  };
  return sc;
}

netsim::HeterogeneityConfig stressed_fleet() {
  netsim::HeterogeneityConfig h;
  h.compute_spread = 6.0;
  h.bandwidth_spread = 3.0;
  h.straggler_fraction = 0.3;
  h.straggler_multiplier = 4.0;
  return h;
}

SimulationResult run_async(AggregationMode mode, std::size_t threads,
                           const netsim::HeterogeneityConfig& fleet,
                           bool fedbiad = false) {
  EngineScenario sc = make_engine_scenario(threads);
  AsyncSimulationConfig cfg;
  cfg.base = sc.sim;
  cfg.mode = mode;
  cfg.buffer_size = 2;
  cfg.heterogeneity = fleet;
  StrategyPtr strategy;
  if (fedbiad) {
    strategy = std::make_shared<core::FedBiadStrategy>(
        core::FedBiadConfig{.dropout_rate = 0.5, .tau = 2,
                            .stage_boundary = 3});
  } else {
    strategy = std::make_shared<baselines::FedAvgStrategy>();
  }
  AsyncSimulation sim(cfg, sc.factory, sc.train, sc.test, sc.partition,
                      strategy);
  return sim.run();
}

void expect_identical_trajectories(const SimulationResult& a,
                                   const SimulationResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].participants, b.rounds[i].participants);
    EXPECT_EQ(a.rounds[i].uplink_bytes_total, b.rounds[i].uplink_bytes_total);
    EXPECT_EQ(a.rounds[i].uplink_bytes_max, b.rounds[i].uplink_bytes_max);
    EXPECT_EQ(a.rounds[i].downlink_bytes, b.rounds[i].downlink_bytes);
    EXPECT_EQ(a.rounds[i].train_loss, b.rounds[i].train_loss) << "round " << i;
    EXPECT_EQ(a.rounds[i].test_loss, b.rounds[i].test_loss) << "round " << i;
    EXPECT_EQ(a.rounds[i].top1, b.rounds[i].top1) << "round " << i;
    EXPECT_EQ(a.rounds[i].topk, b.rounds[i].topk) << "round " << i;
    EXPECT_EQ(a.rounds[i].clock_seconds, b.rounds[i].clock_seconds);
    EXPECT_EQ(a.rounds[i].mean_staleness, b.rounds[i].mean_staleness);
    EXPECT_EQ(a.rounds[i].upload_seconds, b.rounds[i].upload_seconds);
    EXPECT_EQ(a.rounds[i].download_seconds, b.rounds[i].download_seconds);
  }
  ASSERT_EQ(a.final_params.size(), b.final_params.size());
  for (std::size_t i = 0; i < a.final_params.size(); ++i) {
    ASSERT_EQ(a.final_params[i], b.final_params[i]) << "param " << i;
  }
}

class EngineDeterminism
    : public ::testing::TestWithParam<AggregationMode> {};

// Two runs with the same seed are identical — at 1 worker thread and at 4.
TEST_P(EngineDeterminism, RepeatedRunsIdentical) {
  for (const std::size_t threads : {1u, 4u}) {
    const auto a = run_async(GetParam(), threads, stressed_fleet());
    const auto b = run_async(GetParam(), threads, stressed_fleet());
    expect_identical_trajectories(a, b);
  }
}

// The worker-thread count never leaks into the trajectory: all server-side
// decisions happen in virtual-time event order on the engine thread.
TEST_P(EngineDeterminism, ThreadCountInvariant) {
  const auto t1 = run_async(GetParam(), 1, stressed_fleet());
  const auto t4 = run_async(GetParam(), 4, stressed_fleet());
  expect_identical_trajectories(t1, t4);
}

TEST_P(EngineDeterminism, ThreadCountInvariantForFedBiad) {
  const auto t1 = run_async(GetParam(), 1, stressed_fleet(), true);
  const auto t4 = run_async(GetParam(), 4, stressed_fleet(), true);
  expect_identical_trajectories(t1, t4);
}

INSTANTIATE_TEST_SUITE_P(AllModes, EngineDeterminism,
                         ::testing::Values(AggregationMode::kBarrier,
                                           AggregationMode::kFedAsync,
                                           AggregationMode::kBufferedK),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// Heterogeneity only bends the virtual timeline, never the learning
// trajectory, under barrier aggregation: the same clients train the same
// data in the same order, they just finish later.
TEST(EngineEquivalence, BarrierTrajectoryUnaffectedByHeterogeneity) {
  const auto homo = run_async(AggregationMode::kBarrier, 2, {});
  const auto hetero =
      run_async(AggregationMode::kBarrier, 2, stressed_fleet());
  EXPECT_EQ(homo.engine, "barrier");
  ASSERT_EQ(homo.rounds.size(), hetero.rounds.size());
  for (std::size_t i = 0; i < homo.rounds.size(); ++i) {
    EXPECT_EQ(homo.rounds[i].train_loss, hetero.rounds[i].train_loss);
    EXPECT_EQ(homo.rounds[i].top1, hetero.rounds[i].top1);
    EXPECT_EQ(homo.rounds[i].uplink_bytes_total,
              hetero.rounds[i].uplink_bytes_total);
    // Stragglers and slower links stretch the clock.
    EXPECT_GT(hetero.rounds[i].clock_seconds, homo.rounds[i].clock_seconds);
  }
  for (std::size_t i = 0; i < homo.final_params.size(); ++i) {
    ASSERT_EQ(homo.final_params[i], hetero.final_params[i]);
  }
}

// --- Async semantics ------------------------------------------------------

TEST(FedAsyncMode, CommitsPerArrivalWithStaleness) {
  const auto r = run_async(AggregationMode::kFedAsync, 2, stressed_fleet());
  ASSERT_EQ(r.rounds.size(), 4u);
  EXPECT_EQ(r.engine, "fedasync");
  double total_staleness = 0.0;
  double prev_clock = 0.0;
  for (const auto& rec : r.rounds) {
    EXPECT_EQ(rec.participants, 1u);  // one arrival per commit
    EXPECT_GE(rec.mean_staleness, 0.0);
    EXPECT_GE(rec.clock_seconds, prev_clock);
    prev_clock = rec.clock_seconds;
    total_staleness += rec.mean_staleness;
  }
  // With 3 clients in flight and per-arrival commits, later arrivals must
  // have seen older versions at least once.
  EXPECT_GT(total_staleness, 0.0);
}

TEST(BufferedMode, CommitsEveryKArrivals) {
  const auto r = run_async(AggregationMode::kBufferedK, 2, stressed_fleet());
  ASSERT_EQ(r.rounds.size(), 4u);
  EXPECT_EQ(r.engine, "buffered");
  for (const auto& rec : r.rounds) {
    EXPECT_EQ(rec.participants, 2u);  // buffer_size = 2 in run_async
  }
}

// Async modes still learn: accuracy after a few commits beats the 10-class
// random baseline. (Weak on purpose — convergence quality is the golden
// tests' and benches' job; this just guards "the model actually moves".)
TEST(AsyncModes, AsyncAggregationStillLearns) {
  for (const auto mode :
       {AggregationMode::kFedAsync, AggregationMode::kBufferedK}) {
    const auto r = run_async(mode, 2, stressed_fleet());
    EXPECT_GT(r.best_accuracy(false), 0.05) << to_string(mode);
    EXPECT_LT(r.rounds.back().train_loss, 3.0) << to_string(mode);
  }
}

// AFD keeps server-side state (score map written in end_round, pattern
// broadcast in begin_round) that run_client reads from worker threads. The
// engine quiesces in-flight training before the hooks, so even per-arrival
// commits stay race-free and deterministic.
TEST(AsyncModes, ServerStatefulStrategyIsDeterministic) {
  auto run_afd = [](std::size_t threads) {
    EngineScenario sc = make_engine_scenario(threads);
    AsyncSimulationConfig cfg;
    cfg.base = sc.sim;
    cfg.mode = AggregationMode::kFedAsync;
    cfg.heterogeneity = stressed_fleet();
    AsyncSimulation sim(cfg, sc.factory, sc.train, sc.test, sc.partition,
                        std::make_shared<baselines::AfdStrategy>(0.5));
    return sim.run();
  };
  const auto a = run_afd(4);
  const auto b = run_afd(4);
  expect_identical_trajectories(a, b);
  const auto c = run_afd(1);
  expect_identical_trajectories(a, c);
}

TEST(AsyncConfig, RejectsInvalidStalenessAndBuffer) {
  EngineScenario sc = make_engine_scenario(1);
  AsyncSimulationConfig cfg;
  cfg.base = sc.sim;
  cfg.staleness.mixing_rate = 0.0;
  EXPECT_THROW(AsyncSimulation(cfg, sc.factory, sc.train, sc.test,
                               sc.partition,
                               std::make_shared<baselines::FedAvgStrategy>()),
               fedbiad::CheckError);
  cfg.staleness.mixing_rate = 0.6;
  cfg.buffer_size = 0;
  EXPECT_THROW(AsyncSimulation(cfg, sc.factory, sc.train, sc.test,
                               sc.partition,
                               std::make_shared<baselines::FedAvgStrategy>()),
               fedbiad::CheckError);
}

TEST(AsyncConfig, SimTimeToAccuracyUsesVirtualClock) {
  const auto r = run_async(AggregationMode::kBarrier, 2, stressed_fleet());
  const auto tta = r.sim_time_to_accuracy(0.0, false);
  ASSERT_TRUE(tta.has_value());
  EXPECT_EQ(*tta, r.rounds.front().clock_seconds);
}

}  // namespace
}  // namespace fedbiad::fl
