// Tests for the crash-safe checkpoint subsystem: snapshot file round-trip,
// torn/corrupt-file detection with fallback to the last good snapshot,
// retention pruning, rng state restoration, and the engine resume contract —
// a run resumed from any mid-run snapshot is bit-identical to the
// uninterrupted run, for every aggregation mode, with the stateful FedBIAD
// strategy, under fault injection, and across thread counts.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "baselines/fedavg.hpp"
#include "checkpoint/checkpoint.hpp"
#include "common/check.hpp"
#include "core/fedbiad_strategy.hpp"
#include "data/image_synth.hpp"
#include "data/partition.hpp"
#include "fl/async_simulation.hpp"
#include "fl/strategy.hpp"
#include "netsim/client_profile.hpp"
#include "nn/mlp_model.hpp"
#include "scenario/config.hpp"
#include "scenario/model.hpp"
#include "tensor/rng.hpp"
#include "wire/reader.hpp"
#include "wire/update_codec.hpp"

namespace fedbiad {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& tag) {
  static int counter = 0;
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("fedbiad_ckpt_" + tag + "_" +
                        std::to_string(counter++));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// --- Snapshot file round-trip ---------------------------------------------

checkpoint::EngineSnapshot sample_snapshot() {
  checkpoint::EngineSnapshot snap;
  snap.engine = "barrier";
  snap.seed = 42;
  snap.rounds_target = 8;
  snap.param_count = 5;
  snap.clock = 12.75;
  snap.version = 3;
  snap.dispatched = 11;
  tensor::Rng rng(42);
  for (int i = 0; i < 7; ++i) rng.uniform();
  (void)rng.normal();  // leaves a cached Box–Muller deviate in the state
  snap.rng = rng.state();
  snap.committed = 9;
  snap.abandoned = 1;
  snap.rejected = 1;
  snap.rejected_deliveries = 4;
  snap.wasted_uplink_bytes = 123;
  snap.rejected_bytes = 456;
  snap.global = {1.0F, -2.5F, 0.0F, 3.25F, -0.125F};
  fl::RoundRecord rec;
  rec.round = 3;
  rec.train_loss = 0.5;
  rec.test_loss = 0.25;
  rec.top1 = 0.75;
  rec.topk = 0.875;
  rec.participants = 3;
  rec.uplink_bytes_total = 999;
  rec.uplink_bytes_max = 333;
  rec.downlink_bytes = 444;
  rec.lttr_seconds = 0.01;
  rec.upload_seconds = 1.5;
  rec.download_seconds = 0.5;
  rec.aggregate_seconds = 0.002;
  rec.clock_seconds = 12.75;
  rec.mean_staleness = 0.5;
  rec.abandoned = 1;
  rec.wasted_uplink_bytes = 123;
  rec.rejected = 1;
  rec.rejected_bytes = 456;
  snap.rounds = {rec};
  snap.strategy_state = {1, 2, 3, 250};
  checkpoint::JobSnapshot job;
  job.client = 2;
  job.slot = 1;
  job.version = 3;
  job.dispatch_index = 10;
  job.attempt = 2;
  job.dispatch_clock = 12.0;
  job.download_seconds = 0.25;
  job.compute_seconds = 0.5;
  job.upload_start = 12.75;
  job.churn_fails = false;
  job.churn_fraction = 0.0;
  job.has_pending = true;
  job.samples = 8;
  job.is_update = true;
  job.payload.bytes = std::vector<std::uint8_t>{9, 8, 7, 6, 5};
  job.train_seconds = 0.03;
  job.mean_loss = 1.5;
  job.last_loss = 1.25;
  snap.jobs.push_back(job);
  checkpoint::JobSnapshot training;
  training.client = 4;
  training.dispatch_index = 9;
  training.dispatch_clock = 11.5;
  training.has_pending = false;
  training.samples = 8;
  snap.jobs.push_back(training);
  snap.events = {
      {checkpoint::EventKind::kDeadline, 0, 14.0, 0},
      {checkpoint::EventKind::kTraining, 1, 13.0, 0},
      {checkpoint::EventKind::kDelivery, 0, 13.5, 0},
      {checkpoint::EventKind::kDuplicate, checkpoint::kNoJob, 13.25, 777},
  };
  return snap;
}

void expect_snapshot_equal(const checkpoint::EngineSnapshot& a,
                           const checkpoint::EngineSnapshot& b) {
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.rounds_target, b.rounds_target);
  EXPECT_EQ(a.param_count, b.param_count);
  EXPECT_EQ(a.clock, b.clock);
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.dispatched, b.dispatched);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.rng.s[i], b.rng.s[i]);
  EXPECT_EQ(a.rng.cached_normal, b.rng.cached_normal);
  EXPECT_EQ(a.rng.has_cached_normal, b.rng.has_cached_normal);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.abandoned, b.abandoned);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.rejected_deliveries, b.rejected_deliveries);
  EXPECT_EQ(a.wasted_uplink_bytes, b.wasted_uplink_bytes);
  EXPECT_EQ(a.rejected_bytes, b.rejected_bytes);
  ASSERT_EQ(a.global.size(), b.global.size());
  for (std::size_t i = 0; i < a.global.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(a.global[i]),
              std::bit_cast<std::uint32_t>(b.global[i]))
        << "global " << i;
  }
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].round, b.rounds[i].round);
    EXPECT_EQ(a.rounds[i].train_loss, b.rounds[i].train_loss);
    EXPECT_EQ(a.rounds[i].test_loss, b.rounds[i].test_loss);
    EXPECT_EQ(a.rounds[i].top1, b.rounds[i].top1);
    EXPECT_EQ(a.rounds[i].topk, b.rounds[i].topk);
    EXPECT_EQ(a.rounds[i].participants, b.rounds[i].participants);
    EXPECT_EQ(a.rounds[i].uplink_bytes_total, b.rounds[i].uplink_bytes_total);
    EXPECT_EQ(a.rounds[i].uplink_bytes_max, b.rounds[i].uplink_bytes_max);
    EXPECT_EQ(a.rounds[i].downlink_bytes, b.rounds[i].downlink_bytes);
    EXPECT_EQ(a.rounds[i].lttr_seconds, b.rounds[i].lttr_seconds);
    EXPECT_EQ(a.rounds[i].upload_seconds, b.rounds[i].upload_seconds);
    EXPECT_EQ(a.rounds[i].download_seconds, b.rounds[i].download_seconds);
    EXPECT_EQ(a.rounds[i].aggregate_seconds, b.rounds[i].aggregate_seconds);
    EXPECT_EQ(a.rounds[i].clock_seconds, b.rounds[i].clock_seconds);
    EXPECT_EQ(a.rounds[i].mean_staleness, b.rounds[i].mean_staleness);
    EXPECT_EQ(a.rounds[i].abandoned, b.rounds[i].abandoned);
    EXPECT_EQ(a.rounds[i].wasted_uplink_bytes, b.rounds[i].wasted_uplink_bytes);
    EXPECT_EQ(a.rounds[i].rejected, b.rounds[i].rejected);
    EXPECT_EQ(a.rounds[i].rejected_bytes, b.rounds[i].rejected_bytes);
  }
  EXPECT_EQ(a.strategy_state, b.strategy_state);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].client, b.jobs[i].client);
    EXPECT_EQ(a.jobs[i].slot, b.jobs[i].slot);
    EXPECT_EQ(a.jobs[i].version, b.jobs[i].version);
    EXPECT_EQ(a.jobs[i].dispatch_index, b.jobs[i].dispatch_index);
    EXPECT_EQ(a.jobs[i].attempt, b.jobs[i].attempt);
    EXPECT_EQ(a.jobs[i].dispatch_clock, b.jobs[i].dispatch_clock);
    EXPECT_EQ(a.jobs[i].download_seconds, b.jobs[i].download_seconds);
    EXPECT_EQ(a.jobs[i].compute_seconds, b.jobs[i].compute_seconds);
    EXPECT_EQ(a.jobs[i].upload_start, b.jobs[i].upload_start);
    EXPECT_EQ(a.jobs[i].churn_fails, b.jobs[i].churn_fails);
    EXPECT_EQ(a.jobs[i].churn_fraction, b.jobs[i].churn_fraction);
    EXPECT_EQ(a.jobs[i].has_pending, b.jobs[i].has_pending);
    EXPECT_EQ(a.jobs[i].samples, b.jobs[i].samples);
    EXPECT_EQ(a.jobs[i].is_update, b.jobs[i].is_update);
    EXPECT_EQ(a.jobs[i].payload.kind, b.jobs[i].payload.kind);
    EXPECT_EQ(a.jobs[i].payload.aux, b.jobs[i].payload.aux);
    EXPECT_EQ(a.jobs[i].payload.bytes, b.jobs[i].payload.bytes);
    EXPECT_EQ(a.jobs[i].train_seconds, b.jobs[i].train_seconds);
    EXPECT_EQ(a.jobs[i].mean_loss, b.jobs[i].mean_loss);
    EXPECT_EQ(a.jobs[i].last_loss, b.jobs[i].last_loss);
  }
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].job_index, b.events[i].job_index);
    EXPECT_EQ(a.events[i].time, b.events[i].time);
    EXPECT_EQ(a.events[i].aux, b.events[i].aux);
  }
}

TEST(CheckpointFile, WriteReadRoundTrip) {
  const std::string dir = fresh_dir("roundtrip");
  const checkpoint::EngineSnapshot snap = sample_snapshot();
  checkpoint::write_snapshot(dir, snap);
  const auto paths = checkpoint::list_snapshots(dir);
  ASSERT_EQ(paths.size(), 1u);
  expect_snapshot_equal(checkpoint::read_snapshot(paths[0]), snap);
  // No torn tmp file left behind by the atomic write.
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string().rfind(".tmp-", 0),
              std::string::npos);
  }
}

// --- Golden checkpoint file -------------------------------------------------

/// A snapshot with every field set to a value no default shares, built by
/// hand rather than by training, so no build's arithmetic can move it: jobs
/// with and without a pending upload, every event kind plus a job-less
/// event, two round records, a strategy blob, and a global holding NaN, -0
/// and a denormal.
checkpoint::EngineSnapshot golden_snapshot() {
  checkpoint::EngineSnapshot snap;
  snap.engine = "buffered";
  snap.seed = 20230714;
  snap.rounds_target = 40;
  snap.clock = 37.625;
  snap.version = 2;
  snap.dispatched = 300;  // a two-byte varint
  // An rng state mid-sequence with half a Box–Muller pair cached, set by
  // hand so no libm can move the cached deviate.
  snap.rng.s[0] = 0x9E3779B97F4A7C15;
  snap.rng.s[1] = 0xBF58476D1CE4E5B9;
  snap.rng.s[2] = 0x94D049BB133111EB;
  snap.rng.s[3] = 0x2545F4914F6CDD1D;
  snap.rng.cached_normal = -0.8125;
  snap.rng.has_cached_normal = true;
  snap.committed = 17;
  snap.abandoned = 3;
  snap.rejected = 2;
  snap.rejected_deliveries = 5;
  snap.wasted_uplink_bytes = 70000;
  snap.rejected_bytes = 1234567;
  snap.global = {std::numeric_limits<float>::quiet_NaN(),
                 -0.0F,
                 std::numeric_limits<float>::denorm_min(),
                 1.5F,
                 -std::numeric_limits<float>::infinity(),
                 std::bit_cast<float>(std::uint32_t{0x7FC01234}),  // NaN payload
                 -3.0e-39F};
  snap.param_count = snap.global.size();
  for (std::size_t r = 1; r <= 2; ++r) {
    const double k = static_cast<double>(r);
    fl::RoundRecord rec;
    rec.round = r;
    rec.train_loss = 2.25 / k;
    rec.test_loss = 2.5 / k;
    rec.top1 = 0.125 * k;
    rec.topk = 0.375 * k;
    rec.participants = 4 + r;
    rec.uplink_bytes_total = 200000 * r;
    rec.uplink_bytes_max = 60000 + r;
    rec.downlink_bytes = 407084;
    rec.lttr_seconds = 0.75 * k;
    rec.upload_seconds = 1.0 / 3.0 * k;
    rec.download_seconds = 0.0625 * k;
    rec.aggregate_seconds = 1e-4 * k;
    rec.clock_seconds = 18.5 * k;
    rec.mean_staleness = 0.5 * k;
    rec.abandoned = r;
    rec.wasted_uplink_bytes = 35000 * r;
    rec.rejected = r;
    rec.rejected_bytes = 600000 * r;
    snap.rounds.push_back(rec);
  }
  snap.strategy_state = {0, 1, 127, 128, 255};
  checkpoint::JobSnapshot pending;
  pending.client = 9;
  pending.slot = 3;
  pending.version = 1;
  pending.dispatch_index = 290;
  pending.attempt = 2;
  pending.dispatch_clock = 30.5;
  pending.download_seconds = 0.25;
  pending.compute_seconds = 4.75;
  pending.upload_start = 35.5;
  pending.churn_fails = true;
  pending.churn_fraction = 0.625;
  pending.has_pending = true;
  pending.samples = 600;
  pending.is_update = true;
  pending.payload.kind = wire::PayloadKind::kSparseFixed;
  pending.payload.aux = 17;
  pending.payload.bytes =
      std::vector<std::uint8_t>{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x80};
  pending.train_seconds = 0.0375;
  pending.mean_loss = 1.75;
  pending.last_loss = 1.5;
  snap.jobs.push_back(pending);
  checkpoint::JobSnapshot training;
  training.client = 12;
  training.slot = 4;
  training.version = 2;
  training.dispatch_index = 299;
  training.attempt = 1;
  training.dispatch_clock = 37.625;
  training.download_seconds = 0.125;
  training.compute_seconds = 5.5;
  training.upload_start = 43.25;
  training.churn_fails = false;
  training.churn_fraction = 0.875;
  training.has_pending = false;
  training.samples = 550;
  training.is_update = false;
  training.payload.kind = wire::PayloadKind::kRowMasked;
  training.payload.bytes = std::vector<std::uint8_t>{1, 2, 3};
  training.train_seconds = 0.0625;
  training.mean_loss = 2.125;
  training.last_loss = 2.0;
  snap.jobs.push_back(training);
  snap.events = {
      {checkpoint::EventKind::kTraining, 1, 43.125, 0},
      {checkpoint::EventKind::kDelivery, 0, 38.0, 1},
      {checkpoint::EventKind::kChurnAbandon, 0, 37.75, 4096},
      {checkpoint::EventKind::kDeadline, 1, 45.0, 2},
      {checkpoint::EventKind::kDuplicate, 0, 38.5, 65},
      {checkpoint::EventKind::kDuplicate, checkpoint::kNoJob, 39.0, 407093},
  };
  return snap;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// tests/golden/checkpoint_v<format>.fbck pins the .fbck format:
// write_snapshot must reproduce its bytes, and read_snapshot of it must
// give back the struct field by field. A format change without a version
// bump fails here; after a bump the test looks for the new version's file,
// which FEDBIAD_UPDATE_GOLDEN=1 writes (the old file can then go).
TEST(CheckpointFile, GoldenFileMatchesWriterAndReader) {
  const checkpoint::EngineSnapshot snap = golden_snapshot();
  const std::string dir = fresh_dir("golden");
  checkpoint::write_snapshot(dir, snap);
  const std::vector<std::uint8_t> written =
      read_file(checkpoint::list_snapshots(dir).at(0));
  wire::Reader header(written);
  (void)header.bytes(4);  // magic
  const std::string golden = std::string(FEDBIAD_GOLDEN_DIR) +
                             "/checkpoint_v" +
                             std::to_string(header.u32()) + ".fbck";
  const char* update = std::getenv("FEDBIAD_UPDATE_GOLDEN");
  if (update != nullptr && update[0] != '\0' && update[0] != '0') {
    std::ofstream(golden, std::ios::binary)
        .write(reinterpret_cast<const char*>(written.data()),
               static_cast<std::streamsize>(written.size()));
    GTEST_SKIP() << "rewrote " << golden;
  }
  ASSERT_TRUE(fs::exists(golden))
      << golden << " is missing; write it with FEDBIAD_UPDATE_GOLDEN=1";
  const std::vector<std::uint8_t> checked_in = read_file(golden);
  EXPECT_TRUE(written == checked_in)
      << "write_snapshot's bytes differ from " << golden << " ("
      << written.size() << " vs " << checked_in.size()
      << " bytes): a format change needs a kFormatVersion bump";
  expect_snapshot_equal(checkpoint::read_snapshot(golden), snap);
}

TEST(CheckpointFile, RestoredRngContinuesTheSequence) {
  const std::string dir = fresh_dir("rng");
  tensor::Rng original(7);
  for (int i = 0; i < 5; ++i) original.uniform();
  (void)original.normal();  // half of a Box–Muller pair stays cached
  checkpoint::EngineSnapshot snap = sample_snapshot();
  snap.rng = original.state();
  checkpoint::write_snapshot(dir, snap);
  const auto back = checkpoint::read_snapshot(
      checkpoint::list_snapshots(dir)[0]);
  tensor::Rng restored(999);
  restored.set_state(back.rng);
  // The cached deviate is part of the state: normal() must agree too.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(restored.normal(), original.normal());
    EXPECT_EQ(restored.uniform(), original.uniform());
    EXPECT_EQ(restored.uniform_index(1000), original.uniform_index(1000));
  }
}

TEST(CheckpointFile, ListSnapshotsSortsByVersionAndHandlesMissingDir) {
  const std::string dir = fresh_dir("list");
  checkpoint::EngineSnapshot snap = sample_snapshot();
  for (const std::uint64_t v : {12u, 3u, 101u}) {
    snap.version = v;
    checkpoint::write_snapshot(dir, snap);
  }
  const auto paths = checkpoint::list_snapshots(dir);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_NE(paths[0].find("00000003"), std::string::npos);
  EXPECT_NE(paths[1].find("00000012"), std::string::npos);
  EXPECT_NE(paths[2].find("00000101"), std::string::npos);
  EXPECT_TRUE(checkpoint::list_snapshots(dir + "/nonexistent").empty());
  EXPECT_FALSE(checkpoint::find_latest_valid(dir + "/nonexistent").has_value());
}

TEST(CheckpointFile, TornAndCorruptSnapshotsAreSkipped) {
  const std::string dir = fresh_dir("torn");
  checkpoint::EngineSnapshot snap = sample_snapshot();
  snap.version = 1;
  checkpoint::write_snapshot(dir, snap);
  snap.version = 2;
  checkpoint::write_snapshot(dir, snap);
  auto paths = checkpoint::list_snapshots(dir);
  ASSERT_EQ(paths.size(), 2u);
  // Tear the newest snapshot as a crash mid-write would.
  {
    std::ifstream in(paths[1], std::ios::binary);
    std::vector<char> all((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    all.resize(all.size() / 2);
    std::ofstream out(paths[1], std::ios::binary | std::ios::trunc);
    out.write(all.data(), static_cast<std::streamsize>(all.size()));
  }
  EXPECT_THROW(checkpoint::read_snapshot(paths[1]), wire::DecodeError);
  const auto latest = checkpoint::find_latest_valid(dir);
  ASSERT_TRUE(latest.has_value());
  EXPECT_NE(latest->find("00000001"), std::string::npos)
      << "must fall back to the last good snapshot";
  // Bit-rot the survivor too: now nothing verifies.
  {
    std::fstream f(paths[0],
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(40);
    char b = 0;
    f.seekg(40);
    f.get(b);
    b = static_cast<char>(b ^ 0x04);
    f.seekp(40);
    f.put(b);
  }
  EXPECT_FALSE(checkpoint::find_latest_valid(dir).has_value());
}

TEST(CheckpointFile, PruneKeepsNewest) {
  const std::string dir = fresh_dir("prune");
  checkpoint::EngineSnapshot snap = sample_snapshot();
  for (std::uint64_t v = 1; v <= 5; ++v) {
    snap.version = v;
    checkpoint::write_snapshot(dir, snap);
  }
  checkpoint::prune(dir, 2);
  const auto paths = checkpoint::list_snapshots(dir);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_NE(paths[0].find("00000004"), std::string::npos);
  EXPECT_NE(paths[1].find("00000005"), std::string::npos);
  checkpoint::prune(dir, 10);  // keep more than exist: no-op
  EXPECT_EQ(checkpoint::list_snapshots(dir).size(), 2u);
}

// --- Engine resume: bit-identity ------------------------------------------

constexpr std::size_t kClients = 6;

struct Fixture {
  fl::SimulationConfig sim;
  data::DatasetPtr train;
  data::DatasetPtr test;
  data::Partition partition;
  nn::ModelFactory factory;
};

Fixture make_fixture(std::size_t threads, std::size_t rounds) {
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

fl::StrategyPtr make_strategy(bool fedbiad) {
  if (fedbiad) {
    return std::make_shared<core::FedBiadStrategy>(
        core::FedBiadConfig{.dropout_rate = 0.5, .tau = 2});
  }
  return std::make_shared<baselines::FedAvgStrategy>();
}

struct RunSpec {
  fl::AggregationMode mode = fl::AggregationMode::kBarrier;
  std::size_t threads = 1;
  std::size_t rounds = 4;
  bool fedbiad = false;
  bool faults = false;
};

fl::SimulationResult run_with_checkpoints(const RunSpec& spec,
                                          const std::string& dir,
                                          bool resume) {
  Fixture fx = make_fixture(spec.threads, spec.rounds);
  fl::AsyncSimulationConfig cfg;
  cfg.base = fx.sim;
  cfg.mode = spec.mode;
  cfg.buffer_size = 2;
  netsim::HeterogeneityConfig fleet;
  fleet.compute_spread = 6.0;
  fleet.bandwidth_spread = 3.0;
  fleet.straggler_fraction = 0.3;
  fleet.straggler_multiplier = 4.0;
  cfg.heterogeneity = fleet;
  if (spec.faults) {
    scenario::Config sc;
    sc.name = "ckpt_faults";
    sc.seed = 55;
    sc.deadline_seconds = 2.5;
    sc.churn = scenario::ChurnConfig{.failure_rate = 0.1};
    sc.faults = scenario::FaultsConfig{
        .corruption_probability = 0.2,
        .corruption_mode = scenario::CorruptionMode::kBitFlip,
        .duplicate_probability = 0.1,
        .retry = {.max_attempts = 2,
                  .backoff_seconds = 0.125,
                  .backoff_multiplier = 2.0,
                  .jitter_fraction = 0.5},
    };
    cfg.hooks = scenario::make_engine_hooks(sc, kClients);
    cfg.scenario_name = sc.name;
  }
  if (!dir.empty()) {
    cfg.checkpoint.directory = dir;
    cfg.checkpoint.every_rounds = 1;
    cfg.checkpoint.keep = spec.rounds + 1;  // keep all for the tests
    cfg.checkpoint.resume = resume;
  }
  fl::AsyncSimulation sim(cfg, fx.factory, fx.train, fx.test, fx.partition,
                          make_strategy(spec.fedbiad));
  return sim.run();
}

// Bitwise comparison of everything deterministic. Wall-clock fields
// (lttr/aggregate seconds) are real measured time and legitimately differ
// between a resumed and an uninterrupted run; all virtual-clock and model
// state must agree exactly.
void expect_resumed_identical(const fl::SimulationResult& a,
                              const fl::SimulationResult& b) {
  EXPECT_EQ(a.strategy, b.strategy);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].round, b.rounds[i].round);
    EXPECT_EQ(a.rounds[i].train_loss, b.rounds[i].train_loss) << "round " << i;
    EXPECT_EQ(a.rounds[i].test_loss, b.rounds[i].test_loss) << "round " << i;
    EXPECT_EQ(a.rounds[i].top1, b.rounds[i].top1) << "round " << i;
    EXPECT_EQ(a.rounds[i].topk, b.rounds[i].topk) << "round " << i;
    EXPECT_EQ(a.rounds[i].participants, b.rounds[i].participants);
    EXPECT_EQ(a.rounds[i].uplink_bytes_total, b.rounds[i].uplink_bytes_total);
    EXPECT_EQ(a.rounds[i].uplink_bytes_max, b.rounds[i].uplink_bytes_max);
    EXPECT_EQ(a.rounds[i].downlink_bytes, b.rounds[i].downlink_bytes);
    EXPECT_EQ(a.rounds[i].upload_seconds, b.rounds[i].upload_seconds);
    EXPECT_EQ(a.rounds[i].download_seconds, b.rounds[i].download_seconds);
    EXPECT_EQ(a.rounds[i].clock_seconds, b.rounds[i].clock_seconds);
    EXPECT_EQ(a.rounds[i].mean_staleness, b.rounds[i].mean_staleness);
    EXPECT_EQ(a.rounds[i].abandoned, b.rounds[i].abandoned);
    EXPECT_EQ(a.rounds[i].wasted_uplink_bytes, b.rounds[i].wasted_uplink_bytes);
    EXPECT_EQ(a.rounds[i].rejected, b.rounds[i].rejected);
    EXPECT_EQ(a.rounds[i].rejected_bytes, b.rounds[i].rejected_bytes);
  }
  EXPECT_EQ(a.total_dispatched, b.total_dispatched);
  EXPECT_EQ(a.total_committed, b.total_committed);
  EXPECT_EQ(a.total_abandoned, b.total_abandoned);
  EXPECT_EQ(a.total_rejected, b.total_rejected);
  EXPECT_EQ(a.total_rejected_deliveries, b.total_rejected_deliveries);
  EXPECT_EQ(a.total_rejected_bytes, b.total_rejected_bytes);
  EXPECT_EQ(a.total_wasted_uplink_bytes, b.total_wasted_uplink_bytes);
  EXPECT_EQ(a.final_buffered, b.final_buffered);
  EXPECT_EQ(a.final_in_flight, b.final_in_flight);
  ASSERT_EQ(a.final_params.size(), b.final_params.size());
  for (std::size_t i = 0; i < a.final_params.size(); ++i) {
    ASSERT_EQ(a.final_params[i], b.final_params[i]) << "param " << i;
  }
}

// Checkpoint writes must not perturb the trajectory: a run that snapshots
// every round equals a run that never checkpoints.
TEST(EngineCheckpoint, WritingSnapshotsDoesNotPerturbTheRun) {
  const std::string dir = fresh_dir("inert");
  RunSpec spec;
  const auto with = run_with_checkpoints(spec, dir, /*resume=*/false);
  const auto without = run_with_checkpoints(spec, "", /*resume=*/false);
  expect_resumed_identical(with, without);
  EXPECT_EQ(checkpoint::list_snapshots(dir).size(), spec.rounds + 0u);
}

// Resume from every intermediate snapshot of an interrupted run and demand
// the full trajectory back, bit for bit.
struct ResumeCase {
  std::string tag;
  RunSpec spec;
};

class EngineResume : public ::testing::TestWithParam<ResumeCase> {};

TEST_P(EngineResume, ResumedRunIsBitIdenticalFromEverySnapshot) {
  const RunSpec& spec = GetParam().spec;
  const std::string full_dir = fresh_dir(GetParam().tag + "_full");
  const auto uninterrupted =
      run_with_checkpoints(spec, full_dir, /*resume=*/false);
  const auto snapshots = checkpoint::list_snapshots(full_dir);
  ASSERT_GE(snapshots.size(), spec.rounds);
  // "Interrupt" after round k by handing resume only the first k snapshots.
  for (std::size_t k = 1; k <= spec.rounds; ++k) {
    const std::string resume_dir =
        fresh_dir(GetParam().tag + "_k" + std::to_string(k));
    fs::copy_file(snapshots[k - 1],
                  fs::path(resume_dir) / fs::path(snapshots[k - 1]).filename());
    const auto resumed =
        run_with_checkpoints(spec, resume_dir, /*resume=*/true);
    expect_resumed_identical(resumed, uninterrupted);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Coverage, EngineResume,
    ::testing::Values(
        ResumeCase{"barrier_fedavg", {fl::AggregationMode::kBarrier, 1, 3}},
        ResumeCase{"barrier_fedbiad",
                   {fl::AggregationMode::kBarrier, 1, 3, /*fedbiad=*/true}},
        ResumeCase{"fedasync", {fl::AggregationMode::kFedAsync, 1, 3}},
        ResumeCase{"buffered", {fl::AggregationMode::kBufferedK, 1, 3}},
        ResumeCase{"barrier_threads4",
                   {fl::AggregationMode::kBarrier, 4, 3, /*fedbiad=*/true}},
        ResumeCase{"faults_barrier",
                   {fl::AggregationMode::kBarrier, 1, 3, false, /*faults=*/true}},
        ResumeCase{"faults_buffered_threads4",
                   {fl::AggregationMode::kBufferedK, 4, 3, false,
                    /*faults=*/true}}),
    [](const auto& info) { return info.param.tag; });

// A torn newest snapshot falls back to the previous one — and the resumed
// run still reproduces the uninterrupted trajectory.
TEST(EngineCheckpoint, ResumeFallsBackPastTornSnapshot) {
  RunSpec spec;
  spec.rounds = 3;
  const std::string full_dir = fresh_dir("fallback_full");
  const auto uninterrupted =
      run_with_checkpoints(spec, full_dir, /*resume=*/false);
  const auto snapshots = checkpoint::list_snapshots(full_dir);
  ASSERT_GE(snapshots.size(), 2u);
  const std::string resume_dir = fresh_dir("fallback_resume");
  fs::copy_file(snapshots[0],
                fs::path(resume_dir) / fs::path(snapshots[0]).filename());
  fs::copy_file(snapshots[1],
                fs::path(resume_dir) / fs::path(snapshots[1]).filename());
  {
    // Tear snapshot 2 mid-file.
    const auto torn = checkpoint::list_snapshots(resume_dir)[1];
    std::ifstream in(torn, std::ios::binary);
    std::vector<char> all((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    all.resize(all.size() - 7);
    std::ofstream out(torn, std::ios::binary | std::ios::trunc);
    out.write(all.data(), static_cast<std::streamsize>(all.size()));
  }
  const auto resumed = run_with_checkpoints(spec, resume_dir, /*resume=*/true);
  expect_resumed_identical(resumed, uninterrupted);
}

// Resume with no snapshot at all starts from scratch — same trajectory as a
// fresh run.
TEST(EngineCheckpoint, ResumeWithEmptyDirectoryStartsFresh) {
  RunSpec spec;
  spec.rounds = 2;
  const std::string dir = fresh_dir("empty_resume");
  const auto resumed = run_with_checkpoints(spec, dir, /*resume=*/true);
  const auto fresh = run_with_checkpoints(spec, "", /*resume=*/false);
  expect_resumed_identical(resumed, fresh);
}

// A snapshot from a mismatched run configuration must be refused loudly,
// not silently resumed into a diverging trajectory.
TEST(EngineCheckpoint, ResumeRejectsMismatchedSnapshot) {
  RunSpec barrier_spec;
  barrier_spec.rounds = 2;
  const std::string dir = fresh_dir("mismatch");
  run_with_checkpoints(barrier_spec, dir, /*resume=*/false);
  RunSpec async_spec;
  async_spec.rounds = 2;
  async_spec.mode = fl::AggregationMode::kFedAsync;
  EXPECT_THROW(run_with_checkpoints(async_spec, dir, /*resume=*/true),
               CheckError);
}

// --- Strategy state blobs -------------------------------------------------

TEST(StrategyState, FedAvgRoundTripsEmptyBlob) {
  baselines::FedAvgStrategy strategy;
  EXPECT_TRUE(strategy.save_state().empty());
  strategy.load_state({});  // accepts its own (empty) blob
}

TEST(StrategyState, FedBiadRejectsForeignBlob) {
  core::FedBiadStrategy strategy(
      core::FedBiadConfig{.dropout_rate = 0.5, .tau = 2});
  // {1,2,3}: one client, id 2, 3 score rows — then the reader underflows.
  const std::vector<std::uint8_t> garbage = {1, 2, 3};
  EXPECT_THROW(strategy.load_state(garbage), wire::DecodeError);
  baselines::FedAvgStrategy fedavg;
  EXPECT_THROW(fedavg.load_state(garbage), CheckError);
}

}  // namespace
}  // namespace fedbiad
