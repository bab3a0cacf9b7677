// Tests for the fault-injection subsystem: the CRC32C frame layer, the
// non-throwing context-wrapped decode path, strict parsing of the scenario
// `faults` block, the keyed FaultInjector draws, and the engine
// integration — corrupt-delivery rejection with retry/backoff, duplicate
// idempotence, the extended conservation ledger, and thread-count
// determinism under simultaneous corruption + churn + deadline pressure.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/fedavg.hpp"
#include "common/check.hpp"
#include "data/image_synth.hpp"
#include "data/partition.hpp"
#include "fl/async_simulation.hpp"
#include "fl/engine_hooks.hpp"
#include "fl/strategy.hpp"
#include "netsim/client_profile.hpp"
#include "nn/mlp_model.hpp"
#include "scenario/config.hpp"
#include "scenario/model.hpp"
#include "tensor/rng.hpp"
#include "wire/accounting.hpp"
#include "wire/crc32c.hpp"
#include "wire/reader.hpp"
#include "wire/update_codec.hpp"

namespace fedbiad {
namespace {

// --- CRC32C and the frame trailer -----------------------------------------

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(Crc32c, KnownAnswerAndEmpty) {
  const auto check = bytes_of("123456789");
  EXPECT_EQ(wire::crc32c(check), 0xE3069283u);
  EXPECT_EQ(wire::crc32c(std::vector<std::uint8_t>{}), 0u);
}

TEST(Crc32c, ChainedUpdatesMatchOneShot) {
  const auto data = bytes_of("the quick brown fox jumps over the lazy dog");
  const std::uint32_t whole = wire::crc32c(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::span<const std::uint8_t> all(data);
    const std::uint32_t part = wire::crc32c(all.first(split));
    EXPECT_EQ(wire::crc32c(all.subspan(split), part), whole) << split;
  }
}

TEST(Crc32c, SoftwarePathMatchesKnownAnswer) {
  // The slice-by-8 table walk is the portable fallback behind the
  // dispatching entry point; pin it independently so a broken table is
  // caught even on hosts where the SSE4.2 path handles every call.
  EXPECT_EQ(wire::crc32c_sw(bytes_of("123456789")), 0xE3069283u);
  EXPECT_EQ(wire::crc32c_sw(std::vector<std::uint8_t>{}), 0u);
}

TEST(Crc32c, HardwareAndSoftwareAgreeAcrossLengthsOffsetsAndChains) {
  tensor::Rng rng(0xC5C);
  std::vector<std::uint8_t> data(1031);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  const std::span<const std::uint8_t> all(data);
  // Lengths straddling the alignment prologue, the 8-byte main loops of
  // both paths, and their byte tails.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{15}, std::size_t{16}, std::size_t{63},
        std::size_t{64}, std::size_t{65}, std::size_t{511}, std::size_t{1024},
        std::size_t{1031}}) {
    EXPECT_EQ(wire::crc32c(all.first(len)), wire::crc32c_sw(all.first(len)))
        << "length " << len;
  }
  // Misaligned buffer starts exercise the hardware prologue.
  for (std::size_t off = 0; off < 9; ++off) {
    EXPECT_EQ(wire::crc32c(all.subspan(off)), wire::crc32c_sw(all.subspan(off)))
        << "offset " << off;
  }
  // Chains may switch implementations mid-stream (a checkpoint written on
  // SSE4.2 hardware, verified on a portable build): a software head must
  // continue under the dispatching path and land on the same digest.
  const std::uint32_t whole = wire::crc32c_sw(all);
  for (std::size_t split = 0; split <= data.size(); split += 97) {
    const std::uint32_t head = wire::crc32c_sw(all.first(split));
    EXPECT_EQ(wire::crc32c(all.subspan(split), head), whole) << split;
  }
}

TEST(Crc32c, HardwareAndSoftwareAgreeAcrossInterleavedBlocks) {
  // The hardware path runs three streams over 3 x 8192 B blocks, then
  // 3 x 256 B blocks, then 8-byte words and a byte tail. Pin every
  // boundary between those stages against the software walk.
  constexpr std::size_t kShort = 3 * 256;
  constexpr std::size_t kLong = 3 * 8192;
  tensor::Rng rng(0x3A7);
  std::vector<std::uint8_t> data(407093 + 8);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  const std::span<const std::uint8_t> all(data);
  for (const std::size_t len :
       {kShort - 1, kShort, kShort + 1, kLong - 1, kLong, kLong + 1,
        2 * kLong + kShort + 7}) {
    EXPECT_EQ(wire::crc32c(all.first(len)), wire::crc32c_sw(all.first(len)))
        << "length " << len;
  }
  // The two frame sizes the ingest benchmark moves (an upload and a
  // dispatch), at every alignment of the hardware prologue.
  for (const std::size_t len : {std::size_t{324439}, std::size_t{407093}}) {
    for (std::size_t off = 0; off <= 8; ++off) {
      const auto run = all.subspan(off, len);
      EXPECT_EQ(wire::crc32c(run), wire::crc32c_sw(run))
          << "length " << len << " offset " << off;
    }
  }
  // Seeded chains split inside an interleaved block: the second call's
  // first stream starts from a nonzero state.
  const auto run = all.first(2 * kLong + kShort + 7);
  const std::uint32_t whole = wire::crc32c_sw(run);
  for (const std::size_t split :
       {std::size_t{1}, std::size_t{100}, kShort / 2, kShort + 5,
        kLong / 3 + 1, kLong + 4097, 2 * kLong + 3}) {
    const std::uint32_t head = wire::crc32c(run.first(split));
    EXPECT_EQ(head, wire::crc32c_sw(run.first(split))) << split;
    EXPECT_EQ(wire::crc32c(run.subspan(split), head), whole) << split;
  }
}

TEST(Crc32c, CombineMatchesOnePassAtEverySplitLength) {
  // crc32c_combine(crc(A), crc(B), |B|) must equal one pass over A||B,
  // hardware and software, for lengths on both sides of the 3 x 256 B and
  // 3 x 8192 B merge blocks, two long blocks, and the MNIST MLP's broadcast
  // (101,770 floats) — with either side empty. The combine is the same
  // code on every build, so the portable build runs this too.
  const std::size_t sizes[] = {0,     1,     767,   768,   769,
                               24575, 24576, 24577, 49152,
                               static_cast<std::size_t>(
                                   wire::dense_f32_bytes(101770))};
  tensor::Rng rng(0xC0B);
  std::vector<std::uint8_t> data(2 * sizes[9]);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  const std::span<const std::uint8_t> all(data);
  for (const std::size_t a : sizes) {
    for (const std::size_t b : sizes) {
      const auto whole = all.first(a + b);
      const std::uint32_t joined = wire::crc32c_combine(
          wire::crc32c(whole.first(a)), wire::crc32c(whole.subspan(a)), b);
      EXPECT_EQ(joined, wire::crc32c(whole)) << a << " + " << b;
      EXPECT_EQ(joined, wire::crc32c_sw(whole)) << a << " + " << b;
    }
  }
  // Combining is associative with chaining: a seeded run over B equals
  // the combine of crc(A) and an unseeded crc(B).
  const auto ab = all.first(sizes[5] + sizes[2]);
  const std::uint32_t head = wire::crc32c_sw(ab.first(sizes[5]));
  EXPECT_EQ(wire::crc32c(ab.subspan(sizes[5]), head),
            wire::crc32c_combine(head, wire::crc32c(ab.subspan(sizes[5])),
                                 sizes[2]));
}

wire::Payload sealed_payload(std::size_t body_bytes, std::uint64_t seed) {
  std::vector<std::uint8_t> bytes(body_bytes);
  tensor::Rng rng(seed);
  for (auto& b : bytes) {
    b = static_cast<std::uint8_t>(rng.uniform_index(256));
  }
  wire::Payload p;
  p.bytes = std::move(bytes);
  wire::seal_payload(p);
  return p;
}

TEST(CrcFrame, SealVerifyStripRoundTrip) {
  for (const std::size_t body : {std::size_t{0}, std::size_t{1},
                                 std::size_t{57}, std::size_t{4096}}) {
    wire::Payload p = sealed_payload(body, 11 + body);
    const wire::Payload original = sealed_payload(body, 11 + body);
    EXPECT_EQ(p.size(), wire::framed_bytes(body));
    EXPECT_TRUE(wire::verify_seal(p));
    wire::strip_seal(p);
    EXPECT_EQ(p.size(), body);
    // strip removed exactly the trailer: the body bytes are untouched.
    for (std::size_t i = 0; i < body; ++i) {
      ASSERT_EQ(p.bytes[i], original.bytes[i]);
    }
  }
}

TEST(CrcFrame, DetectsEverySingleBitFlip) {
  const wire::Payload sealed = sealed_payload(24, 3);
  for (std::size_t bit = 0; bit < sealed.size() * 8; ++bit) {
    wire::Payload p = sealed;
    auto flipped = std::move(p.bytes).release();  // a copy: `sealed` shares it
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    p.bytes = std::move(flipped);
    EXPECT_FALSE(wire::verify_seal(p)) << "bit " << bit;
    EXPECT_THROW(wire::strip_seal(p), wire::DecodeError);
  }
}

TEST(CrcFrame, DetectsEveryTruncation) {
  const wire::Payload sealed = sealed_payload(32, 5);
  for (std::size_t cut = 0; cut < sealed.size(); ++cut) {
    wire::Payload p = sealed;
    p.bytes = p.bytes.slice(0, cut);
    EXPECT_FALSE(wire::verify_seal(p)) << "cut " << cut;
    EXPECT_THROW(wire::strip_seal(p), wire::DecodeError);
  }
}

TEST(CrcFrame, VerifyRejectsFrameShorterThanTrailer) {
  wire::Payload p;
  p.bytes = std::vector<std::uint8_t>{1, 2, 3};  // < kCrcTrailerBytes
  EXPECT_FALSE(wire::verify_seal(p));
  EXPECT_THROW(wire::strip_seal(p), wire::DecodeError);
}

// --- try_decode_outcome_compact: non-throwing, context-wrapped ------------

struct DecodeRig {
  std::unique_ptr<nn::Model> model;
  fl::ClientOutcome outcome;  ///< encoded dense-f32 upload, unsealed
  baselines::FedAvgStrategy strategy;
};

DecodeRig make_decode_rig() {
  DecodeRig rig;
  rig.model = std::make_unique<nn::MlpModel>(
      nn::MlpConfig{.input = 16, .hidden = 4, .classes = 3});
  {
    tensor::Rng init(21);
    rig.model->init_params(init);
  }
  std::vector<float> values(rig.model->store().size());
  tensor::Rng rng(9);
  for (auto& v : values) v = static_cast<float>(rng.normal());
  rig.outcome.samples = 8;
  rig.outcome.payload = wire::encode_dense_f32(values);
  return rig;
}

TEST(TryDecode, FramedSuccessChargesWireBytes) {
  DecodeRig rig = make_decode_rig();
  const std::uint64_t body = rig.outcome.payload.size();
  wire::seal_payload(rig.outcome.payload);
  const auto status = fl::try_decode_outcome_compact(
      rig.strategy, rig.model->store(), rig.outcome, /*framed=*/true,
      {7, 42, 3.5});
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(rig.outcome.compact.size(), rig.model->store().size());
  // The trailer is on-the-wire traffic: uplink charges the framed size.
  EXPECT_EQ(rig.outcome.uplink_bytes, wire::framed_bytes(body));
}

TEST(TryDecode, UnframedSuccessMatchesThrowingDecode) {
  DecodeRig a = make_decode_rig();
  DecodeRig b = make_decode_rig();
  const auto status = fl::try_decode_outcome_compact(
      a.strategy, a.model->store(), a.outcome, /*framed=*/false, {});
  ASSERT_TRUE(status.ok) << status.error;
  fl::decode_outcome_compact(b.strategy, b.model->store(), b.outcome);
  EXPECT_EQ(a.outcome.compact.form, b.outcome.compact.form);
  const wire::F32Run av = a.outcome.compact.values();
  const wire::F32Run bv = b.outcome.compact.values();
  ASSERT_EQ(av.size(), bv.size());
  for (std::size_t i = 0; i < av.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(av[i]),
              std::bit_cast<std::uint32_t>(bv[i]));
  }
  EXPECT_EQ(a.outcome.uplink_bytes, b.outcome.uplink_bytes);
}

TEST(TryDecode, CorruptFrameWrapsDispatchContext) {
  DecodeRig rig = make_decode_rig();
  wire::seal_payload(rig.outcome.payload);
  auto bytes = std::move(rig.outcome.payload.bytes).release();
  bytes[5] ^= 0x10;
  rig.outcome.payload.bytes = std::move(bytes);
  const auto status = fl::try_decode_outcome_compact(
      rig.strategy, rig.model->store(), rig.outcome, /*framed=*/true,
      {7, 42, 3.5});
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("client 7"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("dispatch 42"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("t=3.5"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("rejected:"), std::string::npos) << status.error;
  // The failed outcome is left undecoded — retryable, never half-charged.
  EXPECT_TRUE(rig.outcome.compact.empty());
  EXPECT_EQ(rig.outcome.uplink_bytes, 0u);
}

TEST(TryDecode, TruncatedFrameRejectsWithoutThrowing) {
  DecodeRig rig = make_decode_rig();
  wire::seal_payload(rig.outcome.payload);
  rig.outcome.payload.bytes =
      rig.outcome.payload.bytes.slice(0, rig.outcome.payload.size() / 2);
  const auto status = fl::try_decode_outcome_compact(
      rig.strategy, rig.model->store(), rig.outcome, /*framed=*/true,
      {1, 2, 0.0});
  ASSERT_FALSE(status.ok);
  EXPECT_TRUE(rig.outcome.compact.empty());
}

TEST(TryDecode, GarbageBodyRejectsEvenUnframed) {
  DecodeRig rig = make_decode_rig();
  // Too short for any section header.
  rig.outcome.payload.bytes = rig.outcome.payload.bytes.slice(0, 3);
  const auto status = fl::try_decode_outcome_compact(
      rig.strategy, rig.model->store(), rig.outcome, /*framed=*/false,
      {0, 0, 0.0});
  ASSERT_FALSE(status.ok);
}

// --- scenario `faults` block: strict parsing ------------------------------

scenario::Config faults_config() {
  scenario::Config cfg;
  cfg.name = "faulty";
  cfg.seed = 77;
  cfg.faults = scenario::FaultsConfig{
      .corruption_probability = 0.05,
      .corruption_mode = scenario::CorruptionMode::kTruncate,
      .duplicate_probability = 0.02,
      .retry = {.max_attempts = 3,
                .backoff_seconds = 0.5,
                .backoff_multiplier = 2.0,
                .jitter_fraction = 0.25},
  };
  return cfg;
}

TEST(FaultsConfig, RoundTripsCanonicalJson) {
  const scenario::Config cfg = faults_config();
  const scenario::Config back = scenario::Config::from_json(cfg.to_json());
  EXPECT_EQ(back, cfg);
  EXPECT_TRUE(cfg.active());
}

TEST(FaultsConfig, FaultsSectionAloneMakesConfigActive) {
  scenario::Config cfg;
  EXPECT_FALSE(cfg.active());
  cfg.faults = scenario::FaultsConfig{};
  EXPECT_TRUE(cfg.active());
}

TEST(FaultsConfig, ParsesFullBlock) {
  const auto cfg = scenario::Config::from_json(R"({
    "faults": {
      "corruption_probability": 0.1,
      "corruption_mode": "truncate",
      "duplicate_probability": 0.05,
      "retry": {"max_attempts": 4, "backoff_seconds": 2.0,
                "backoff_multiplier": 1.5, "jitter_fraction": 0.5}
    }
  })");
  ASSERT_TRUE(cfg.faults.has_value());
  EXPECT_EQ(cfg.faults->corruption_probability, 0.1);
  EXPECT_EQ(cfg.faults->corruption_mode, scenario::CorruptionMode::kTruncate);
  EXPECT_EQ(cfg.faults->duplicate_probability, 0.05);
  EXPECT_EQ(cfg.faults->retry.max_attempts, 4u);
  EXPECT_EQ(cfg.faults->retry.backoff_seconds, 2.0);
  EXPECT_EQ(cfg.faults->retry.backoff_multiplier, 1.5);
  EXPECT_EQ(cfg.faults->retry.jitter_fraction, 0.5);
}

TEST(FaultsConfig, RejectsUnknownKeys) {
  EXPECT_THROW(
      scenario::Config::from_json(R"({"faults": {"corruption": 0.1}})"),
      CheckError);
  EXPECT_THROW(scenario::Config::from_json(
                   R"({"faults": {"retry": {"attempts": 3}}})"),
               CheckError);
}

TEST(FaultsConfig, RejectsOutOfRangeValues) {
  EXPECT_THROW(scenario::Config::from_json(
                   R"({"faults": {"corruption_probability": 0.96}})"),
               CheckError);
  EXPECT_THROW(scenario::Config::from_json(
                   R"({"faults": {"corruption_probability": -0.1}})"),
               CheckError);
  EXPECT_THROW(scenario::Config::from_json(
                   R"({"faults": {"duplicate_probability": 1.0}})"),
               CheckError);
  EXPECT_THROW(scenario::Config::from_json(
                   R"({"faults": {"retry": {"max_attempts": 0}}})"),
               CheckError);
  EXPECT_THROW(scenario::Config::from_json(
                   R"({"faults": {"retry": {"max_attempts": 17}}})"),
               CheckError);
  EXPECT_THROW(scenario::Config::from_json(
                   R"({"faults": {"retry": {"max_attempts": 2.5}}})"),
               CheckError);
  EXPECT_THROW(scenario::Config::from_json(
                   R"({"faults": {"retry": {"backoff_seconds": 0.0}}})"),
               CheckError);
  EXPECT_THROW(scenario::Config::from_json(
                   R"({"faults": {"retry": {"backoff_multiplier": 0.5}}})"),
               CheckError);
  EXPECT_THROW(scenario::Config::from_json(
                   R"({"faults": {"retry": {"jitter_fraction": 1.0}}})"),
               CheckError);
}

TEST(FaultsConfig, RejectsBadCorruptionMode) {
  EXPECT_THROW(scenario::Config::from_json(
                   R"({"faults": {"corruption_mode": "bitflip"}})"),
               CheckError);
  EXPECT_THROW(scenario::Config::from_json(
                   R"({"faults": {"corruption_mode": 1}})"),
               CheckError);
}

TEST(FaultsConfig, ValidateCatchesMutationsAfterParse) {
  scenario::Config cfg = faults_config();
  cfg.validate();
  cfg.faults->retry.backoff_multiplier = 100.0;
  EXPECT_THROW(cfg.validate(), CheckError);
}

// --- FaultInjector draws --------------------------------------------------

TEST(FaultInjector, DisabledNeverFaults) {
  const scenario::FaultInjector off(std::nullopt, 5);
  EXPECT_FALSE(off.enabled());
  for (std::size_t s = 0; s < 100; ++s) {
    const auto f = off.decide(s % 7, s, 1);
    EXPECT_FALSE(f.corrupt);
    EXPECT_FALSE(f.duplicate);
  }
}

TEST(FaultInjector, DeterministicAndAttemptKeyed) {
  scenario::FaultsConfig fc;
  fc.corruption_probability = 0.5;
  fc.duplicate_probability = 0.3;
  const scenario::FaultInjector a(fc, 13);
  const scenario::FaultInjector b(fc, 13);
  bool attempts_differ = false;
  for (std::size_t c = 0; c < 4; ++c) {
    for (std::size_t s = 0; s < 40; ++s) {
      for (std::size_t attempt = 1; attempt <= 3; ++attempt) {
        const auto fa = a.decide(c, s, attempt);
        const auto fb = b.decide(c, s, attempt);
        EXPECT_EQ(fa.corrupt, fb.corrupt);
        EXPECT_EQ(fa.position, fb.position);
        EXPECT_EQ(fa.duplicate, fb.duplicate);
        EXPECT_EQ(fa.duplicate_lag, fb.duplicate_lag);
        EXPECT_EQ(a.jitter(c, s, attempt), b.jitter(c, s, attempt));
        attempts_differ |= fa.corrupt != a.decide(c, s, attempt + 3).corrupt;
      }
    }
  }
  EXPECT_TRUE(attempts_differ) << "retries must draw independently";
}

TEST(FaultInjector, DrawsRespectRangesAndExclusivity) {
  scenario::FaultsConfig fc;
  fc.corruption_probability = 0.4;
  fc.corruption_mode = scenario::CorruptionMode::kTruncate;
  fc.duplicate_probability = 0.4;
  const scenario::FaultInjector inj(fc, 29);
  std::size_t corrupt = 0;
  std::size_t duplicate = 0;
  const std::size_t draws = 4000;
  for (std::size_t s = 0; s < draws; ++s) {
    const auto f = inj.decide(s % 11, s, 1 + s % 3);
    if (f.corrupt) {
      ++corrupt;
      EXPECT_TRUE(f.truncate);
      EXPECT_GE(f.position, 0.0);
      EXPECT_LT(f.position, 1.0);
      // A corrupt delivery never also duplicates: the frame was dropped.
      EXPECT_FALSE(f.duplicate);
    }
    if (f.duplicate) {
      ++duplicate;
      EXPECT_GT(f.duplicate_lag, 0.0);
      EXPECT_LE(f.duplicate_lag, 1.0);
    }
    const double j = inj.jitter(s % 11, s, 1);
    EXPECT_GE(j, 0.0);
    EXPECT_LT(j, 1.0);
  }
  EXPECT_NEAR(static_cast<double>(corrupt) / draws, 0.4, 0.04);
  // Duplicates are drawn only on intact deliveries: marginal ≈ (1-p)·q.
  EXPECT_NEAR(static_cast<double>(duplicate) / draws, 0.6 * 0.4, 0.04);
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
                                std::size_t rounds = 4,
                                std::size_t buffer_k = 2) {
  Fixture fx = make_fixture(threads, rounds);
  fl::AsyncSimulationConfig cfg;
  cfg.base = fx.sim;
  cfg.mode = mode;
  cfg.buffer_size = buffer_k;
  cfg.heterogeneity = stressed_fleet();
  cfg.hooks = std::move(hooks);
  cfg.scenario_name = name;
  fl::AsyncSimulation sim(cfg, fx.factory, fx.train, fx.test, fx.partition,
                          std::make_shared<baselines::FedAvgStrategy>());
  return sim.run();
}

fl::SimulationResult run_scenario(const scenario::Config& cfg,
                                  fl::AggregationMode mode,
                                  std::size_t threads, std::size_t rounds = 4,
                                  std::size_t buffer_k = 2) {
  return run_hooked(scenario::make_engine_hooks(cfg, kClients), cfg.name, mode,
                    threads, rounds, buffer_k);
}

// The extended conservation law: dispatched = committed + abandoned +
// rejected + buffered + in-flight, with the delivery-level ledger bounded
// below by the terminal rejections it must contain.
void expect_conserved(const fl::SimulationResult& r) {
  EXPECT_EQ(r.total_dispatched, r.total_committed + r.total_abandoned +
                                    r.total_rejected + r.final_buffered +
                                    r.final_in_flight);
  std::size_t parts = 0;
  std::size_t rejected = 0;
  std::uint64_t rejected_bytes = 0;
  double clock = 0.0;
  for (const auto& rec : r.rounds) {
    parts += rec.participants;
    rejected += rec.rejected;
    rejected_bytes += rec.rejected_bytes;
    EXPECT_GE(rec.participants, 1u);
    EXPECT_GE(rec.clock_seconds, clock) << "clock moved backwards";
    clock = rec.clock_seconds;
  }
  EXPECT_EQ(parts, r.total_committed);
  // Rejections after the final commit stay out of every RoundRecord.
  EXPECT_LE(rejected, r.total_rejected);
  EXPECT_LE(rejected_bytes, r.total_rejected_bytes);
  // Every terminal rejection burned at least one delivery; duplicates and
  // retried attempts push the delivery count above the dispatch count.
  EXPECT_GE(r.total_rejected_deliveries, r.total_rejected);
  const double f = r.dropped_upload_fraction();
  EXPECT_GE(f, 0.0);
  EXPECT_LE(f, 1.0);
}

void expect_identical(const fl::SimulationResult& a,
                      const fl::SimulationResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].participants, b.rounds[i].participants);
    EXPECT_EQ(a.rounds[i].uplink_bytes_total, b.rounds[i].uplink_bytes_total);
    EXPECT_EQ(a.rounds[i].train_loss, b.rounds[i].train_loss) << "round " << i;
    EXPECT_EQ(a.rounds[i].test_loss, b.rounds[i].test_loss) << "round " << i;
    EXPECT_EQ(a.rounds[i].clock_seconds, b.rounds[i].clock_seconds);
    EXPECT_EQ(a.rounds[i].abandoned, b.rounds[i].abandoned);
    EXPECT_EQ(a.rounds[i].rejected, b.rounds[i].rejected);
    EXPECT_EQ(a.rounds[i].rejected_bytes, b.rounds[i].rejected_bytes);
  }
  EXPECT_EQ(a.total_dispatched, b.total_dispatched);
  EXPECT_EQ(a.total_committed, b.total_committed);
  EXPECT_EQ(a.total_abandoned, b.total_abandoned);
  EXPECT_EQ(a.total_rejected, b.total_rejected);
  EXPECT_EQ(a.total_rejected_deliveries, b.total_rejected_deliveries);
  EXPECT_EQ(a.total_rejected_bytes, b.total_rejected_bytes);
  ASSERT_EQ(a.final_params.size(), b.final_params.size());
  for (std::size_t i = 0; i < a.final_params.size(); ++i) {
    ASSERT_EQ(a.final_params[i], b.final_params[i]) << "param " << i;
  }
}

// Programmable fault hooks: everything available, no churn, scripted
// delivery faults and a fixed retry policy.
struct FaultHooks final : fl::EngineHooks {
  std::function<fl::DeliveryFault(std::size_t, std::size_t, std::size_t)>
      fault_fn;
  fl::RetryPolicy policy{.max_attempts = 1};

  bool client_available(std::size_t, double) override { return true; }
  double next_available_time(std::size_t, double now) override { return now; }
  fl::ChurnDecision churn(std::size_t, std::size_t) override { return {}; }
  double deadline_seconds() const override { return 0.0; }
  double over_selection() const override { return 1.0; }
  bool faults_enabled() const override { return true; }
  fl::DeliveryFault delivery_fault(std::size_t client, std::size_t seq,
                                   std::size_t attempt) override {
    return fault_fn ? fault_fn(client, seq, attempt) : fl::DeliveryFault{};
  }
  fl::RetryPolicy retry_policy() const override { return policy; }
};

// --- Engine: rejection, retry, duplicates ---------------------------------

// Fault framing with no actual faults: every upload gains exactly the
// 4-byte trailer relative to the clean run, nothing is rejected, and the
// trajectory's model math is unchanged (the trailer is stripped before
// decoding, so the committed floats are identical).
TEST(EngineFaults, NullFaultRunSealsButNeverRejects) {
  auto clean_hooks = std::make_shared<FaultHooks>();
  // Same hooks but with faults_enabled false via a scenario-free run is not
  // comparable (hooks change dispatch budgeting), so compare two fault
  // sessions: framing is deterministic overhead.
  const auto r = run_hooked(clean_hooks, "null_faults",
                            fl::AggregationMode::kBarrier, 2);
  expect_conserved(r);
  EXPECT_EQ(r.total_rejected, 0u);
  EXPECT_EQ(r.total_rejected_deliveries, 0u);
  EXPECT_EQ(r.total_rejected_bytes, 0u);
  for (const auto& rec : r.rounds) {
    // Every participant's uplink is its payload + one CRC trailer.
    EXPECT_EQ(rec.uplink_bytes_total % wire::framed_bytes(0), 0u);
  }
}

// One scripted corrupt first delivery, intact retry: the dispatch commits,
// one rejected delivery is charged, no dispatch is terminally rejected, and
// the backoff delays the commit clock.
TEST(EngineFaults, CorruptFirstAttemptRetriesAndCommits) {
  auto faulty = std::make_shared<FaultHooks>();
  faulty->policy = {.max_attempts = 2, .backoff_seconds = 0.25};
  faulty->fault_fn = [](std::size_t, std::size_t seq, std::size_t attempt) {
    fl::DeliveryFault f;
    if (seq == 0 && attempt == 1) {
      f.corrupt = true;
      f.position = 0.4;
    }
    return f;
  };
  auto clean = std::make_shared<FaultHooks>();
  clean->policy = faulty->policy;
  const auto r = run_hooked(faulty, "retry_ok", fl::AggregationMode::kBarrier,
                            1, /*rounds=*/1);
  const auto base = run_hooked(clean, "no_faults",
                               fl::AggregationMode::kBarrier, 1, /*rounds=*/1);
  expect_conserved(r);
  EXPECT_EQ(r.total_rejected, 0u);
  EXPECT_EQ(r.total_rejected_deliveries, 1u);
  EXPECT_GT(r.total_rejected_bytes, 0u);
  ASSERT_EQ(r.rounds.size(), 1u);
  ASSERT_EQ(base.rounds.size(), 1u);
  // Same cohort commits (the retry saved the dispatch)…
  EXPECT_EQ(r.rounds[0].participants, base.rounds[0].participants);
  ASSERT_EQ(r.final_params.size(), base.final_params.size());
  for (std::size_t i = 0; i < r.final_params.size(); ++i) {
    ASSERT_EQ(r.final_params[i], base.final_params[i]) << "param " << i;
  }
  // …but strictly later: the backoff + retransmission is on the clock.
  EXPECT_GT(r.rounds[0].clock_seconds, base.rounds[0].clock_seconds);
}

// Every delivery of dispatch 0 corrupts with a 2-attempt budget: the
// dispatch is terminally rejected, and the barrier commits the partial
// cohort without it — exactly like an abandoned wave member.
TEST(EngineFaults, RetryBudgetDrainedRejectsTerminally) {
  auto hooks = std::make_shared<FaultHooks>();
  hooks->policy = {.max_attempts = 2, .backoff_seconds = 0.25};
  hooks->fault_fn = [](std::size_t, std::size_t seq, std::size_t) {
    fl::DeliveryFault f;
    if (seq == 0) {
      f.corrupt = true;
      f.truncate = true;
      f.position = 0.6;
    }
    return f;
  };
  const auto r = run_hooked(hooks, "retry_drained",
                            fl::AggregationMode::kBarrier, 1, /*rounds=*/1);
  expect_conserved(r);
  EXPECT_EQ(r.total_rejected, 1u);
  EXPECT_EQ(r.total_rejected_deliveries, 2u);
  ASSERT_EQ(r.rounds.size(), 1u);
  EXPECT_EQ(r.rounds[0].rejected, 1u);
  EXPECT_EQ(r.rounds[0].participants, 2u);  // 3-member wave minus the reject
  EXPECT_EQ(r.rounds[0].abandoned, 0u);
}

// Duplicate deliveries never double-count: with every delivery duplicated,
// the trajectory (participants, committed totals, final params) is
// bit-identical to the duplicate-free run; only the delivery ledger grows.
class DuplicateIdempotence
    : public ::testing::TestWithParam<fl::AggregationMode> {};

TEST_P(DuplicateIdempotence, DuplicatesNeverChangeTheTrajectory) {
  auto duplicating = std::make_shared<FaultHooks>();
  duplicating->fault_fn = [](std::size_t, std::size_t, std::size_t) {
    return fl::DeliveryFault{.duplicate = true, .duplicate_lag = 0.5};
  };
  auto clean = std::make_shared<FaultHooks>();
  const auto dup = run_hooked(duplicating, "dup", GetParam(), 2, 3);
  const auto ref = run_hooked(clean, "nodup", GetParam(), 2, 3);
  expect_conserved(dup);
  EXPECT_EQ(dup.total_rejected, 0u);
  EXPECT_GT(dup.total_rejected_deliveries, 0u);
  EXPECT_GT(dup.total_rejected_bytes, 0u);
  EXPECT_EQ(dup.total_committed, ref.total_committed);
  EXPECT_EQ(dup.total_dispatched, ref.total_dispatched);
  ASSERT_EQ(dup.rounds.size(), ref.rounds.size());
  for (std::size_t i = 0; i < dup.rounds.size(); ++i) {
    EXPECT_EQ(dup.rounds[i].participants, ref.rounds[i].participants);
    EXPECT_EQ(dup.rounds[i].train_loss, ref.rounds[i].train_loss);
    EXPECT_EQ(dup.rounds[i].clock_seconds, ref.rounds[i].clock_seconds);
  }
  ASSERT_EQ(dup.final_params.size(), ref.final_params.size());
  for (std::size_t i = 0; i < dup.final_params.size(); ++i) {
    ASSERT_EQ(dup.final_params[i], ref.final_params[i]) << "param " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, DuplicateIdempotence,
                         ::testing::Values(fl::AggregationMode::kBarrier,
                                           fl::AggregationMode::kFedAsync,
                                           fl::AggregationMode::kBufferedK),
                         [](const auto& info) {
                           return std::string(fl::to_string(info.param));
                         });

// --- Declarative faults: determinism and the stress fuzz ------------------

scenario::Config stress_config(std::uint64_t seed) {
  scenario::Config cfg;
  cfg.name = "fault_stress";
  cfg.seed = seed;
  cfg.over_selection = 1.5;
  cfg.deadline_seconds = 2.5;
  cfg.churn = scenario::ChurnConfig{.failure_rate = 0.15};
  cfg.faults = scenario::FaultsConfig{
      .corruption_probability = 0.25,
      .corruption_mode = seed % 2 == 0 ? scenario::CorruptionMode::kBitFlip
                                       : scenario::CorruptionMode::kTruncate,
      .duplicate_probability = 0.15,
      .retry = {.max_attempts = 2,
                .backoff_seconds = 0.125,
                .backoff_multiplier = 2.0,
                .jitter_fraction = 0.5},
  };
  return cfg;
}

class FaultDeterminism
    : public ::testing::TestWithParam<fl::AggregationMode> {};

TEST_P(FaultDeterminism, ThreadCountInvariantUnderFullFaultPressure) {
  const scenario::Config cfg = stress_config(101);
  const auto t1 = run_scenario(cfg, GetParam(), 1, 3);
  const auto t4 = run_scenario(cfg, GetParam(), 4, 3);
  expect_identical(t1, t4);
  expect_conserved(t1);
}

INSTANTIATE_TEST_SUITE_P(AllModes, FaultDeterminism,
                         ::testing::Values(fl::AggregationMode::kBarrier,
                                           fl::AggregationMode::kFedAsync,
                                           fl::AggregationMode::kBufferedK),
                         [](const auto& info) {
                           return std::string(fl::to_string(info.param));
                         });

// 30-seed fuzz of the extended ledger under corruption + duplicates +
// churn + deadline simultaneously, cycling the aggregation mode. Every run
// must complete without throwing and conserve the dispatch ledger; across
// the population, both rejection ledgers must actually fire.
TEST(EngineFaults, FuzzedConservationUnderCombinedPressure) {
  constexpr fl::AggregationMode kModes[] = {fl::AggregationMode::kBarrier,
                                            fl::AggregationMode::kFedAsync,
                                            fl::AggregationMode::kBufferedK};
  std::size_t total_rejected = 0;
  std::size_t total_rejected_deliveries = 0;
  std::size_t total_abandoned = 0;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const scenario::Config cfg = stress_config(1000 + seed);
    const auto r = run_scenario(cfg, kModes[seed % 3], 1, /*rounds=*/2);
    expect_conserved(r);
    EXPECT_EQ(r.rounds.size(), 2u) << "seed " << seed;
    total_rejected += r.total_rejected;
    total_rejected_deliveries += r.total_rejected_deliveries;
    total_abandoned += r.total_abandoned;
  }
  EXPECT_GT(total_rejected_deliveries, 0u)
      << "30 seeds at 25% corruption never dropped a delivery";
  EXPECT_GT(total_rejected + total_abandoned, 0u);
}

}  // namespace
}  // namespace fedbiad
