#include "probes.hpp"

#include <unistd.h>

#include <filesystem>

#include "bayes/spike_slab.hpp"
#include "checkpoint/checkpoint.hpp"
#include "core/drop_pattern.hpp"
#include "data/dataset.hpp"
#include "fl/fused_aggregate.hpp"
#include "nn/dense.hpp"
#include "nn/embedding.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/optimizer.hpp"
#include "stats.hpp"
#include "tensor/ops.hpp"
#include "transport/frame.hpp"
#include "wire/compact.hpp"
#include "wire/crc32c.hpp"

namespace fedbiad::bench_round {

namespace {

/// Keeps results observable so the timed calls are not optimized away.
volatile std::uint64_t g_sink = 0;

/// Median seconds per call of `fn` after two warm calls, over `budget_s`
/// (at least 5 calls).
template <typename Fn>
double per_call_s(Fn&& fn, double budget_s) {
  fn();
  fn();
  std::vector<double> times;
  const double stop = now_s() + budget_s;
  while (times.size() < 5 || (now_s() < stop && times.size() < 200000)) {
    const double begin = now_s();
    fn();
    times.push_back(now_s() - begin);
  }
  return median(std::move(times));
}

// Shapes of the layer-level probes: the MLP's first Dense layer and the LSTM
// LM's first recurrent layer, embedding and softmax at their batch sizes.
constexpr std::size_t kLmTokens = 16 * 12;  // batch 16 × sequence 12

}  // namespace

std::vector<Probe> run_probes(const RunConfig& rc, double budget_s) {
  std::vector<Probe> out;
  auto add = [&out](std::string name, double value, std::string unit) {
    out.push_back({std::move(name), value, std::move(unit)});
  };
  auto us = [budget_s](auto&& fn) { return 1e6 * per_call_s(fn, budget_s); };
  tensor::Rng rng(rc.seed);

  // --- nn: layer kernels on fixed shapes --------------------------------
  {
    nn::ParameterStore store;
    nn::Dense dense(store, "fc1", MnistSpec::kInput, MnistSpec::kHidden);
    store.finalize();
    dense.init(store, rng);
    tensor::Matrix x(MnistSpec::kBatch, MnistSpec::kInput), y, g, gx;
    x.fill_uniform(rng, 0.0F, 1.0F);
    dense.forward(store, x, y);
    g = y;
    add("nn.dense_fwd_us", us([&] { dense.forward(store, x, y); }), "us");
    add("nn.dense_bwd_us", us([&] {
          store.zero_grads();
          dense.backward(store, x, g, &gx);
        }),
        "us");
  }
  {
    nn::ParameterStore store;
    nn::LstmLayer lstm(store, "lstm0", PtbSpec::kEmbed, PtbSpec::kHidden);
    nn::Embedding embed(store, "embed", PtbSpec::kVocab, PtbSpec::kEmbed);
    store.finalize();
    lstm.init(store, rng);
    embed.init(store, rng);
    tensor::Matrix x(kLmTokens, PtbSpec::kEmbed), gh(kLmTokens, PtbSpec::kHidden),
        gx;
    x.fill_uniform(rng, -1.0F, 1.0F);
    gh.fill_uniform(rng, -1.0F, 1.0F);
    nn::LstmLayer::Cache cache;
    add("nn.lstm_fwd_us", us([&] { lstm.forward(store, x, 16, 12, cache); }),
        "us");
    add("nn.lstm_bwd_us", us([&] {
          store.zero_grads();
          lstm.backward(store, x, cache, gh, gx);
        }),
        "us");
    std::vector<std::int32_t> tokens(kLmTokens);
    for (auto& t : tokens) {
      t = static_cast<std::int32_t>(rng.uniform_index(PtbSpec::kVocab));
    }
    add("nn.embed_bwd_us", us([&] { embed.backward(store, tokens, x); }),
        "us");
    tensor::Matrix logits(kLmTokens, PtbSpec::kVocab), g_logits;
    logits.fill_uniform(rng, -4.0F, 4.0F);
    add("nn.softmax_xent_us", us([&] {
          g_sink = g_sink + static_cast<std::uint64_t>(
                                nn::softmax_cross_entropy(logits, tokens,
                                                          g_logits));
        }),
        "us");
  }

  // --- the workload's own model, data and strategy -----------------------
  const Job job = make_job(rc);
  auto model = job.factory();
  {
    tensor::Rng init = tensor::Rng(rc.seed).split(0xF0F0);
    model->init_params(init);
  }
  nn::ParameterStore& store = model->store();
  const std::vector<float> global(store.params().begin(), store.params().end());
  const std::vector<std::size_t>& shard = job.partition[0];
  const fl::TrainSettings& train = job.sim.train;
  const data::Batch batch =
      job.train->make_batch(data::sample_indices(shard, train.batch_size, rng));

  add("data.make_batch_us", us([&] {
        const data::Batch b = job.train->make_batch(
            data::sample_indices(shard, train.batch_size, rng));
        g_sink = g_sink + b.targets.size();
      }),
      "us");
  const double train_step_s = per_call_s(
      [&] { g_sink = g_sink + static_cast<std::uint64_t>(
                                  model->train_step(batch)); },
      budget_s);
  add("nn.train_step_ms", 1e3 * train_step_s, "ms");
  add("nn.sgd_step_us", us([&] { (void)nn::sgd_step(store, train.sgd); }),
      "us");
  add("nn.eval_ms", 1e3 * per_call_s([&] {
        nn::EvalResult eval;
        data::for_each_batch(*job.test, kEvalBatch,
                             [&](const data::Batch& b) {
                               eval.merge(model->eval_batch(b, train.topk));
                             });
        g_sink = g_sink + eval.top1;
      }, budget_s),
      "ms");

  fl::StrategyPtr strategy = make_client_strategy(rc);
  const double run_client_s = per_call_s(
      [&] {
        tensor::copy(global, store.params());
        fl::ClientContext ctx{
            .client_id = 0,
            .round = 1,
            .model = *model,
            .global_params = global,
            .dataset = *job.train,
            .shard = shard,
            .settings = train,
            .rng = tensor::Rng(rc.seed).split(0x1000).split(1),
        };
        g_sink = g_sink + strategy->run_client(ctx).payload.size();
      },
      budget_s);
  add("core.run_client_ms", 1e3 * run_client_s, "ms");
  add("core.train_step_share",
      static_cast<double>(train.local_iterations) * train_step_s / run_client_s,
      "ratio");

  tensor::copy(global, store.params());
  core::DropPattern pattern;
  add("core.pattern_sample_us", us([&] {
        pattern = core::DropPattern::sample(store, job.dropout,
                                            core::eligible_all(), rng);
      }),
      "us");
  add("core.mask_apply_us", us([&] { pattern.apply_to_params(store); }), "us");
  const bool dense_uploads = rc.spec->id == WorkloadId::kTcpAsync;
  auto encode = [&](std::span<const float> values) {
    return dense_uploads ? wire::encode_dense_f32(values)
                         : wire::encode_row_masked(store, pattern.bits(),
                                                   values);
  };
  add("core.encode_us",
      us([&] { g_sink = g_sink + encode(global).size(); }), "us");
  std::vector<float> theta(global.size());
  add("bayes.sample_us", us([&] {
        bayes::sample_gaussian(global, 1e-4, rng, theta);
      }),
      "us");

  // --- wire, fl, transport, checkpoint on the workload's uploads ---------
  std::vector<std::uint8_t> mib(1u << 20);
  for (auto& b : mib) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  const double crc_s = per_call_s(
      [&] { g_sink = g_sink + wire::crc32c(mib); }, budget_s);
  add("wire.crc32c_gbps", static_cast<double>(mib.size()) / crc_s / 1e9,
      "GB/s");
  add("wire.broadcast_encode_us",
      us([&] { g_sink = g_sink + wire::encode_dense_f32(global).size(); }),
      "us");

  const std::size_t wave = std::max<std::size_t>(
      1, static_cast<std::size_t>(job.sim.selection_fraction *
                                  static_cast<double>(job.partition.size())));
  std::vector<wire::Payload> payloads;
  for (std::size_t c = 0; c < wave; ++c) {
    pattern =
        core::DropPattern::sample(store, job.dropout, core::eligible_all(), rng);
    payloads.push_back(encode(global));
  }
  add("wire.decode_compact_us", us([&] {
        g_sink = g_sink +
                 wire::decode_update_compact(store, payloads[0]).transmitted();
      }),
      "us");
  std::vector<wire::CompactUpdate> compacts;
  for (const auto& p : payloads) {
    compacts.push_back(wire::decode_update_compact(store, p));
  }
  std::vector<fl::FusedUpdate> fused;
  for (const auto& c : compacts) {
    fused.push_back({&c, static_cast<double>(shard.size()), false});
  }
  std::vector<float> agg = global;
  fl::ShardedAccumulator sharded;
  add("fl.aggregate_us", us([&] {
        sharded.aggregate(agg, fused,
                          fl::AggregationRule::kPerCoordinateNormalized);
      }),
      "us");
  add("fl.merge_us", us([&] {
        sharded.merge(agg, std::span<const fl::FusedUpdate>(fused).first(1),
                      0.6);
      }),
      "us");

  std::vector<std::uint8_t> wire_bytes;
  transport::FrameParser parser(transport::TransportLimits{}.max_frame_bytes);
  transport::Frame frame;
  add("transport.frame_roundtrip_us", us([&] {
        wire_bytes.clear();
        transport::append_frame(wire_bytes, transport::FrameType::kUpload,
                                payloads[0].bytes);
        parser.feed(wire_bytes);
        while (parser.next(frame) == transport::FrameParser::Status::kFrame) {
          g_sink = g_sink + frame.body.size();
        }
      }),
      "us");

  const std::string dir = rc.work_dir + "/probe-ckpt-" +
                          std::to_string(::getpid());
  checkpoint::EngineSnapshot snap;
  snap.engine = "bench_round";
  snap.seed = rc.seed;
  snap.rounds_target = rc.commits;
  snap.param_count = global.size();
  snap.version = 1;
  snap.global = global;
  snap.rounds.resize(kIngestCheckpointEvery);
  add("checkpoint.write_ms",
      1e3 * per_call_s([&] { checkpoint::write_snapshot(dir, snap); },
                       budget_s),
      "ms");
  std::filesystem::remove_all(dir);
  return out;
}

}  // namespace fedbiad::bench_round
