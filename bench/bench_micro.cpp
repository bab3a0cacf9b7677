// Substrate microbenchmarks (google-benchmark): tensor kernels, LSTM
// forward/backward, mask application, the posterior draw and the SGD step,
// image synthesis, compressors, and aggregation.
// Not a paper artefact — used to track the simulator's own performance.
//
// With FEDBIAD_JSON=<path> set, additionally writes the results as a
// BENCH_micro.json trajectory file following the bench/README.md schema
// (series keyed by "kernel"; items/sec and ns/iter per entry).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "baselines/fedavg.hpp"
#include "bayes/spike_slab.hpp"
#include "compress/dgc.hpp"
#include "compress/quantize.hpp"
#include "core/drop_pattern.hpp"
#include "core/fedbiad_strategy.hpp"
#include "data/image_synth.hpp"
#include "fl/fused_aggregate.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/lstm_lm_model.hpp"
#include "nn/mlp_model.hpp"
#include "nn/optimizer.hpp"
#include "nn/sub_model.hpp"
#include "tensor/gemm.hpp"
#include "transport/decode_pool.hpp"
#include "transport/epoll.hpp"
#include "transport/frame.hpp"
#include "transport/protocol.hpp"
#include "wire/accounting.hpp"
#include "wire/compact.hpp"
#include "wire/crc32c.hpp"
#include "wire/update_codec.hpp"

namespace {

using namespace fedbiad;

// out = x · Wᵀ, the Dense forward shape, through the blocked GEMM.
void BM_MatmulXwt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Rng rng(1);
  tensor::Matrix x(32, n), w(n, n), out(32, n);
  x.fill_uniform(rng, -1, 1);
  w.fill_uniform(rng, -1, 1);
  for (auto _ : state) {
    tensor::gemm_abt(32, n, n, x.data(), n, w.data(), n, out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32 *
                          n * n);
}
BENCHMARK(BM_MatmulXwt)->Arg(128)->Arg(512);

// The B-operand pack behind fc1's forward GEMM: bench_round's train_mlp
// layer (128 units × 784 inputs, stored bias-in-row, stride 785). The arg is
// the number of kept unit rows: 128 packs the whole layer (identity Gather),
// fewer packs an ascending random subset through Gather::rows, as a
// sub-model forward does (102 ≈ the rows a 20% drop keeps). Items = packed
// floats.
void BM_PackBt(benchmark::State& state) {
  constexpr std::size_t kUnits = 128;
  constexpr std::size_t kIn = 784;
  const auto rows = static_cast<std::size_t>(state.range(0));
  tensor::Rng rng(30);
  tensor::Matrix w(kUnits, kIn + 1);
  w.fill_uniform(rng, -1, 1);
  std::vector<std::size_t> offsets;
  if (rows < kUnits) {
    auto kept = rng.sample_without_replacement(kUnits, rows);
    std::sort(kept.begin(), kept.end());
    for (const auto r : kept) offsets.push_back(r * (kIn + 1));
  }
  const tensor::Gather gather{offsets.empty() ? nullptr : offsets.data(),
                              nullptr};
  std::vector<float> packed(tensor::gemm_packed_size(rows, kIn));
  for (auto _ : state) {
    tensor::gemm_pack_bt(rows, kIn, w.data(), kIn + 1, packed.data(), gather);
    benchmark::DoNotOptimize(packed.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * kIn));
}
BENCHMARK(BM_PackBt)->Arg(128)->Arg(102);

// Args: hidden width, dropout rate in percent. At a nonzero rate the layer
// runs the sub-model of the units a FedBIAD-style pattern keeps, with every
// input kept.
void BM_LstmForward(benchmark::State& state) {
  const auto h = static_cast<std::size_t>(state.range(0));
  const double p = static_cast<double>(state.range(1)) / 100.0;
  nn::ParameterStore store;
  nn::LstmLayer lstm(store, "l", h, h);
  store.finalize();
  tensor::Rng rng(2);
  lstm.init(store, rng);
  const auto pattern =
      core::DropPattern::sample(store, p, core::eligible_all(), rng);
  pattern.apply_to_params(store);
  std::vector<std::size_t> buf;
  const nn::Units units = nn::kept_units(
      store, lstm.group(),
      p > 0.0 ? std::span<const std::uint8_t>(pattern.bits())
              : std::span<const std::uint8_t>(),
      buf);
  tensor::Matrix x(16 * 12, h);
  x.fill_uniform(rng, -1, 1);
  nn::LstmLayer::Cache cache;
  for (auto _ : state) {
    lstm.forward(store, x, 16, 12, cache, nn::Units::all(h), units);
    benchmark::DoNotOptimize(cache.h.data());
  }
  // Items = tokens: batch 16 × seq 12 per iteration.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16 *
                          12);
}
BENCHMARK(BM_LstmForward)
    ->Args({64, 0})
    ->Args({64, 50})
    ->Args({128, 0})
    ->Args({128, 50});

void BM_LstmBackward(benchmark::State& state) {
  const auto h = static_cast<std::size_t>(state.range(0));
  nn::ParameterStore store;
  nn::LstmLayer lstm(store, "l", h, h);
  store.finalize();
  tensor::Rng rng(3);
  lstm.init(store, rng);
  tensor::Matrix x(16 * 12, h), g(16 * 12, h), gx;
  x.fill_uniform(rng, -1, 1);
  g.fill_uniform(rng, -1, 1);
  nn::LstmLayer::Cache cache;
  lstm.forward(store, x, 16, 12, cache);
  for (auto _ : state) {
    store.zero_grads();
    lstm.backward(store, x, cache, g, gx);
    benchmark::DoNotOptimize(gx.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16 *
                          12);
}
BENCHMARK(BM_LstmBackward)->Arg(64);

void BM_SoftmaxXent(benchmark::State& state) {
  const auto cols = static_cast<std::size_t>(state.range(0));
  const std::size_t rows = 64;
  tensor::Rng rng(10);
  tensor::Matrix logits(rows, cols), g;
  logits.fill_uniform(rng, -4, 4);
  std::vector<std::int32_t> labels(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    labels[r] = static_cast<std::int32_t>(rng.uniform_index(cols));
  }
  for (auto _ : state) {
    const float loss = nn::softmax_cross_entropy(logits, labels, g);
    benchmark::DoNotOptimize(loss);
    benchmark::DoNotOptimize(g.data());
  }
  // Items = logits processed per pass.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * cols));
}
BENCHMARK(BM_SoftmaxXent)->Arg(10)->Arg(2048);

void BM_MaskApply(benchmark::State& state) {
  nn::MlpModel model({.input = 784, .hidden = 256, .classes = 10});
  tensor::Rng rng(4);
  model.init_params(rng);
  const auto pattern = core::DropPattern::sample(
      model.store(), 0.5, core::eligible_all(), rng);
  for (auto _ : state) {
    pattern.apply_to_params(model.store());
    benchmark::DoNotOptimize(model.store().params().data());
  }
  // Items = parameters masked per pass.
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(model.store().params().size()));
}
BENCHMARK(BM_MaskApply);

// Whole train steps on the round benchmark's model shapes; arg = dropout
// percent. The pattern β is sampled once and applied to the parameters, so
// a nonzero arg trains the sub-model (Model::train_step with `kept`).
// Items = train steps.
template <typename Model>
void run_train_steps(benchmark::State& state, Model& model,
                     const data::Batch& batch, tensor::Rng& rng) {
  model.init_params(rng);
  const double p = static_cast<double>(state.range(0)) / 100.0;
  const auto pattern =
      core::DropPattern::sample(model.store(), p, core::eligible_all(), rng);
  pattern.apply_to_params(model.store());
  const std::span<const std::uint8_t> kept =
      p > 0.0 ? std::span<const std::uint8_t>(pattern.bits())
              : std::span<const std::uint8_t>();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.train_step(batch, kept));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_LstmLmTrainStep(benchmark::State& state) {
  // bench_round's train_lstm model: vocab 500, embed 48, 2 × 64 units,
  // batch 16 × 12 tokens.
  nn::LstmLmModel model({.vocab = 500, .embed = 48, .hidden = 64, .layers = 2});
  tensor::Rng rng(5);
  data::Batch batch;
  batch.batch = 16;
  batch.seq = 12;
  for (std::size_t i = 0; i < batch.batch * batch.seq; ++i) {
    batch.tokens.push_back(static_cast<std::int32_t>(rng.uniform_index(500)));
    batch.targets.push_back(static_cast<std::int32_t>(rng.uniform_index(500)));
  }
  run_train_steps(state, model, batch, rng);
}
BENCHMARK(BM_LstmLmTrainStep)->Arg(0)->Arg(50);

void BM_MlpTrainStep(benchmark::State& state) {
  // bench_round's train_mlp model: 784-128-10, batch 32.
  nn::MlpModel model({.input = 784, .hidden = 128, .classes = 10});
  tensor::Rng rng(6);
  data::Batch batch;
  batch.x = tensor::Matrix(32, 784);
  batch.x.fill_uniform(rng, 0, 1);
  for (std::size_t i = 0; i < 32; ++i) {
    batch.targets.push_back(static_cast<std::int32_t>(rng.uniform_index(10)));
  }
  run_train_steps(state, model, batch, rng);
}
BENCHMARK(BM_MlpTrainStep)->Arg(0)->Arg(20);

// One posterior draw θ ~ N(U, s̃²I) over a round benchmark store (the
// certified vector sampler). `sd` < 0 takes the workload's own s̃: eq. 13
// at round 1 for its shard size and V, as FedBiadStrategy computes it.
// Items = coordinates drawn.
template <typename Model, typename Config>
void run_sample_gaussian(benchmark::State& state, const Config& cfg,
                         double dropout, std::size_t samples,
                         std::size_t local_iterations, double sd) {
  Model model(cfg);
  tensor::Rng rng(7);
  model.init_params(rng);
  const nn::ParameterStore& store = model.store();
  const double s2 =
      sd >= 0.0 ? sd * sd
                : core::FedBiadStrategy(core::FedBiadConfig{
                                            .dropout_rate = dropout})
                      .effective_posterior_variance(store, 1, samples,
                                                    local_iterations);
  const std::vector<float> u(store.params().begin(), store.params().end());
  std::vector<float> theta(u.size());
  for (auto _ : state) {
    bayes::sample_gaussian(u, s2, rng, theta);
    benchmark::DoNotOptimize(theta.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(u.size()));
}

// bench_round's train_mlp store (101,770 floats; s̃ ≈ 1.9e-10) and
// train_lstm store (118,452 floats; s̃ ≈ 2.4e-19), each also at s̃ = 1e-2.
void BM_SampleGaussian(benchmark::State& state, bool lstm, double sd) {
  if (lstm) {
    run_sample_gaussian<nn::LstmLmModel>(
        state, nn::LstmLmConfig{.vocab = 500, .embed = 48, .hidden = 64,
                                .layers = 2},
        0.5, 35, 15, sd);
  } else {
    run_sample_gaussian<nn::MlpModel>(
        state, nn::MlpConfig{.input = 784, .hidden = 128, .classes = 10}, 0.2,
        4000 / 60, 20, sd);
  }
}
BENCHMARK_CAPTURE(BM_SampleGaussian, mlp, false, -1.0);
BENCHMARK_CAPTURE(BM_SampleGaussian, mlp_sd1e-2, false, 1e-2);
BENCHMARK_CAPTURE(BM_SampleGaussian, lstm, true, -1.0);
BENCHMARK_CAPTURE(BM_SampleGaussian, lstm_sd1e-2, true, 1e-2);

// The MLP workloads' dataset synthesis: mnist_like, 4000 train + 800 test
// samples (bench_round's set-up). Items = samples.
void BM_MakeImageDatasets(benchmark::State& state) {
  auto cfg = data::ImageSynthConfig::mnist_like(42);
  cfg.train_samples = 4000;
  cfg.test_samples = 800;
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::make_image_datasets(cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4800);
}
BENCHMARK(BM_MakeImageDatasets);

// One SGD step (certified clip norm + sgd_axpy) on the train_mlp store with
// its optimizer settings; arg = dropout percent. A nonzero arg steps only
// the kept rows of a sampled pattern, as FedBIAD's clients do. Items = steps.
void BM_SgdStep(benchmark::State& state) {
  nn::MlpModel model({.input = 784, .hidden = 128, .classes = 10});
  tensor::Rng rng(8);
  model.init_params(rng);
  const double p = static_cast<double>(state.range(0)) / 100.0;
  const auto pattern =
      core::DropPattern::sample(model.store(), p, core::eligible_all(), rng);
  pattern.apply_to_params(model.store());
  for (float& g : model.store().grads()) {
    g = static_cast<float>(rng.uniform(-1e-2, 1e-2));
  }
  const std::span<const std::uint8_t> kept =
      p > 0.0 ? std::span<const std::uint8_t>(pattern.bits())
              : std::span<const std::uint8_t>();
  const nn::SgdConfig cfg{.lr = 0.1F, .weight_decay = 1e-4F, .clip_norm = 5.0F};
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::sgd_step(model.store(), cfg, kept));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SgdStep)->Arg(0)->Arg(20);

void BM_DgcCompress(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Rng rng(5);
  std::vector<float> update(n);
  for (auto& v : update) v = static_cast<float>(rng.normal(0, 1));
  compress::DgcCompressor dgc({.sparsity = 0.001});
  compress::CompressorState st;
  for (auto _ : state) {
    auto sparse = dgc.compress(update, {}, st);
    benchmark::DoNotOptimize(sparse.values.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DgcCompress)->Arg(100000)->Arg(1000000);

void BM_SignSgdCompress(benchmark::State& state) {
  tensor::Rng rng(6);
  std::vector<float> update(1000000);
  for (auto& v : update) v = static_cast<float>(rng.normal(0, 1));
  compress::SignSgdCompressor sgn;
  compress::CompressorState st;
  for (auto _ : state) {
    auto sparse = sgn.compress(update, {}, st);
    benchmark::DoNotOptimize(sparse.values.data());
  }
  // Items = update coordinates compressed per pass.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(update.size()));
}
BENCHMARK(BM_SignSgdCompress);

// The wire-path benches cover the new per-client serialization work on both
// ends of the uplink: the client-side §IV-B row-masked encode, the server's
// compact decode that precedes aggregation, and the delta-varint sparse
// encode used by the compressed paths. Items = model coordinates processed.
void BM_EncodeRowMasked(benchmark::State& state) {
  nn::MlpModel model({.input = 784, .hidden = 256, .classes = 10});
  tensor::Rng rng(11);
  model.init_params(rng);
  const auto& store = model.store();
  const auto pattern = core::DropPattern::sample(
      store, 0.5, core::eligible_all(), rng);
  for (auto _ : state) {
    auto payload = wire::encode_row_masked(store, pattern.bits(),
                                           store.params());
    benchmark::DoNotOptimize(payload.bytes.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(store.size()));
}
BENCHMARK(BM_EncodeRowMasked);

void BM_DecodeRowMasked(benchmark::State& state) {
  nn::MlpModel model({.input = 784, .hidden = 256, .classes = 10});
  tensor::Rng rng(12);
  model.init_params(rng);
  const auto& store = model.store();
  const auto pattern = core::DropPattern::sample(
      store, 0.5, core::eligible_all(), rng);
  const auto payload =
      wire::encode_row_masked(store, pattern.bits(), store.params());
  for (auto _ : state) {
    auto decoded = wire::decode_update_compact(store, payload);
    benchmark::DoNotOptimize(decoded.values().data.bytes());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(store.size()));
}
BENCHMARK(BM_DecodeRowMasked);

void BM_EncodeSparse(benchmark::State& state) {
  const std::size_t n = 1000000;
  const auto k = static_cast<std::size_t>(state.range(0));
  tensor::Rng rng(13);
  const auto sampled = rng.sample_without_replacement(n, k);
  std::vector<std::uint32_t> indices(sampled.begin(), sampled.end());
  std::sort(indices.begin(), indices.end());
  std::vector<float> values(k);
  for (auto& v : values) v = static_cast<float>(rng.normal(0, 1));
  for (auto _ : state) {
    auto payload = wire::encode_sparse_varint(indices, values);
    benchmark::DoNotOptimize(payload.bytes.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k));
}
BENCHMARK(BM_EncodeSparse)->Arg(1000)->Arg(100000);

// The server's actual ingest hot path: compact decode of a row-masked wire
// payload straight into the shard-parallel fused committer, never
// materializing a dense per-client vector. Items = model coordinates
// offered per pass (clients × n).
void BM_FusedIngest(benchmark::State& state) {
  nn::MlpModel model({.input = 784, .hidden = 256, .classes = 10});
  tensor::Rng rng(14);
  model.init_params(rng);
  const auto& store = model.store();
  const std::size_t clients = 10;
  std::vector<wire::Payload> payloads;
  for (std::size_t c = 0; c < clients; ++c) {
    const auto pattern = core::DropPattern::sample(
        store, 0.5, core::eligible_all(), rng);
    payloads.push_back(
        wire::encode_row_masked(store, pattern.bits(), store.params()));
  }
  std::vector<float> global(store.size(), 0.0F);
  fl::ShardedAccumulator sharded;
  for (auto _ : state) {
    std::vector<wire::CompactUpdate> compacts;
    compacts.reserve(clients);
    std::vector<fl::FusedUpdate> batch;
    for (const auto& p : payloads) {
      compacts.push_back(wire::decode_update_compact(store, p));
      batch.push_back({&compacts.back(), /*weight=*/100.0,
                       /*is_update=*/true});
    }
    sharded.aggregate(global, batch,
                      fl::AggregationRule::kPerCoordinateNormalized);
    benchmark::DoNotOptimize(global.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(store.size() * clients));
}
BENCHMARK(BM_FusedIngest);

// The staleness merge of the async modes on the MNIST MLP's 101,770
// coordinates: K dense parameter uploads with staleness-damped weights (K =
// 1 is FedAsync's commit, K = 4 a FedBuff batch). Iterations alternate
// between two upload sets so the global never settles onto one of them.
// Items = coordinates merged per pass (K × n).
void BM_FusedMerge(benchmark::State& state) {
  nn::MlpModel model({.input = 784, .hidden = 128, .classes = 10});
  const std::size_t n = model.store().size();
  const auto k = static_cast<std::size_t>(state.range(0));
  tensor::Rng rng(29);
  std::vector<float> global(n);
  for (auto& g : global) g = static_cast<float>(rng.normal(0, 0.1));
  std::vector<wire::CompactUpdate> compacts;
  for (std::size_t c = 0; c < 2 * k; ++c) {
    std::vector<float> values(n);
    for (auto& v : values) v = static_cast<float>(rng.normal(0, 0.1));
    compacts.push_back(wire::decode_update_compact(
        model.store(), wire::encode_dense_f32(values)));
  }
  std::vector<fl::FusedUpdate> batches[2];
  for (std::size_t c = 0; c < 2 * k; ++c) {
    const double staleness = static_cast<double>(c % k);
    batches[c / k].push_back({&compacts[c],
                              60.0 * std::pow(1.0 + staleness, -0.5),
                              /*is_update=*/false});
  }
  fl::ShardedAccumulator sharded;
  std::size_t pass = 0;
  for (auto _ : state) {
    sharded.merge(global, batches[pass++ & 1], 0.6);
    benchmark::DoNotOptimize(global.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * k));
}
BENCHMARK(BM_FusedMerge)->Arg(1)->Arg(4);

// The panel half of the staleness merge, which no bench_round workload
// runs: K FedBIAD row-masked parameter uploads at p = 0.5 (bitmap compact
// form) on the same 101,770-coordinate MLP, staleness-damped as in
// BM_FusedMerge. Items = coordinates offered per pass (K × n).
void BM_FusedMergeRowMasked(benchmark::State& state) {
  nn::MlpModel model({.input = 784, .hidden = 128, .classes = 10});
  const auto& store = model.store();
  const std::size_t n = store.size();
  const auto k = static_cast<std::size_t>(state.range(0));
  tensor::Rng rng(31);
  std::vector<float> global(n);
  for (auto& g : global) g = static_cast<float>(rng.normal(0, 0.1));
  std::vector<wire::CompactUpdate> compacts;
  for (std::size_t c = 0; c < 2 * k; ++c) {
    std::vector<float> values(n);
    for (auto& v : values) v = static_cast<float>(rng.normal(0, 0.1));
    const auto pattern =
        core::DropPattern::sample(store, 0.5, core::eligible_all(), rng);
    compacts.push_back(wire::decode_update_compact(
        store, wire::encode_row_masked(store, pattern.bits(), values)));
  }
  std::vector<fl::FusedUpdate> batches[2];
  for (std::size_t c = 0; c < 2 * k; ++c) {
    const double staleness = static_cast<double>(c % k);
    batches[c / k].push_back({&compacts[c],
                              60.0 * std::pow(1.0 + staleness, -0.5),
                              /*is_update=*/false});
  }
  fl::ShardedAccumulator sharded;
  std::size_t pass = 0;
  for (auto _ : state) {
    sharded.merge(global, batches[pass++ & 1], 0.6);
    benchmark::DoNotOptimize(global.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * k));
}
BENCHMARK(BM_FusedMergeRowMasked)->Arg(4);

// CRC32C over a frame-sized buffer, both implementations: the slice-by-8
// table walk every build carries, and the SSE4.2 dispatch the release
// build seals/verifies every upload with. Items = bytes checksummed.
void BM_Crc32cSw(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Rng rng(15);
  std::vector<std::uint8_t> data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::crc32c_sw(data));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Crc32cSw)->Arg(4096)->Arg(1 << 20);

void BM_Crc32cHw(benchmark::State& state) {
  if (!wire::crc32c_hw_available()) {
    state.SkipWithError("SSE4.2 CRC32 not compiled in (portable build)");
    return;
  }
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Rng rng(16);
  std::vector<std::uint8_t> data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::crc32c(data));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Crc32cHw)->Arg(4096)->Arg(1 << 20);

// One Dispatch queued the way the epoll server sends it: the head (five
// u64 fields and the varint length) encoded per dispatch, the broadcast's
// CRC32C cached per model version, the envelope built around them, and the
// frame pushed onto a session's send queue — header and head copied, the
// broadcast shared by reference — then marked written. The argument is the
// broadcast size (407,084 B is the MNIST MLP's, 101,770 floats); 0 times
// the framing alone. Items = wire bytes.
void BM_FrameDispatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Rng rng(19);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  const std::uint32_t broadcast_crc = wire::crc32c(bytes);
  const wire::SharedBytes broadcast(std::move(bytes));
  transport::DispatchMsg msg{.dispatch_index = 1,
                             .round = 1,
                             .slot = 0,
                             .model_version = 0,
                             .rng_stream = 1,
                             .broadcast = {}};
  transport::SendQueue queue;
  std::size_t wire = 0;
  for (auto _ : state) {
    ++msg.dispatch_index;
    queue.push(transport::FrameType::kDispatch,
               transport::encode_dispatch_head(msg, n), broadcast,
               broadcast_crc);
    wire = queue.bytes();
    benchmark::DoNotOptimize(wire);
    queue.consume(wire);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire));
}
BENCHMARK(BM_FrameDispatch)->Arg(0)->Arg(407084);

// Delivers `wire` to `parser` the way the TCP backends receive it: reads of
// at most 64 KiB straight into prepare()'s room, the memcpy standing in for
// recv().
void receive(transport::FrameParser& parser,
             std::span<const std::uint8_t> wire) {
  constexpr std::size_t kRead = 64 * 1024;
  for (std::size_t at = 0; at < wire.size();) {
    const std::span<std::uint8_t> room = parser.prepare();
    const std::size_t n = std::min({room.size(), kRead, wire.size() - at});
    std::memcpy(room.data(), wire.data() + at, n);
    parser.commit(n);
    at += n;
  }
}

// The receiving side of that frame: received as the TCP backends receive
// it, CRC-verified, and handed out as a FrameBody that slices the parser's
// storage. Items = wire bytes.
void BM_FrameParse(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Rng rng(23);
  std::vector<std::uint8_t> broadcast(n);
  for (auto& b : broadcast) {
    b = static_cast<std::uint8_t>(rng.uniform_index(256));
  }
  const transport::DispatchMsg msg{.dispatch_index = 1,
                                   .round = 1,
                                   .slot = 0,
                                   .model_version = 0,
                                   .rng_stream = 1,
                                   .broadcast = std::move(broadcast)};
  std::vector<std::uint8_t> wire;
  transport::append_frame(wire, transport::FrameType::kDispatch,
                          transport::encode(msg));
  transport::FrameParser parser(transport::TransportLimits{}.max_frame_bytes);
  transport::Frame frame;
  for (auto _ : state) {
    receive(parser, wire);
    if (parser.next(frame) != transport::FrameParser::Status::kFrame) {
      state.SkipWithError("frame did not parse");
      break;
    }
    benchmark::DoNotOptimize(frame.body.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_FrameParse)->Arg(407084);

// The server's whole receive path for one upload, from wire bytes to the
// compact view the committer reads: receive() into the parser, then the
// server runtime's own receive step (transport::upload_job, which derives
// the seal's CRC from the frame's, and DecodeJob::decode, whose compact
// view borrows its values from the frame). The argument is the
// sealed payload size on the MNIST MLP (101,770 floats): 324,430 B is
// FedBIAD's row-masked upload at p = 0.2 (ingest_replay's), 407,084 B the
// dense one (tcp_async's). Items = wire bytes.
void BM_ReceiveUpload(benchmark::State& state) {
  nn::MlpModel model({.input = 784, .hidden = 128, .classes = 10});
  tensor::Rng rng(29);
  model.init_params(rng);
  const auto& store = model.store();
  const bool dense = static_cast<std::uint64_t>(state.range(0)) ==
                     wire::framed_bytes(wire::dense_f32_bytes(store.size()));
  wire::Payload payload =
      dense ? wire::encode_dense_f32(store.params())
            : wire::encode_row_masked(
                  store,
                  core::DropPattern::sample(store, 0.2, core::eligible_all(),
                                            rng)
                      .bits(),
                  store.params());
  wire::seal_payload(payload);
  if (payload.size() != static_cast<std::uint64_t>(state.range(0))) {
    state.SkipWithError("no MLP upload has that size");
    return;
  }
  transport::UploadMsg msg;
  msg.payload = payload.bytes;
  std::vector<std::uint8_t> wire;
  transport::append_frame(wire, transport::FrameType::kUpload,
                          transport::encode(msg));
  transport::FrameParser parser(transport::TransportLimits{}.max_frame_bytes);
  transport::Frame frame;
  const baselines::FedAvgStrategy strategy;
  for (auto _ : state) {
    receive(parser, wire);
    if (parser.next(frame) != transport::FrameParser::Status::kFrame) {
      state.SkipWithError("frame did not parse");
      break;
    }
    const auto job = transport::upload_job(frame, 1, 0, payload.kind,
                                           payload.aux, 0.0);
    job->decode(strategy, store);
    if (!job->status.ok) {
      state.SkipWithError(job->status.error.c_str());
      break;
    }
    benchmark::DoNotOptimize(job->outcome.compact.values().data.bytes());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_ReceiveUpload)->Arg(324430)->Arg(407084);

// Collects every run for the FEDBIAD_JSON emitter and forwards each call to
// the display reporter --benchmark_format selects (console, json or csv).
// Create it after benchmark::Initialize, which parses that flag.
class MicroJsonReporter : public benchmark::BenchmarkReporter {
 public:
  struct Entry {
    std::string kernel;
    double ns_per_iter = 0.0;
    double items_per_second = 0.0;  // 0 when the bench reports none
    std::int64_t iterations = 0;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      Entry e;
      e.kernel = run.benchmark_name();
      e.iterations = run.iterations;
      if (run.iterations > 0) {
        e.ns_per_iter = run.GetAdjustedRealTime();
      }
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) e.items_per_second = it->second.value;
      entries_.push_back(std::move(e));
    }
    display_->ReportRuns(runs);
  }

  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }

  void Finalize() override { display_->Finalize(); }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:
  // Owned by the library.
  benchmark::BenchmarkReporter* display_ =
      benchmark::CreateDefaultDisplayReporter();
  std::vector<Entry> entries_;
};

[[nodiscard]] bool write_json(
    const std::string& path,
    const std::vector<MicroJsonReporter::Entry>& entries) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"bench\": \"micro\",\n  \"schema_version\": 1,\n"
      << "  \"scale\": 1.0,\n  \"seed\": 0,\n  \"series\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    out << "    {\"kernel\": \"" << e.kernel << "\", \"ns_per_iter\": "
        << e.ns_per_iter << ", \"items_per_second\": " << e.items_per_second
        << ", \"iterations\": " << e.iterations << "}"
        << (i + 1 == entries.size() ? "\n" : ",\n");
  }
  out << "  ]\n}\n";
  out.flush();
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  MicroJsonReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (const char* path = std::getenv("FEDBIAD_JSON")) {
    if (!write_json(path, reporter.entries())) {
      std::fprintf(stderr, "bench_micro: failed to write FEDBIAD_JSON=%s\n",
                   path);
      return 1;
    }
  }
  return 0;
}
