// Population-scale bench: the engine over a registered population far
// larger than the in-flight set, plus the fused decode→aggregate kernel in
// isolation.
//
// Engine grid: registered clients {100k, 1M} × in-flight {1k, 10k} on the
// event-driven buffered-K engine (FedAvg, dense-f32 uploads, heterogeneous
// fleet). Only ~2× the in-flight count of clients hold data — the
// cross-device shape — so the dormant registered majority must cost the
// server nothing: the reported peak RSS should move with the in-flight
// column, not the registered row, and peak materialized ClientState must
// equal the in-flight concurrency exactly.
//
// Kernel section: ShardedAccumulator::aggregate / ::merge over a synthetic
// mixed-form batch (dense / bitmap / sparse compact updates), reported as
// coordinate contributions per second — the number BENCH_scale.json pins
// against the dense-path baseline (~1.04G/s on this container).
//
//   $ ./build/bench/bench_scale            # full grid
//   $ ./build/bench/bench_scale --smoke    # one small cell + short kernel (CI)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "fl/client_registry.hpp"
#include "fl/fused_aggregate.hpp"
#include "wire/compact.hpp"

namespace {

using fedbiad::bench::env_scale;
using fedbiad::bench::env_threads;

/// Reads one kB-valued field ("VmHWM", "VmRSS") from /proc/self/status.
/// Returns 0 off Linux — the JSON then simply carries no RSS evidence.
std::uint64_t status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtoull(line.c_str() + std::strlen(key) + 1, nullptr, 10);
    }
  }
  return 0;
}

struct KernelResult {
  std::size_t coords = 0;
  std::size_t updates = 0;
  std::size_t reps = 0;
  std::uint64_t contributions_per_call = 0;
  double aggregate_contribs_per_second = 0.0;
  double merge_contribs_per_second = 0.0;
};

/// Mixed-form synthetic batch: half dense, a quarter bitmap (every other
/// 128-coordinate row kept — the contiguous-run shape row-masked uploads
/// produce), a quarter sparse (1 in 16) — the compact forms a real commit
/// interleaves.
struct KernelBatch {
  std::vector<fedbiad::wire::CompactUpdate> storage;
  std::vector<fedbiad::fl::FusedUpdate> fused;
  std::uint64_t contributions = 0;
};

KernelBatch make_kernel_batch(std::size_t coords, std::size_t updates) {
  using fedbiad::wire::CompactUpdate;
  KernelBatch b;
  fedbiad::tensor::Rng rng(4242);
  for (std::size_t u = 0; u < updates; ++u) {
    CompactUpdate cu;
    cu.coords = coords;
    if (u % 4 < 2) {
      cu.form = CompactUpdate::Form::kDense;
      cu.values.resize(coords);
      for (auto& v : cu.values) v = static_cast<float>(rng.normal());
    } else if (u % 4 == 2) {
      cu.form = CompactUpdate::Form::kBitmap;
      cu.present = fedbiad::wire::Bitset(coords);
      for (std::size_t row = 0; row < coords; row += 256) {
        cu.present.set_range(row, std::min(row + 128, coords));
      }
      cu.values.resize(cu.present.count());
      for (auto& v : cu.values) v = static_cast<float>(rng.normal());
      cu.build_rank_directory();
    } else {
      cu.form = CompactUpdate::Form::kSparse;
      for (std::size_t i = 0; i < coords; i += 16) {
        cu.indices.push_back(static_cast<std::uint32_t>(i));
      }
      cu.values.resize(cu.indices.size());
      for (auto& v : cu.values) v = static_cast<float>(rng.normal());
    }
    b.contributions += cu.transmitted();
    b.storage.push_back(std::move(cu));
  }
  for (std::size_t u = 0; u < updates; ++u) {
    b.fused.push_back({&b.storage[u], static_cast<double>(8 + u % 5),
                       /*is_update=*/true});
  }
  return b;
}

KernelResult run_kernel(std::size_t coords, std::size_t updates,
                        std::size_t reps) {
  using clock = std::chrono::steady_clock;
  KernelResult r;
  r.coords = coords;
  r.updates = updates;
  r.reps = reps;
  const KernelBatch batch = make_kernel_batch(coords, updates);
  r.contributions_per_call = batch.contributions;
  std::vector<float> global(coords, 0.1F);
  fedbiad::fl::ShardedAccumulator acc;
  // Warm-up materializes the accumulator panels outside the timed region.
  acc.aggregate(global, batch.fused,
                fedbiad::fl::AggregationRule::kPerCoordinateNormalized);
  const auto t0 = clock::now();
  for (std::size_t i = 0; i < reps; ++i) {
    acc.aggregate(global, batch.fused,
                  fedbiad::fl::AggregationRule::kPerCoordinateNormalized);
  }
  const double agg_s = std::chrono::duration<double>(clock::now() - t0).count();
  const auto t1 = clock::now();
  for (std::size_t i = 0; i < reps; ++i) {
    acc.merge(global, batch.fused, 0.6);
  }
  const double merge_s =
      std::chrono::duration<double>(clock::now() - t1).count();
  const double total =
      static_cast<double>(batch.contributions) * static_cast<double>(reps);
  r.aggregate_contribs_per_second = total / std::max(agg_s, 1e-9);
  r.merge_contribs_per_second = total / std::max(merge_s, 1e-9);
  return r;
}

struct EngineCell {
  std::size_t registered = 0;
  std::size_t in_flight = 0;
  std::size_t commits = 0;
  std::size_t dispatched = 0;
  double rounds_per_second = 0.0;
  double coord_contributions_per_second = 0.0;
  std::size_t peak_in_flight_states = 0;
  std::size_t materialized_states = 0;
  std::uint64_t vm_hwm_kb = 0;   ///< process high-water mark after the cell
  std::uint64_t vm_rss_kb = 0;   ///< resident set right after the cell
};

EngineCell run_engine_cell(std::size_t registered, std::size_t in_flight,
                           std::size_t rounds) {
  using namespace fedbiad;
  using clock = std::chrono::steady_clock;
  EngineCell cell;
  cell.registered = registered;
  cell.in_flight = in_flight;

  fl::SimulationConfig sim;
  sim.rounds = rounds;
  sim.selection_fraction =
      static_cast<double>(in_flight) / static_cast<double>(registered);
  sim.train.local_iterations = 1;
  sim.train.batch_size = 4;
  sim.train.sgd = {.lr = 0.1F, .weight_decay = 0.0F, .clip_norm = 0.0F};
  sim.seed = 42;
  sim.threads = env_threads();
  sim.eval_every = rounds + 1;  // throughput bench: evaluate final commit only

  // Only 2× the in-flight count of clients hold data (one sample each):
  // the dormant registered majority is exactly what must stay free.
  auto img_cfg = data::ImageSynthConfig::mnist_like(3);
  img_cfg.train_samples = 2 * in_flight;
  img_cfg.test_samples = 16;
  img_cfg.height = 8;
  img_cfg.width = 8;
  const auto ds = data::make_image_datasets(img_cfg);
  tensor::Rng prng(5);
  data::Partition partition =
      data::partition_iid(img_cfg.train_samples, registered, prng);
  const nn::MlpConfig mcfg{.input = 64, .hidden = 16, .classes = 10};
  nn::ModelFactory factory = [mcfg] {
    return std::make_unique<nn::MlpModel>(mcfg);
  };
  const std::size_t model_coords = nn::MlpModel(mcfg).store().size();

  fl::AsyncSimulationConfig cfg;
  cfg.base = sim;
  cfg.mode = fl::AggregationMode::kBufferedK;
  cfg.buffer_size = std::max<std::size_t>(1, in_flight / 2);
  cfg.heterogeneity = bench::make_heterogeneity();
  fl::AsyncSimulation engine(cfg, factory, ds.train, ds.test,
                             std::move(partition),
                             std::make_shared<baselines::FedAvgStrategy>());
  const auto t0 = clock::now();
  const auto result = engine.run();
  const double wall = std::chrono::duration<double>(clock::now() - t0).count();

  cell.commits = result.rounds.size();
  cell.dispatched = result.total_dispatched;
  cell.rounds_per_second =
      static_cast<double>(cell.commits) / std::max(wall, 1e-9);
  // FedAvg uploads are dense: every committed update contributes all model
  // coordinates, so the end-to-end contribution count is exact.
  cell.coord_contributions_per_second =
      static_cast<double>(result.total_committed) *
      static_cast<double>(model_coords) / std::max(wall, 1e-9);
  cell.peak_in_flight_states = result.peak_in_flight_states;
  cell.materialized_states = result.materialized_states;
  cell.vm_hwm_kb = status_kb("VmHWM");
  cell.vm_rss_kb = status_kb("VmRSS");
  return cell;
}

void write_json(const std::string& path, const KernelResult& kernel,
                const std::vector<EngineCell>& cells, double scale,
                std::size_t threads, bool smoke) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "bench_scale: cannot write %s\n", path.c_str());
    return;
  }
  auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  os << "{\n";
  os << "  \"bench\": \"scale\",\n";
  os << "  \"schema_version\": 1,\n";
  os << "  \"scale\": " << num(scale) << ",\n";
  os << "  \"seed\": 42,\n";
  os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  // Engine worker-thread count (FEDBIAD_THREADS; 0 = the CPUs in the
  // affinity mask). Block-owner partitioning keeps every number below
  // identical across thread counts — only the wall clock moves.
  os << "  \"threads\": " << threads << ",\n";
  os << "  \"kernel\": {\"coords\": " << kernel.coords
     << ", \"updates\": " << kernel.updates << ", \"reps\": " << kernel.reps
     << ",\n             \"contributions_per_call\": "
     << kernel.contributions_per_call
     << ",\n             \"aggregate_contribs_per_second\": "
     << num(kernel.aggregate_contribs_per_second)
     << ",\n             \"merge_contribs_per_second\": "
     << num(kernel.merge_contribs_per_second) << "},\n";
  os << "  \"series\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const EngineCell& c = cells[i];
    os << "    {\"registered\": " << c.registered
       << ", \"in_flight\": " << c.in_flight << ",\n";
    os << "     \"summary\": {\"commits\": " << c.commits
       << ", \"dispatched\": " << c.dispatched
       << ", \"rounds_per_second\": " << num(c.rounds_per_second) << ",\n";
    os << "      \"coord_contributions_per_second\": "
       << num(c.coord_contributions_per_second)
       << ", \"peak_in_flight_states\": " << c.peak_in_flight_states
       << ", \"materialized_states\": " << c.materialized_states << ",\n";
    os << "      \"vm_hwm_kb\": " << c.vm_hwm_kb
       << ", \"vm_rss_kb\": " << c.vm_rss_kb << "}}"
       << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::printf("=== Fused decode→aggregate kernel ===\n");
  const KernelResult kernel =
      smoke ? run_kernel(std::size_t{1} << 18, 32, 4)
            : run_kernel(std::size_t{1} << 20, 32, 40);
  std::printf(
      "coords=%zu updates=%zu reps=%zu contribs/call=%llu\n"
      "aggregate: %8.3f G contribs/s\n"
      "merge:     %8.3f G contribs/s\n\n",
      kernel.coords, kernel.updates, kernel.reps,
      static_cast<unsigned long long>(kernel.contributions_per_call),
      1e-9 * kernel.aggregate_contribs_per_second,
      1e-9 * kernel.merge_contribs_per_second);

  std::printf("=== Engine: registered × in-flight grid (buffered-K) ===\n");
  std::printf("%-11s %-10s %-8s %-10s %-9s %-11s %-10s %-10s\n", "registered",
              "in_flight", "commits", "rounds/s", "Mcc/s", "peak_state",
              "VmHWM_MB", "VmRSS_MB");
  std::vector<EngineCell> cells;
  struct GridPoint {
    std::size_t registered;
    std::size_t in_flight;
    std::size_t rounds;
  };
  // Ascending memory order, so each cell's VmHWM reading is its own: a
  // registered-population jump at fixed in-flight should barely move it,
  // the in-flight jump is what buys payload buffers.
  const std::vector<GridPoint> grid =
      smoke ? std::vector<GridPoint>{{100'000, 1'000, 2}}
            : std::vector<GridPoint>{{100'000, 1'000, 4},
                                     {1'000'000, 1'000, 4},
                                     {100'000, 10'000, 4},
                                     {1'000'000, 10'000, 4}};
  for (const GridPoint& g : grid) {
    const EngineCell c = run_engine_cell(g.registered, g.in_flight, g.rounds);
    cells.push_back(c);
    std::printf("%-11zu %-10zu %-8zu %-10.3f %-9.1f %-11zu %-10.1f %-10.1f\n",
                c.registered, c.in_flight, c.commits, c.rounds_per_second,
                1e-6 * c.coord_contributions_per_second,
                c.peak_in_flight_states,
                static_cast<double>(c.vm_hwm_kb) / 1024.0,
                static_cast<double>(c.vm_rss_kb) / 1024.0);
    std::fflush(stdout);
  }

  if (const char* path = std::getenv("FEDBIAD_JSON")) {
    write_json(path, kernel, cells, env_scale(), env_threads(), smoke);
    std::printf("wrote %s (%zu cells)\n", path, cells.size());
  }
  return 0;
}
