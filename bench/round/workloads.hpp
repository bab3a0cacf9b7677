// The four bench_round workloads, written out in full.
//
// The model, data, and training numbers are the Table-I MNIST MLP and PTB
// LSTM rows of bench/common.hpp::make_workload, copied here on purpose: the
// paper benches share that harness and may retune it, but every number in
// this file is part of the benchmark's definition. Editing one changes what
// bench_round measures and invalidates every stored result, so a change that
// claims a speed-up must leave this file alone. Where a number differs from
// make_workload's (clients per round, thread counts), it was cut so that a
// run fits on one CPU (see pin_to_one_cpu in trace.hpp).
//
// Every workload does a fixed amount of work: an episode is a fixed number of
// commits, and a run is a fixed number of episodes (see WorkloadSpec::
// episode_s), so a faster build does the same work in less time.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace fedbiad::bench_round {

enum class WorkloadId { kTrainMlp, kTrainLstm, kIngestReplay, kTcpAsync };

/// Synthetic MNIST-like data and the Table-I MLP (make_workload, kMnist).
struct MnistSpec {
  static constexpr std::size_t kTrainSamples = 4000;
  static constexpr std::size_t kTestSamples = 800;
  static constexpr std::size_t kClients = 60;
  static constexpr double kSelection = 0.1;  // 6 clients per round
  static constexpr std::size_t kShardsPerClient = 2;
  static constexpr std::size_t kInput = 784;
  static constexpr std::size_t kHidden = 128;
  static constexpr std::size_t kClasses = 10;
  static constexpr double kDropout = 0.2;  // paper: p = 0.2 on MNIST
  static constexpr std::size_t kLocalIterations = 20;  // V
  static constexpr std::size_t kBatch = 32;            // B
  static constexpr float kLr = 0.1F;
  static constexpr float kWeightDecay = 1e-4F;
  static constexpr float kClipNorm = 5.0F;
  static constexpr std::size_t kTopk = 1;
  static constexpr std::size_t kStageBoundary = 27;  // Rb = 30 rounds · 55/60
};

/// Synthetic PTB-like corpus and the LSTM LM (make_workload, kPtb).
struct PtbSpec {
  static constexpr std::size_t kVocab = 500;
  static constexpr std::size_t kTrainSequences = 3500;
  static constexpr std::size_t kTestSequences = 400;
  static constexpr double kStructureProb = 0.5;
  static constexpr std::size_t kClients = 100;
  // 2 clients per round (make_workload: 10), so that a commit takes about
  // as long on one CPU as train_mlp's.
  static constexpr double kSelection = 0.02;
  static constexpr std::size_t kEmbed = 48;
  static constexpr std::size_t kHidden = 64;
  static constexpr std::size_t kLayers = 2;
  static constexpr double kDropout = 0.5;
  static constexpr std::size_t kLocalIterations = 15;
  static constexpr std::size_t kBatch = 16;
  static constexpr float kLr = 1.0F;
  static constexpr float kWeightDecay = 0.0F;
  static constexpr float kClipNorm = 5.0F;
  static constexpr std::size_t kTopk = 3;  // next-word top-3 accuracy
  static constexpr std::size_t kStageBoundary = 14;  // Rb = 16 rounds · 55/60
};

inline constexpr std::size_t kFedBiadTau = 3;
inline constexpr std::size_t kEvalBatch = 64;

/// The seed a run uses without --seed; the accuracy reference is for it.
inline constexpr std::uint64_t kDefaultSeed = 42;

/// Tolerance on the final accuracy against its reference (absolute).
inline constexpr double kFinalAccTolerance = 0.005;

struct WorkloadSpec {
  WorkloadId id;
  std::string_view name;
  /// Why the workload exists: which layers it stresses and which it skips.
  std::string_view why;
  std::size_t commits;         ///< commits per episode
  std::size_t smoke_commits;   ///< --smoke: warm-up plus a few
  std::size_t warmup_commits;  ///< dropped from rates and percentiles
  std::size_t eval_every;
  /// Seconds of one episode, set-up included, on the reference machine (one
  /// CPU of a 4-vCPU KVM VM, by the benchmark's clock). A run of --seconds S
  /// does max(1, round(S / episode_s)) episodes: a fixed amount of work for
  /// a given S, whatever the machine's speed.
  double episode_s;
  /// Exact uplink bytes of every committed upload: the paper's headline
  /// count. Uploads on the transport workloads carry the 4-byte CRC32C seal.
  std::uint64_t upload_bytes;
  /// Final accuracy of a full episode at kDefaultSeed (top-1 MLP, top-3
  /// LSTM); a run at that seed must land within kFinalAccTolerance of it.
  /// 0 = not checked (the replay workloads commit canned uploads).
  double ref_final_acc;
  /// Floor on the final accuracy of a full episode, at every seed, well
  /// below the lowest of the seeds measured (README.md).
  double min_final_acc;
  /// Whether the final parameters are a function of the seed alone.
  bool deterministic;
};

// Evaluation cadence: every commit on the MLP; every 3rd on the LSTM and
// every 5th on ingest_replay, so that p50 falls among commits without an
// evaluation and p90 among commits with one (make_workload's every-2nd,
// and a 10% share, would put a percentile on the boundary between the two
// and make it jump from run to run).
inline constexpr std::array<WorkloadSpec, 4> kWorkloads{{
    {WorkloadId::kTrainMlp, "train_mlp",
     "in-process barrier FedBIAD on the MNIST MLP: client Dense training "
     "dominates; no transport",
     130, 20, 10, 1, 15.0, 324426, 0.8138, 0.6, true},
    {WorkloadId::kTrainLstm, "train_lstm",
     "same engine on the PTB LSTM: LSTM, embedding and 500-way softmax "
     "kernels with recurrent-row dropping; no transport",
     170, 13, 10, 3, 23.0, 237045, 0.1533, 0.04, true},
    {WorkloadId::kIngestReplay, "ingest_replay",
     "loopback server ingest of canned FedBIAD uploads: frame parse, CRC, "
     "bitmap decode, barrier aggregate; no training",
     300, 20, 10, 5, 12.0, 324430, 0.0, 0.0, true},
    {WorkloadId::kTcpAsync, "tcp_async",
     "epoll TCP FedAsync, 4 saturating closed-loop clients, 1 decode "
     "worker: sockets, dense decode, staleness merge; no training",
     6000, 150, 100, 50, 17.0, 407084, 0.0, 0.0, false},
}};

/// Set-up-only episodes (one commit each) a run starts with; setup_s is the
/// median of their set-up times.
inline constexpr std::size_t kSetupRepeats = 9;

/// Calibration (calibration.hpp): CPU seconds between two calibrations in an
/// episode; how many calibrations around a commit interval give its
/// slowdown (about half a second of CPU time); and the typical kernel times
/// on the reference machine.
inline constexpr double kCalibrateEveryS = 0.1;
inline constexpr std::size_t kLocalCalibrations = 5;
inline constexpr double kCoreRefUs = 950.0;
inline constexpr double kMemoryRefUs = 860.0;

/// Engine threads for the training workloads: the process has one CPU.
inline constexpr std::size_t kTrainThreads = 1;

/// ingest_replay: 60 canned clients, half of them per barrier wave.
inline constexpr double kIngestSelection = 0.5;
inline constexpr std::size_t kIngestCheckpointEvery = 50;

/// tcp_async: 4 TCP sessions, all in flight, each on its own client thread
/// that blocks in poll and answers a Dispatch at once. One decode worker:
/// the pool's hand-off is measured, not parallel decoding, on one CPU.
inline constexpr std::size_t kTcpClients = 4;
inline constexpr std::size_t kTcpDecodeWorkers = 1;

[[nodiscard]] inline const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace fedbiad::bench_round
