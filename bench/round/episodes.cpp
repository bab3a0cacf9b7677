#include "episodes.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "baselines/fedavg.hpp"
#include "common/check.hpp"
#include "core/fedbiad_strategy.hpp"
#include "data/image_synth.hpp"
#include "data/partition.hpp"
#include "data/text_synth.hpp"
#include "fl/async_simulation.hpp"
#include "nn/lstm_lm_model.hpp"
#include "nn/mlp_model.hpp"
#include "transport/epoll.hpp"
#include "transport/loopback.hpp"
#include "transport/server_runtime.hpp"
#include "wire/crc32c.hpp"

namespace fedbiad::bench_round {

namespace {

/// An episode takes seconds; one that has not finished after this long is
/// stuck, and the run fails well inside its time limit.
constexpr double kEpisodeDeadlineS = 60.0;

/// Wall seconds, for the stall deadlines only: a stuck process uses no CPU,
/// so the benchmark's clock (now_s) would never reach them.
double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Independent 64-bit stream `tag` of the run seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t tag) {
  tensor::Rng rng = tensor::Rng(seed).split(tag);
  return rng.next_u64();
}

Job mnist_job(const RunConfig& rc) {
  Job j;
  auto img = data::ImageSynthConfig::mnist_like(derive(rc.seed, 1));
  img.train_samples = MnistSpec::kTrainSamples;
  img.test_samples = MnistSpec::kTestSamples;
  const data::ImageDatasets ds = data::make_image_datasets(img);
  j.train = ds.train;
  j.test = ds.test;
  tensor::Rng prng(derive(rc.seed, 2));
  j.partition = data::partition_shards(*ds.train, MnistSpec::kClients,
                                       MnistSpec::kShardsPerClient, prng);
  const nn::MlpConfig mcfg{.input = MnistSpec::kInput,
                           .hidden = MnistSpec::kHidden,
                           .classes = MnistSpec::kClasses};
  j.factory = [mcfg] { return std::make_unique<nn::MlpModel>(mcfg); };
  j.dropout = MnistSpec::kDropout;
  j.sim.selection_fraction = MnistSpec::kSelection;
  j.sim.train.local_iterations = MnistSpec::kLocalIterations;
  j.sim.train.batch_size = MnistSpec::kBatch;
  j.sim.train.topk = MnistSpec::kTopk;
  j.sim.train.sgd = {.lr = MnistSpec::kLr,
                     .weight_decay = MnistSpec::kWeightDecay,
                     .clip_norm = MnistSpec::kClipNorm};
  return j;
}

Job ptb_job(const RunConfig& rc) {
  Job j;
  auto cfg = data::TextSynthConfig::ptb_like(derive(rc.seed, 3));
  cfg.vocab = PtbSpec::kVocab;
  cfg.train_sequences = PtbSpec::kTrainSequences;
  cfg.test_sequences = PtbSpec::kTestSequences;
  cfg.structure_prob = PtbSpec::kStructureProb;
  data::TextDatasets ds = data::make_text_datasets_iid(cfg, PtbSpec::kClients);
  j.train = ds.train;
  j.test = ds.test;
  j.partition = std::move(ds.client_indices);
  const nn::LstmLmConfig mcfg{.vocab = PtbSpec::kVocab,
                              .embed = PtbSpec::kEmbed,
                              .hidden = PtbSpec::kHidden,
                              .layers = PtbSpec::kLayers};
  j.factory = [mcfg] { return std::make_unique<nn::LstmLmModel>(mcfg); };
  j.dropout = PtbSpec::kDropout;
  j.sim.selection_fraction = PtbSpec::kSelection;
  j.sim.train.local_iterations = PtbSpec::kLocalIterations;
  j.sim.train.batch_size = PtbSpec::kBatch;
  j.sim.train.topk = PtbSpec::kTopk;
  j.sim.train.sgd = {.lr = PtbSpec::kLr,
                     .weight_decay = PtbSpec::kWeightDecay,
                     .clip_norm = PtbSpec::kClipNorm};
  j.topk_metric = true;
  return j;
}

}  // namespace

Job make_job(const RunConfig& rc) {
  Job j = rc.spec->id == WorkloadId::kTrainLstm ? ptb_job(rc) : mnist_job(rc);
  j.sim.rounds = rc.commits;
  j.sim.eval_every = rc.spec->eval_every;
  j.sim.eval_batch_size = kEvalBatch;
  j.sim.seed = rc.seed;
  j.sim.threads = kTrainThreads;
  if (rc.spec->id == WorkloadId::kIngestReplay) {
    j.sim.selection_fraction = kIngestSelection;
  } else if (rc.spec->id == WorkloadId::kTcpAsync) {
    j.partition.resize(kTcpClients);
    j.sim.selection_fraction = 1.0;  // every session stays in flight
  }
  return j;
}

fl::StrategyPtr make_client_strategy(const RunConfig& rc) {
  switch (rc.spec->id) {
    case WorkloadId::kTrainLstm:
      return std::make_shared<core::FedBiadStrategy>(
          core::FedBiadConfig{.dropout_rate = PtbSpec::kDropout,
                              .tau = kFedBiadTau,
                              .stage_boundary = PtbSpec::kStageBoundary});
    case WorkloadId::kTcpAsync:
      return std::make_shared<baselines::FedAvgStrategy>();
    case WorkloadId::kTrainMlp:
    case WorkloadId::kIngestReplay:
      break;
  }
  return std::make_shared<core::FedBiadStrategy>(
      core::FedBiadConfig{.dropout_rate = MnistSpec::kDropout,
                          .tau = kFedBiadTau,
                          .stage_boundary = MnistSpec::kStageBoundary});
}

namespace {

/// The upload client 0 sends in round 1 against the server's initial model
/// (the engine's init and client rng streams), sealed as on the wire.
transport::UploadMsg capture_upload(const Job& j, fl::Strategy& strategy,
                                    std::uint64_t seed) {
  auto model = j.factory();
  tensor::Rng init = tensor::Rng(seed).split(0xF0F0);
  model->init_params(init);
  const std::vector<float> global(model->store().params().begin(),
                                  model->store().params().end());
  fl::ClientContext ctx{
      .client_id = 0,
      .round = 1,
      .model = *model,
      .global_params = global,
      .dataset = *j.train,
      .shard = j.partition[0],
      .settings = j.sim.train,
      .rng = tensor::Rng(seed).split(0x1000).split(1),
  };
  fl::ClientOutcome out = strategy.run_client(ctx);
  wire::seal_payload(out.payload);
  transport::UploadMsg msg;
  msg.samples = out.samples;
  msg.is_update = out.is_update ? 1 : 0;
  msg.mean_loss = out.mean_loss;
  msg.last_loss = out.last_loss;
  msg.payload = std::move(out.payload.bytes);
  return msg;
}

/// The (time, value) samples with time in (begin, end].
std::vector<double> within(const std::vector<std::pair<double, double>>& xs,
                           double begin, double end) {
  std::vector<double> out;
  for (const auto& [t, v] : xs) {
    if (t > begin && t <= end) out.push_back(v);
  }
  return out;
}

/// Commit clock, post-warm-up samples, ledger, byte check and final state
/// shared by every workload. `acks` holds (accept time, ms since the upload
/// was due).
void fill(EpisodeResult& ep, const RunConfig& rc,
          const fl::SimulationResult& r, const std::vector<double>& commits,
          const std::vector<std::pair<double, double>>& acks) {
  const std::size_t n = commits.size();
  const std::size_t w = rc.spec->warmup_commits;
  FEDBIAD_CHECK(n == r.rounds.size() && n == rc.commits,
                "episode committed an unexpected number of rounds");
  if (n > w) {
    ep.span_s = commits.back() - commits[w - 1];
    for (std::size_t i = w; i < n; ++i) {
      ep.commit_ms.push_back(1e3 * (commits[i] - commits[i - 1]));
      ep.uploads += static_cast<double>(r.rounds[i].participants);
    }
    ep.ack_ms = within(acks, commits[w - 1], commits.back());
  }
  for (const fl::RoundRecord& rec : r.rounds) {
    ep.uplink_bytes += rec.uplink_bytes_total;
    ep.bytes_exact =
        ep.bytes_exact && rec.uplink_bytes_max == rc.spec->upload_bytes &&
        rec.uplink_bytes_total == rec.participants * rc.spec->upload_bytes;
  }
  ep.dispatched = r.total_dispatched;
  ep.committed = r.total_committed;
  ep.abandoned = r.total_abandoned;
  ep.rejected = r.total_rejected;
  ep.buffered = r.final_buffered;
  ep.in_flight = r.final_in_flight;
  ep.params_crc = wire::crc32c(
      {reinterpret_cast<const std::uint8_t*>(r.final_params.data()),
       r.final_params.size() * sizeof(float)});
  ep.trace.commits = commits;
  ep.trace.server_tid = thread_index();
}

void fill_transport(EpisodeResult& ep,
                    const transport::TransportServerResult& r) {
  ep.decode_parked = r.decode_parked;
  ep.decode_shed = r.decode_shed;
  ep.backpressure_deferrals = r.backpressure_deferrals;
  ep.evicted = r.connections_evicted;
}

// ---------------------------------------------------------------- train_* --

EpisodeResult run_train(const RunConfig& rc, Tracer* tracer) {
  const double t0 = now_s();
  const Job j = make_job(rc);
  auto clocked =
      std::make_shared<ClockedStrategy>(make_client_strategy(rc), tracer);
  fl::AsyncSimulationConfig cfg;
  cfg.base = j.sim;
  cfg.mode = fl::AggregationMode::kBarrier;
  cfg.scenario_name = "bench_round";
  fl::AsyncSimulation engine(cfg, j.factory, j.train, j.test, j.partition,
                             clocked);
  const fl::SimulationResult r = engine.run();

  EpisodeResult ep;
  ep.setup_s = clocked->first_begin() - t0;
  // No transport: an upload is accepted when the commit that takes it
  // happens, so its latency runs from run_client's return to that commit.
  fill(ep, rc, r, clocked->commits(), clocked->ready_to_commit());
  ep.final_acc = r.final_accuracy(j.topk_metric);
  return ep;
}

// ---------------------------------------------------------- ingest_replay --

/// Upload due → UploadAck received, per dispatch index.
struct AckLog {
  std::unordered_map<std::uint64_t, double> due;
  std::vector<std::pair<double, double>> acks;  ///< (ack time, ms)
  std::size_t failed = 0;

  void acked(std::uint64_t index) {
    const auto it = due.find(index);
    if (it == due.end()) return;
    const double t = now_s();
    acks.emplace_back(t, 1e3 * (t - it->second));
    due.erase(it);
  }
};

/// A canned client on the loopback backend: answers every Dispatch at once
/// with the captured upload.
class LoopbackClient final : public transport::ClientTransport::Handler {
 public:
  LoopbackClient(transport::LoopbackTransport& net, std::size_t id,
                 transport::UploadMsg& canned, AckLog& log, Tracer* tracer)
      : endpoint_(net, id), canned_(canned), log_(log), tracer_(tracer) {
    endpoint_.set_handler(this);
    FEDBIAD_CHECK(endpoint_.connect(), "loopback connect failed");
    transport::HelloMsg hello;
    hello.client_id = id;
    hello.payload_kind =
        static_cast<std::uint8_t>(wire::PayloadKind::kRowMasked);
    send(transport::FrameType::kHello, transport::encode(hello));
  }

  void on_frame(transport::Frame&& frame) override {
    Tracer::Scope span(tracer_, Cat::kGen);
    switch (frame.type) {
      case transport::FrameType::kDispatch: {
        canned_.dispatch_index =
            transport::decode_dispatch(frame.body).dispatch_index;
        log_.due[canned_.dispatch_index] = now_s();
        send(transport::FrameType::kUpload, transport::encode(canned_));
        break;
      }
      case transport::FrameType::kUploadAck:
        log_.acked(transport::decode_upload_ack(frame.body).dispatch_index);
        break;
      case transport::FrameType::kReject:
        ++log_.failed;
        break;
      default:
        break;
    }
  }
  void on_close(const std::string& /*reason*/) override {}

 private:
  void send(transport::FrameType type, const std::vector<std::uint8_t>& body) {
    if (!endpoint_.send(type, body)) ++log_.failed;
  }

  transport::LoopbackTransport::Endpoint endpoint_;
  transport::UploadMsg& canned_;
  AckLog& log_;
  Tracer* tracer_;
};

EpisodeResult run_ingest(const RunConfig& rc, Tracer* tracer) {
  static std::size_t episode_counter = 0;
  const std::string ckpt_dir = rc.work_dir + "/ckpt-" +
                               std::to_string(::getpid()) + "-" +
                               std::to_string(episode_counter++);
  std::filesystem::remove_all(ckpt_dir);

  const double t0 = now_s();
  const Job j = make_job(rc);
  transport::UploadMsg canned =
      capture_upload(j, *make_client_strategy(rc), rc.seed);

  transport::TransportServerConfig scfg;
  scfg.base = j.sim;
  scfg.mode = fl::AggregationMode::kBarrier;
  scfg.decode_workers = rc.decode_workers;
  scfg.checkpoint.directory = ckpt_dir;
  scfg.checkpoint.every_rounds = kIngestCheckpointEvery;
  scfg.scenario_name = "bench_round";
  transport::LoopbackTransport net{transport::TransportLimits{}};
  std::optional<TracedTransport> traced;
  if (tracer != nullptr) traced.emplace(net, *tracer);
  transport::ServerTransport& server_net =
      traced ? static_cast<transport::ServerTransport&>(*traced) : net;
  auto clocked =
      std::make_shared<ClockedStrategy>(make_client_strategy(rc), tracer);
  transport::ServerRuntime server(scfg, server_net, j.factory, j.test,
                                  j.partition, clocked);
  AckLog log;
  std::vector<std::unique_ptr<LoopbackClient>> clients;
  for (std::size_t c = 0; c < j.partition.size(); ++c) {
    clients.push_back(
        std::make_unique<LoopbackClient>(net, c, canned, log, tracer));
  }
  server.start();
  const double run_deadline = wall_s() + kEpisodeDeadlineS;
  while (!server.done()) {
    FEDBIAD_CHECK(wall_s() < run_deadline, "ingest_replay episode stalled");
    server.pump(0.0);
  }
  const transport::TransportServerResult r = server.finish();

  EpisodeResult ep;
  ep.setup_s = clocked->first_begin() - t0;
  fill(ep, rc, r.sim, clocked->commits(), log.acks);
  fill_transport(ep, r);
  ep.failed_sends = log.failed;
  ep.final_acc = r.sim.rounds.back().top1;
  std::filesystem::remove_all(ckpt_dir);
  return ep;
}

// -------------------------------------------------------------- tcp_async --

/// One tcp_async client session on its own thread. It answers each
/// Dispatch at once with the captured upload and otherwise blocks in poll, so
/// an UploadAck is timestamped as it arrives and an idle client takes no CPU
/// from the server. The protocol gates every upload on a Dispatch, so the
/// fleet is a closed loop, and with no think time it keeps the server busy.
class TcpClient final : public transport::ClientTransport::Handler {
 public:
  TcpClient(std::uint16_t port, std::size_t id,
            const transport::UploadMsg& canned, Tracer* tracer,
            std::atomic<std::size_t>& welcomed)
      : tcp_("127.0.0.1", port),
        id_(id),
        canned_(canned),
        tracer_(tracer),
        welcomed_(welcomed) {
    tcp_.set_handler(this);
    thread_ = std::thread([this] { loop(); });
  }
  ~TcpClient() override { stop(); }
  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  /// Stops the session thread and joins it; the log is readable afterwards.
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  AckLog log;

  void on_frame(transport::Frame&& frame) override {
    Tracer::Scope span(tracer_, Cat::kGen);
    switch (frame.type) {
      case transport::FrameType::kWelcome:
        welcomed_.fetch_add(1);
        break;
      case transport::FrameType::kDispatch:
        canned_.dispatch_index =
            transport::decode_dispatch(frame.body).dispatch_index;
        log.due[canned_.dispatch_index] = now_s();
        if (!tcp_.send(transport::FrameType::kUpload,
                       transport::encode(canned_))) {
          ++log.failed;
        }
        break;
      case transport::FrameType::kUploadAck:
        log.acked(transport::decode_upload_ack(frame.body).dispatch_index);
        break;
      case transport::FrameType::kReject:
        ++log.failed;
        break;
      case transport::FrameType::kFin:
        done_ = true;
        break;
      default:
        break;
    }
  }
  void on_close(const std::string& /*reason*/) override { done_ = true; }

 private:
  void loop() {
    bool connected = false;
    for (int attempt = 0; attempt < 100 && !connected && !stop_.load();
         ++attempt) {
      connected = tcp_.connect();
      if (!connected) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    transport::HelloMsg hello;
    hello.client_id = id_;
    if (!connected ||
        !tcp_.send(transport::FrameType::kHello, transport::encode(hello))) {
      ++log.failed;
      return;
    }
    while (!stop_.load() && !done_) tcp_.step(kIdleWaitS);
    tcp_.shutdown();
  }

  static constexpr double kIdleWaitS = 0.05;

  transport::TcpClientTransport tcp_;
  std::size_t id_;
  transport::UploadMsg canned_;  ///< own copy: dispatch_index is per upload
  Tracer* tracer_;
  std::atomic<std::size_t>& welcomed_;
  bool done_ = false;
  std::atomic<bool> stop_{false};
  std::thread thread_;  ///< last: joined before the members it uses die
};

EpisodeResult run_tcp(const RunConfig& rc, Tracer* tracer) {
  const double t0 = now_s();
  const Job j = make_job(rc);
  const transport::UploadMsg canned =
      capture_upload(j, *make_client_strategy(rc), rc.seed);

  transport::TransportServerConfig scfg;
  scfg.base = j.sim;
  scfg.mode = fl::AggregationMode::kFedAsync;
  scfg.decode_workers = rc.decode_workers;
  scfg.scenario_name = "bench_round";
  transport::EpollServerTransport net(transport::TransportLimits{}, 0);
  std::optional<TracedTransport> traced;
  if (tracer != nullptr) traced.emplace(net, *tracer);
  transport::ServerTransport& server_net =
      traced ? static_cast<transport::ServerTransport&>(*traced) : net;
  auto clocked =
      std::make_shared<ClockedStrategy>(make_client_strategy(rc), tracer);
  transport::ServerRuntime server(scfg, server_net, j.factory, j.test,
                                  j.partition, clocked);
  std::atomic<std::size_t> welcomed{0};
  std::vector<std::unique_ptr<TcpClient>> clients;
  for (std::size_t c = 0; c < kTcpClients; ++c) {
    clients.push_back(
        std::make_unique<TcpClient>(net.port(), c, canned, tracer, welcomed));
  }
  const double connect_deadline = wall_s() + 10.0;
  while (welcomed.load() < kTcpClients) {
    FEDBIAD_CHECK(wall_s() < connect_deadline, "tcp clients failed to connect");
    server.pump(0.01);
  }
  server.start();
  const double run_deadline = wall_s() + kEpisodeDeadlineS;
  while (!server.done()) {
    FEDBIAD_CHECK(wall_s() < run_deadline, "tcp_async episode stalled");
    server.pump(0.05);
  }
  const transport::TransportServerResult r = server.finish();
  std::vector<std::pair<double, double>> acks;
  std::size_t failed = 0;
  for (auto& c : clients) {
    c->stop();
    acks.insert(acks.end(), c->log.acks.begin(), c->log.acks.end());
    failed += c->log.failed;
  }

  EpisodeResult ep;
  ep.setup_s = clocked->first_begin() - t0;
  fill(ep, rc, r.sim, clocked->commits(), acks);
  fill_transport(ep, r);
  ep.failed_sends = failed;
  ep.final_acc = r.sim.rounds.back().top1;
  return ep;
}

}  // namespace

EpisodeResult run_episode(const RunConfig& cfg, Tracer* tracer) {
  EpisodeResult ep;
  switch (cfg.spec->id) {
    case WorkloadId::kTrainMlp:
    case WorkloadId::kTrainLstm:
      ep = run_train(cfg, tracer);
      break;
    case WorkloadId::kIngestReplay:
      ep = run_ingest(cfg, tracer);
      break;
    case WorkloadId::kTcpAsync:
      ep = run_tcp(cfg, tracer);
      break;
  }
  if (tracer != nullptr) ep.trace.spans = tracer->take();
  return ep;
}

}  // namespace fedbiad::bench_round
