// Transport bench: the cost of the wire under the FL runtimes.
//
// Four sections:
//
//   frame codec     encode + reparse throughput of the length-prefixed
//                   CRC32C framing at body sizes {64 B, 4 KiB, 256 KiB}
//                   (frames/s and bytes/s; the crc dominates large
//                   bodies, the fixed overhead dominates small ones).
//   tcp echo        round-trip latency over real localhost sockets: an
//                   EpollServerTransport echoing 1 KiB frames back at
//                   {8, 64} concurrent client threads; p50/p99 RTT.
//   ingest          the full loopback FL job at decode-on-arrival worker
//                   counts {0 (inline), 1, 4, 8}: committed uploads/s and
//                   the park/shed telemetry of the bounded decode queue.
//                   Every cell must land on the same trajectory — worker
//                   count only moves the wall clock.
//   corruption run  the same loopback job (8 clients, decode_workers=4)
//                   with every client corrupting each upload attempt at
//                   5% — reports the rejection ledgers and checks the
//                   conservation law with rejects charged from the
//                   worker path.
//
// With FEDBIAD_JSON=<path> set it emits the machine-readable summary
// checked in as BENCH_transport.json (schema in bench/README.md).
//
//   $ ./build/bench/bench_transport            # full length
//   $ ./build/bench/bench_transport --smoke    # shortened for CI
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../tools/transport_demo.hpp"
#include "transport/client_runtime.hpp"
#include "transport/epoll.hpp"
#include "transport/frame.hpp"
#include "transport/loopback.hpp"
#include "transport/server_runtime.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- codec --

struct CodecResult {
  std::size_t body_bytes = 0;
  std::size_t frames = 0;
  double frames_per_second = 0.0;
  double bytes_per_second = 0.0;
};

CodecResult bench_codec(std::size_t body_bytes, std::size_t frames) {
  using namespace fedbiad::transport;
  std::vector<std::uint8_t> body(body_bytes);
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  FrameParser parser(TransportLimits{}.max_frame_bytes);
  std::vector<std::uint8_t> wire;
  Frame frame;
  std::size_t parsed = 0;

  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < frames; ++i) {
    wire.clear();
    append_frame(wire, FrameType::kUpload, body);
    parser.feed(wire);
    while (parser.next(frame) == FrameParser::Status::kFrame) ++parsed;
  }
  const double wall = seconds_since(t0);
  FEDBIAD_CHECK(parsed == frames, "codec bench lost frames");

  CodecResult r;
  r.body_bytes = body_bytes;
  r.frames = frames;
  r.frames_per_second = static_cast<double>(frames) / wall;
  r.bytes_per_second =
      static_cast<double>(frames * frame_wire_size(body_bytes)) / wall;
  return r;
}

// ------------------------------------------------------------- tcp echo --

struct EchoResult {
  std::size_t clients = 0;
  std::size_t pings = 0;  ///< total across all clients
  double rtt_p50_seconds = 0.0;
  double rtt_p99_seconds = 0.0;
};

/// Server side of the echo: every frame goes straight back out. A refused
/// send (ring full) is retried from on_drain — with 1 KiB pings against a
/// 4 MiB ring that path never fires, but correctness shouldn't depend on
/// the bench staying small.
struct EchoServer final : fedbiad::transport::ServerTransport::Handler {
  explicit EchoServer(fedbiad::transport::ServerTransport& net) : net(net) {}
  fedbiad::transport::ServerTransport& net;

  void on_open(fedbiad::transport::SessionId) override {}
  void on_frame(fedbiad::transport::SessionId session,
                fedbiad::transport::Frame&& frame) override {
    if (!net.send(session, frame.type, frame.body)) {
      parked[session].push_back(std::move(frame.body));
    }
  }
  void on_close(fedbiad::transport::SessionId session,
                const std::string&) override {
    parked.erase(session);
  }
  void on_drain(fedbiad::transport::SessionId session) override {
    auto it = parked.find(session);
    if (it == parked.end()) return;
    auto queue = std::move(it->second);
    parked.erase(it);
    for (auto& body : queue) {
      if (!net.send(session, fedbiad::transport::FrameType::kUpload, body)) {
        parked[session].push_back(std::move(body));
      }
    }
  }

  std::unordered_map<fedbiad::transport::SessionId,
                     std::vector<fedbiad::transport::FrameBody>>
      parked;
};

EchoResult bench_tcp_echo(std::size_t clients, std::size_t pings_per_client) {
  using namespace fedbiad::transport;
  EpollServerTransport net({}, /*port=*/0);
  const std::uint16_t port = net.port();
  EchoServer echo(net);
  net.set_handler(&echo);

  std::atomic<std::size_t> finished{0};
  std::vector<std::vector<double>> rtts(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      struct PongHandler final : ClientTransport::Handler {
        std::size_t pongs = 0;
        bool closed = false;
        void on_frame(Frame&&) override { ++pongs; }
        void on_close(const std::string&) override { closed = true; }
      };
      PongHandler handler;
      TcpClientTransport tcp("127.0.0.1", port);
      tcp.set_handler(&handler);
      while (!tcp.connect()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      std::vector<std::uint8_t> body(1024, static_cast<std::uint8_t>(c));
      rtts[c].reserve(pings_per_client);
      // The first few round trips pay thread start, accept, and cold-cache
      // costs; they are warmup, not steady-state latency.
      const std::size_t warmup = 2;
      for (std::size_t i = 0; i < warmup + pings_per_client && !handler.closed;
           ++i) {
        const std::size_t want = handler.pongs + 1;
        const auto t0 = Clock::now();
        if (!tcp.send(FrameType::kUpload, body)) break;
        while (handler.pongs < want && !handler.closed) {
          tcp.step(0.05);
        }
        if (handler.pongs == want && i >= warmup) {
          rtts[c].push_back(seconds_since(t0));
        }
      }
      tcp.shutdown();
      finished.fetch_add(1);
    });
  }

  while (finished.load() < clients) {
    net.step(0.05);
  }
  for (auto& t : threads) t.join();

  std::vector<double> all;
  for (const auto& v : rtts) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  FEDBIAD_CHECK(!all.empty(), "tcp echo bench recorded no round trips");

  EchoResult r;
  r.clients = clients;
  r.pings = all.size();
  r.rtt_p50_seconds = all[all.size() / 2];
  r.rtt_p99_seconds = all[std::min(all.size() - 1, all.size() * 99 / 100)];
  return r;
}

// ------------------------------------------------------- corruption run --

struct CorruptionResult {
  std::string method;
  double corruption = 0.0;
  std::size_t decode_workers = 0;     ///< 0 = inline decode
  std::size_t decode_queue_depth = 0; ///< effective bound (2×workers default)
  std::size_t rounds = 0;
  double rounds_per_second = 0.0;
  double committed_per_second = 0.0;
  std::size_t dispatched = 0;
  std::size_t committed = 0;
  std::size_t rejected_dispatches = 0;
  std::size_t rejected_deliveries = 0;
  std::uint64_t rejected_bytes = 0;
  std::size_t decode_parked = 0;
  std::size_t decode_shed = 0;
  bool conserved = false;
};

CorruptionResult bench_corruption(const std::string& method, bool smoke,
                                  double corruption, std::size_t workers) {
  using namespace fedbiad;
  const tools::DemoWorkload w = tools::make_demo_workload(method, smoke);

  transport::TransportServerConfig scfg;
  scfg.base = w.sim;
  scfg.scenario_name = "bench_transport";
  scfg.decode_workers = workers;
  transport::LoopbackTransport net{transport::TransportLimits{}};
  transport::ServerRuntime server(scfg, net, w.factory, w.test, w.partition,
                                  tools::make_demo_strategy(method));

  std::vector<std::unique_ptr<transport::LoopbackTransport::Endpoint>> ends;
  std::vector<std::unique_ptr<transport::ClientRuntime>> clients;
  for (std::size_t c = 0; c < w.partition.size(); ++c) {
    if (w.partition[c].empty()) continue;
    transport::TransportClientConfig ccfg;
    ccfg.client_id = c;
    ccfg.base = w.sim;
    ccfg.payload_kind = w.payload_kind;
    ccfg.reconnect_interval_seconds = 0.0;
    ccfg.corrupt_probability = corruption;
    ends.push_back(
        std::make_unique<transport::LoopbackTransport::Endpoint>(net, c));
    clients.push_back(std::make_unique<transport::ClientRuntime>(
        ccfg, *ends.back(), w.factory, w.train, w.partition[c],
        tools::make_demo_strategy(method)));
  }

  const auto t0 = Clock::now();
  server.start();
  for (auto& c : clients) c->start();
  std::size_t guard = 0;
  while (!server.done() && ++guard < 100000) {
    net.step(0.0);
    for (auto& c : clients) c->pump(0.0);
  }
  FEDBIAD_CHECK(server.done(), "corruption run did not converge");
  const transport::TransportServerResult result = server.finish();
  const double wall = seconds_since(t0);

  CorruptionResult r;
  r.method = method;
  r.corruption = corruption;
  r.decode_workers = workers;
  r.decode_queue_depth = workers > 0 ? 2 * workers : 0;
  r.rounds = result.sim.rounds.size();
  r.rounds_per_second = static_cast<double>(r.rounds) / std::max(wall, 1e-9);
  r.committed_per_second =
      static_cast<double>(result.sim.total_committed) / std::max(wall, 1e-9);
  r.dispatched = result.sim.total_dispatched;
  r.committed = result.sim.total_committed;
  r.rejected_dispatches = result.sim.total_rejected;
  r.rejected_deliveries = result.sim.total_rejected_deliveries;
  r.rejected_bytes = result.sim.total_rejected_bytes;
  r.decode_parked = result.decode_parked;
  r.decode_shed = result.decode_shed;
  r.conserved = result.conserved();
  return r;
}

// ------------------------------------------------------------------ json --

void write_json(const std::string& path, const std::vector<CodecResult>& codec,
                const std::vector<EchoResult>& echo,
                const std::vector<CorruptionResult>& ingest,
                const std::vector<CorruptionResult>& corruption, bool smoke) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "bench_transport: cannot write %s\n", path.c_str());
    return;
  }
  auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  os << "{\n";
  os << "  \"bench\": \"transport\",\n";
  os << "  \"schema_version\": 1,\n";
  os << "  \"seed\": 42,\n";
  os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  os << "  \"series\": [\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (const CodecResult& c : codec) {
    sep();
    os << "    {\"section\": \"frame_codec\", \"body_bytes\": " << c.body_bytes
       << ", \"frames\": " << c.frames << ",\n"
       << "     \"summary\": {\"frames_per_second\": "
       << num(c.frames_per_second)
       << ", \"bytes_per_second\": " << num(c.bytes_per_second) << "}}";
  }
  for (const EchoResult& e : echo) {
    sep();
    os << "    {\"section\": \"tcp_echo\", \"clients\": " << e.clients
       << ", \"pings\": " << e.pings << ",\n"
       << "     \"summary\": {\"rtt_p50_seconds\": " << num(e.rtt_p50_seconds)
       << ", \"rtt_p99_seconds\": " << num(e.rtt_p99_seconds) << "}}";
  }
  for (const CorruptionResult& c : ingest) {
    sep();
    os << "    {\"section\": \"ingest\", \"method\": \"" << c.method
       << "\", \"decode_workers\": " << c.decode_workers
       << ", \"decode_queue_depth\": " << c.decode_queue_depth << ",\n"
       << "     \"summary\": {\"rounds\": " << c.rounds
       << ", \"rounds_per_second\": " << num(c.rounds_per_second)
       << ", \"committed_per_second\": " << num(c.committed_per_second)
       << ",\n      \"dispatched\": " << c.dispatched
       << ", \"committed\": " << c.committed
       << ", \"decode_parked\": " << c.decode_parked
       << ", \"decode_shed\": " << c.decode_shed
       << ", \"conserved\": " << (c.conserved ? "true" : "false") << "}}";
  }
  for (const CorruptionResult& c : corruption) {
    sep();
    os << "    {\"section\": \"corruption_run\", \"method\": \"" << c.method
       << "\", \"corruption_probability\": " << num(c.corruption)
       << ", \"decode_workers\": " << c.decode_workers
       << ", \"decode_queue_depth\": " << c.decode_queue_depth << ",\n"
       << "     \"summary\": {\"rounds\": " << c.rounds
       << ", \"rounds_per_second\": " << num(c.rounds_per_second)
       << ", \"dispatched\": " << c.dispatched
       << ", \"committed\": " << c.committed << ",\n"
       << "      \"rejected_dispatches\": " << c.rejected_dispatches
       << ", \"rejected_deliveries\": " << c.rejected_deliveries
       << ", \"rejected_bytes\": " << c.rejected_bytes
       << ", \"decode_parked\": " << c.decode_parked
       << ", \"decode_shed\": " << c.decode_shed
       << ", \"conserved\": " << (c.conserved ? "true" : "false") << "}}";
  }
  os << "\n  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::printf("=== Transport: frame codec, TCP echo RTT, corruption run ===\n\n");

  std::printf("-- frame codec (encode + reparse, crc verified) --\n");
  std::printf("%-10s %10s %12s %14s\n", "body", "frames", "frames/s", "MiB/s");
  std::vector<CodecResult> codec;
  const std::size_t mul = smoke ? 1 : 10;
  for (const auto& [body, frames] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {64, 20000 * mul}, {4096, 5000 * mul}, {256 * 1024, 200 * mul}}) {
    const CodecResult c = bench_codec(body, frames);
    codec.push_back(c);
    std::printf("%-10zu %10zu %12.0f %14.1f\n", c.body_bytes, c.frames,
                c.frames_per_second, c.bytes_per_second / (1024.0 * 1024.0));
    std::fflush(stdout);
  }

  std::printf("\n-- tcp echo (1 KiB frames over localhost) --\n");
  std::printf("%-8s %8s %12s %12s\n", "clients", "pings", "p50", "p99");
  std::vector<EchoResult> echo;
  for (const std::size_t clients : {std::size_t{8}, std::size_t{64}}) {
    const EchoResult e = bench_tcp_echo(clients, smoke ? 25 : 200);
    echo.push_back(e);
    std::printf("%-8zu %8zu %9.1fus %9.1fus\n", e.clients, e.pings,
                1e6 * e.rtt_p50_seconds, 1e6 * e.rtt_p99_seconds);
    std::fflush(stdout);
  }

  std::printf("\n-- loopback FL ingest at decode worker counts --\n");
  std::printf("%-9s %8s %8s %10s %12s %8s %8s\n", "method", "workers", "rounds",
              "rounds/s", "committed/s", "parked", "shed");
  std::vector<CorruptionResult> ingest;
  for (const std::size_t workers :
       {std::size_t{0}, std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    const CorruptionResult c =
        bench_corruption("fedbiad", smoke, /*corruption=*/0.0, workers);
    ingest.push_back(c);
    std::printf("%-9s %8zu %8zu %10.2f %12.1f %8zu %8zu%s\n", c.method.c_str(),
                c.decode_workers, c.rounds, c.rounds_per_second,
                c.committed_per_second, c.decode_parked, c.decode_shed,
                c.conserved ? "" : "  CONSERVATION VIOLATED");
    std::fflush(stdout);
    if (!c.conserved) return 1;
  }

  std::printf(
      "\n-- loopback FL run at 5%% upload corruption (decode_workers=4) --\n");
  std::printf("%-9s %8s %10s %10s %9s %10s %10s %10s\n", "method", "rounds",
              "rounds/s", "dispatched", "committed", "rej_disp", "rej_deliv",
              "rej_bytes");
  std::vector<CorruptionResult> corruption;
  for (const std::string method : {"fedavg", "fedbiad"}) {
    const CorruptionResult c =
        bench_corruption(method, smoke, 0.05, /*workers=*/4);
    corruption.push_back(c);
    std::printf("%-9s %8zu %10.2f %10zu %9zu %10zu %10zu %10llu%s\n",
                c.method.c_str(), c.rounds, c.rounds_per_second, c.dispatched,
                c.committed, c.rejected_dispatches, c.rejected_deliveries,
                static_cast<unsigned long long>(c.rejected_bytes),
                c.conserved ? "" : "  CONSERVATION VIOLATED");
    std::fflush(stdout);
    if (!c.conserved) return 1;
  }

  if (const char* path = std::getenv("FEDBIAD_JSON")) {
    write_json(path, codec, echo, ingest, corruption, smoke);
    std::printf("\nwrote %s\n", path);
  }
  return 0;
}
