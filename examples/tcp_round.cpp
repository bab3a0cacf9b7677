// One FedBIAD job over real localhost TCP, checked bit-for-bit against
// the in-process engine.
//
// The parent binds an EpollServerTransport on an ephemeral port, forks one
// child per populated client (each a TcpClientTransport + ClientRuntime),
// runs the in-process reference (fl::AsyncSimulation on the virtual clock),
// and drives the ServerRuntime to completion. The two
// trajectory fingerprints — per-round losses/accuracies/byte counts plus
// a CRC32C of the final parameters — must match exactly: real sockets,
// fork scheduling, and arrival order change nothing the engine's
// determinism contract covers.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "../tools/transport_demo.hpp"
#include "smoke.hpp"
#include "transport/client_runtime.hpp"
#include "transport/epoll.hpp"
#include "transport/server_runtime.hpp"

namespace {

int run_client(std::uint16_t port, std::size_t client,
               const std::string& method, const fedbiad::tools::DemoWorkload& w) {
  using namespace fedbiad;
  transport::TransportClientConfig cfg;
  cfg.client_id = client;
  cfg.base = w.sim;
  cfg.payload_kind = w.payload_kind;
  cfg.reconnect_timeout_seconds = 30.0;
  transport::TcpClientTransport transport("127.0.0.1", port);
  transport::ClientRuntime runtime(cfg, transport, w.factory, w.train,
                                   w.partition[client],
                                   tools::make_demo_strategy(method));
  return runtime.run() ? 0 : 1;
}

}  // namespace

int main() {
  using namespace fedbiad;
  const std::string method = "fedbiad";
  const tools::DemoWorkload w =
      tools::make_demo_workload(method, examples::smoke());

  // The same job over TCP: parent serves, one forked child per client.
  transport::TransportServerConfig scfg;
  scfg.base = w.sim;
  scfg.scenario_name = "tcp_round";
  // Decode-on-arrival workers: uploads are CRC-verified and decoded off
  // the epoll thread, yet the trajectory diff below still demands byte
  // identity with the single-threaded in-process engine. (The pool's
  // threads start inside server.run(), after every fork below.)
  scfg.decode_workers = 4;
  transport::EpollServerTransport transport({}, /*port=*/0);
  const std::uint16_t port = transport.port();

  std::vector<pid_t> children;
  for (std::size_t c = 0; c < w.partition.size(); ++c) {
    if (w.partition[c].empty()) continue;
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::_exit(run_client(port, c, method, w));
    }
    FEDBIAD_CHECK(pid > 0, "fork failed");
    children.push_back(pid);
  }

  // In-process reference on the virtual clock. It runs only after every
  // fork above: it starts the process-wide kernel thread pool, and a child
  // forked after that would inherit the pool without its threads. The
  // clients' connections wait in the listen backlog meanwhile.
  const fl::SimulationResult reference = tools::reference_run(w, method);
  const std::string want = tools::trajectory_text(reference);
  std::printf("— in-process reference —\n%s", want.c_str());

  transport::ServerRuntime server(scfg, transport, w.factory, w.test,
                                  w.partition,
                                  tools::make_demo_strategy(method));
  const transport::TransportServerResult result = server.run();
  const std::string got = tools::trajectory_text(result.sim);
  std::printf("— over TCP (port %u, %zu client processes) —\n%s",
              static_cast<unsigned>(port), children.size(), got.c_str());

  bool ok = true;
  for (const pid_t pid : children) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "client process %d failed\n", pid);
      ok = false;
    }
  }
  if (!result.conserved()) {
    std::fprintf(stderr, "conservation law violated over TCP\n");
    ok = false;
  }
  if (got != want) {
    std::fprintf(stderr, "TCP trajectory diverged from the reference\n");
    ok = false;
  }
  if (ok) std::printf("trajectories identical — %zu rounds\n",
                      result.sim.rounds.size());
  return ok ? 0 : 1;
}
