// bench_round: the repository's end-to-end benchmark (see README.md here).
//
//   bench_round --workload W [--seed N] [--seconds S] [--trace 0|1]
//               [--trace-file F] [--decode-workers K]
//       One run: a fixed number of episodes of workload W, as many as take
//       about S seconds on the reference machine. --trace 0 prints the
//       end-to-end metrics; --trace 1 runs half the episodes untraced and
//       half traced, then the probes, and prints the per-layer metrics. The
//       last stdout line is the JSON result; the exit code is nonzero when
//       an output check fails.
//   bench_round --all [--workloads a,b] [--repeats N] [--out F]
//               [--decode-workers K1,K2,...] [--seconds S]
//       Re-executes itself once per (workload, decode workers, repeat) so
//       every run owns its process, and writes a result file with a
//       provenance block (compare two with bench_round_compare).
//   bench_round --smoke [--trace-file F]
//       Every workload for about a second, traced, with every check on; the
//       trace is written to F and parsed back.
// Every mode first pins the process to one CPU, and times everything with
// the process's CPU clock (see now_s in trace.hpp). Every time a run reports
// is at the reference speed: divided by the slowdown that kernels run around
// it measure (calibration.hpp). Each commit interval gets the slowdown of the
// calibrations nearest to it, setup_s that of the calibrations between the
// set-ups, and the traced run's metrics that of its episodes.
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "calibration.hpp"
#include "common/check.hpp"
#include "episodes.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "scenario/json.hpp"
#include "stats.hpp"
#include "trace.hpp"

extern char** environ;

namespace fedbiad::bench_round {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 15.0;
  bool trace = false;
  std::string trace_file;
  std::vector<std::size_t> decode_workers;  ///< empty: workload default
  std::string work_dir = ".bench_build/round-work";
  bool smoke = false;
  bool all = false;
  std::vector<std::string> workloads;  ///< --all filter
  std::size_t repeats = 5;
  std::string out;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "bench_round: %s\n"
               "usage: bench_round --workload W [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-file F]\n"
               "                   [--decode-workers K] [--work-dir D]\n"
               "       bench_round --all [--workloads a,b] [--repeats N] "
               "[--out F] [...]\n"
               "       bench_round --smoke [--trace-file F]\n"
               "workloads: train_mlp train_lstm ingest_replay tcp_async\n",
               error.c_str());
  std::exit(2);
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  for (std::string item; std::getline(ss, item, ',');) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

double parse_number(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !(v >= 0.0)) {
    usage(flag + " wants a non-negative number, got '" + text + "'");
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = static_cast<std::uint64_t>(parse_number(arg, value()));
    } else if (arg == "--seconds") {
      o.seconds = parse_number(arg, value());
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace wants 0 or 1");
      o.trace = v == "1";
    } else if (arg == "--trace-file") {
      o.trace_file = value();
    } else if (arg == "--decode-workers") {
      for (const auto& k : split_list(value())) {
        o.decode_workers.push_back(
            static_cast<std::size_t>(parse_number(arg, k)));
      }
    } else if (arg == "--work-dir") {
      o.work_dir = value();
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--all") {
      o.all = true;
    } else if (arg == "--workloads") {
      o.workloads = split_list(value());
    } else if (arg == "--repeats") {
      o.repeats = static_cast<std::size_t>(parse_number(arg, value()));
    } else if (arg == "--out") {
      o.out = value();
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (!o.all && !o.smoke) {
    if (find_workload(o.workload) == nullptr) {
      usage("unknown workload '" + o.workload + "'");
    }
    if (o.decode_workers.size() > 1) usage("one --decode-workers per run");
  }
  for (const auto& w : o.workloads) {
    if (find_workload(w) == nullptr) usage("unknown workload '" + w + "'");
  }
  return o;
}

RunConfig run_config(const Options& o, const WorkloadSpec& spec) {
  RunConfig rc;
  rc.spec = &spec;
  rc.seed = o.seed;
  rc.commits = o.smoke ? spec.smoke_commits : spec.commits;
  rc.decode_workers = spec.id == WorkloadId::kTcpAsync ? kTcpDecodeWorkers : 0;
  if (!o.decode_workers.empty()) rc.decode_workers = o.decode_workers.front();
  rc.work_dir = o.work_dir;
  return rc;
}

bool in_process(const WorkloadSpec& spec) {
  return spec.id == WorkloadId::kTrainMlp || spec.id == WorkloadId::kTrainLstm;
}

/// The post-warm-up samples of every episode, pooled.
std::vector<double> pooled(std::span<const EpisodeResult> eps,
                           std::vector<double> EpisodeResult::*field) {
  std::vector<double> xs;
  for (const auto& ep : eps) {
    xs.insert(xs.end(), (ep.*field).begin(), (ep.*field).end());
  }
  return xs;
}

/// Uploads committed after warm-up per second of their commit intervals.
double uploads_per_s(std::span<const EpisodeResult> eps) {
  double uploads = 0.0, seconds = 0.0;
  for (const auto& ep : eps) {
    uploads += ep.uploads;
    seconds += ep.span_s;
  }
  return uploads / seconds;
}

/// Episodes in a run of `seconds`: a count fixed by the arguments alone.
std::size_t episodes_for(const WorkloadSpec& spec, double seconds) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(seconds / spec.episode_s)));
}

/// Runs `n` episodes, each followed by a calibration, so that a set-up-only
/// episode has one right before and one right after it.
std::vector<EpisodeResult> run_episodes(const RunConfig& rc, std::size_t n,
                                        Tracer* tracer) {
  std::vector<EpisodeResult> eps;
  while (eps.size() < n) {
    eps.push_back(run_episode(rc, tracer));
    calibrate();
    std::fprintf(stderr, "  %s episode %zu of %zu commits: setup %.4f s",
                 tracer != nullptr ? "traced" : "untraced", eps.size(),
                 rc.commits, eps.back().setup_s);
    if (eps.back().span_s > 0.0) {
      std::fprintf(stderr, ", %.2f uploads/s",
                   uploads_per_s({&eps.back(), 1}));
    }
    std::fputc('\n', stderr);
  }
  return eps;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MB
    }
  }
  return 0.0;
}

/// `eps` are the measured episodes, `setups` the set-up-only ones.
std::vector<Metric> end_to_end(const std::vector<EpisodeResult>& eps,
                               const std::vector<EpisodeResult>& setups) {
  double bytes = 0.0;
  double committed = 0.0;
  for (const auto& ep : eps) {
    bytes += static_cast<double>(ep.uplink_bytes);
    committed += static_cast<double>(ep.committed);
  }
  std::vector<double> setup_s;
  for (const auto& ep : setups) setup_s.push_back(ep.setup_s);
  const std::vector<double> commit_ms = pooled(eps, &EpisodeResult::commit_ms);
  return {
      {"setup_s", median(std::move(setup_s)), "s"},
      {"uploads_per_s", uploads_per_s(eps), "1/s"},
      {"commit_ms_p50", percentile(commit_ms, 0.5), "ms"},
      {"commit_ms_p90", percentile(commit_ms, 0.9), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"uplink_bytes_per_upload", bytes / committed, "B"},
  };
}

/// Per-layer metrics from the traced episodes (breakdown of the commit
/// interval), the untraced ones (tracing overhead) and the probes.
std::vector<Metric> per_layer(const RunConfig& rc,
                              const std::vector<EpisodeResult>& base,
                              const std::vector<EpisodeResult>& traced,
                              const std::vector<Probe>& probes,
                              Breakdown& b) {
  const bool engine = in_process(*rc.spec);
  for (const auto& ep : traced) {
    b.merge(analyse(ep.trace, rc.spec->warmup_commits, engine));
  }
  const double interval = b.interval_s;
  const double commits = static_cast<double>(b.commits);
  auto self = [&b](const std::string& label) {
    const auto it = b.self_s.find(label);
    return it == b.self_s.end() ? 0.0 : it->second;
  };
  auto op = [&b](const std::string& label) {
    const auto it = b.op_s.find(label);
    return it == b.op_s.end() ? 0.0 : it->second;
  };
  // Mean seconds per call of the operations whose label starts with `prefix`.
  auto per_call = [&b](const std::string& prefix) {
    double s = 0.0, calls = 0.0;
    for (const auto& [label, t] : b.op_s) {
      if (label.rfind(prefix, 0) != 0) continue;
      s += t;
      calls += b.op_count[label];
    }
    return calls > 0 ? s / calls : 0.0;
  };
  const double hooks_op = op("begin_round") + op("end_round") + op("save_state");
  std::size_t parked = 0, shed = 0, deferrals = 0, evicted = 0;
  for (const auto* eps : {&base, &traced}) {
    for (const auto& ep : *eps) {
      parked += ep.decode_parked;
      shed += ep.decode_shed;
      deferrals += ep.backpressure_deferrals;
      evicted += ep.evicted;
    }
  }
  // End to end, but without a bound (README.md).
  const std::vector<double> ack_ms = pooled(base, &EpisodeResult::ack_ms);
  std::vector<Metric> m = {
      {"ack_ms_p50", percentile(ack_ms, 0.5), "ms"},
      {"ack_ms_p99", percentile(ack_ms, 0.99), "ms"},
      {"fl.round_ms", 1e3 * interval / commits, "ms"},
      {"fl.train_phase_ms", 1e3 * self("train_wait") / commits, "ms"},
      {"fl.server_phase_ms", 1e3 * (interval - self("train_wait")) / commits,
       "ms"},
      {"fl.untraced_ms", 1e3 * self("untraced") / commits, "ms"},
      {"fl.hooks_us", 1e6 * hooks_op / commits, "us"},
      {"wire.decode_us", 1e6 * per_call("decode"), "us"},
      {"transport.step_self_ms", 1e3 * self("step") / commits, "ms"},
      {"transport.on_upload_us", 1e6 * per_call("on_upload"), "us"},
      {"transport.tick_us", 1e6 * per_call("tick"), "us"},
      {"transport.send_us", 1e6 * per_call("send_"), "us"},
      {"transport.bytes_out_per_commit", b.send_bytes / commits, "B"},
      {"transport.decode_parked", static_cast<double>(parked), "count"},
      {"transport.decode_shed", static_cast<double>(shed), "count"},
      {"transport.backpressure_deferrals", static_cast<double>(deferrals),
       "count"},
      {"transport.evicted", static_cast<double>(evicted), "count"},
      {"gen.handler_ms", 1e3 * op("gen") / commits, "ms"},
      {"parallel.train_busy_frac",
       engine ? b.run_client_s /
                    (static_cast<double>(kTrainThreads) * self("train_wait"))
              : 0.0,
       "ratio"},
      {"trace.overhead_pct",
       100.0 * (1.0 - uploads_per_s(traced) / uploads_per_s(base)), "%"},
      {"trace.coverage", 1.0 - self("untraced") / interval, "ratio"},
  };
  for (const Probe& p : probes) m.push_back({p.name, p.value, p.unit});
  return m;
}

/// Rescales a measured episode's commit intervals to the reference speed,
/// each by the slowdown of the calibrations nearest to it.
void to_reference_speed(EpisodeResult& ep, std::size_t warmup) {
  const std::vector<double>& commits = ep.trace.commits;
  ep.span_s = 0.0;
  for (std::size_t i = warmup; i < commits.size(); ++i) {
    const double s = slowdown_at(0.5 * (commits[i - 1] + commits[i]));
    ep.commit_ms[i - warmup] /= s;
    ep.span_s += (commits[i] - commits[i - 1]) / s;
  }
}

/// A time or rate at the reference speed: times (s, ms, us) divided by the
/// slowdown, rates (1/s, GB/s) multiplied by it; other units unchanged.
void at_reference_speed(Metric& m, double slowdown) {
  if (m.unit == "s" || m.unit == "ms" || m.unit == "us") {
    m.value /= slowdown;
  } else if (m.unit == "1/s" || m.unit == "GB/s") {
    m.value *= slowdown;
  }
}

struct Verdict {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// The output checks on episodes of `rc.commits` commits each: the
/// conservation law, the exact upload size, no failed operation, one
/// final-parameter CRC across the episodes (deterministic workloads) and,
/// for full episodes, the final accuracy: above the floor, and within
/// kFinalAccTolerance of the reference at kDefaultSeed.
void check(const RunConfig& rc, const std::vector<EpisodeResult>& eps,
           Verdict& v) {
  const WorkloadSpec& spec = *rc.spec;
  auto fail = [&v, &spec](const std::string& why) {
    std::fprintf(stderr, "bench_round: %s: CHECK FAILED: %s\n",
                 std::string(spec.name).c_str(), why.c_str());
    v.correct = false;
  };
  const bool full = rc.commits == spec.commits;
  for (const auto& ep : eps) {
    v.attempted += ep.dispatched;
    v.failed += ep.failed();
    if (!ep.conserved()) fail("dispatch conservation law violated");
    if (!ep.bytes_exact) {
      fail("an upload differs from the exact size " +
           std::to_string(spec.upload_bytes) + " B");
    }
    if (ep.failed() != 0) fail(std::to_string(ep.failed()) + " failed uploads");
    if (full && rc.seed == kDefaultSeed && spec.ref_final_acc > 0.0 &&
        std::abs(ep.final_acc - spec.ref_final_acc) > kFinalAccTolerance) {
      fail("final accuracy " + std::to_string(ep.final_acc) + " is not within " +
           std::to_string(kFinalAccTolerance) + " of the reference " +
           std::to_string(spec.ref_final_acc));
    }
    if (full && ep.final_acc < spec.min_final_acc) {
      fail("final accuracy " + std::to_string(ep.final_acc) + " below " +
           std::to_string(spec.min_final_acc));
    }
    if (spec.deterministic && ep.params_crc != eps.front().params_crc) {
      fail("final parameters differ between episodes of one seed");
    }
  }
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_breakdown(const Breakdown& b) {
  std::printf("  breakdown of %zu commit intervals (server thread):\n",
              b.commits);
  double sum = 0.0;
  for (const auto& [label, s] : b.self_s) {
    sum += s;
    std::printf("    %-14s %10.4f ms/commit %7.2f %%\n", label.c_str(),
                1e3 * s / static_cast<double>(b.commits),
                100.0 * s / b.interval_s);
  }
  std::printf("    %-14s %10.4f ms/commit %7.2f %% of the measured interval\n",
              "sum", 1e3 * sum / static_cast<double>(b.commits),
              100.0 * sum / b.interval_s);
}

/// Validates a written trace with the library's JSON reader.
bool trace_parses(const std::string& path) {
  try {
    const auto doc = scenario::json::Value::parse(read_file(path));
    const auto* events = doc.find("traceEvents");
    if (events == nullptr || events->as_array().empty()) return false;
    for (const auto& e : events->as_array()) {
      const auto* ph = e.find("ph");
      if (e.find("name") == nullptr || e.find("ts") == nullptr ||
          e.find("dur") == nullptr || ph == nullptr ||
          ph->as_string() != "X") {
        return false;
      }
    }
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_round: trace %s: %s\n", path.c_str(), e.what());
    return false;
  }
}

/// One workload run; returns the process exit code.
int run_one(const Options& o, const WorkloadSpec& spec, double probe_budget) {
  const RunConfig rc = run_config(o, spec);
  std::filesystem::create_directories(rc.work_dir);
  std::printf("bench_round %s seed=%" PRIu64 " seconds=%g trace=%d "
              "decode_workers=%zu cpu=%d\n",
              std::string(spec.name).c_str(), rc.seed, o.seconds,
              o.trace ? 1 : 0, rc.decode_workers, ::sched_getcpu());
  calibrate();
  Verdict v;
  // Set-up takes a fraction of a second, a few ms on train_lstm, so one
  // sample per run is at the mercy of the machine's noise. The set-up-only
  // episodes also warm the process: without them the first measured
  // episode of tcp_async ran about 25% slower. --smoke runs one.
  RunConfig setup_only = rc;
  setup_only.commits = 1;
  const std::vector<EpisodeResult> setups =
      run_episodes(setup_only, o.smoke ? 1 : kSetupRepeats, nullptr);
  check(setup_only, setups, v);
  // The calibrations so far ran between the set-ups; the rest run during and
  // after the measured episodes.
  const Calibration setup_cal = calibration();
  std::vector<EpisodeResult> base;
  std::vector<EpisodeResult> traced;
  std::vector<Metric> metrics;
  if (!o.trace) {
    base = run_episodes(rc, episodes_for(spec, o.seconds), nullptr);
    metrics = end_to_end(base, setups);
  } else {
    const std::size_t half = episodes_for(spec, o.seconds / 2);
    base = run_episodes(rc, half, nullptr);
    Tracer tracer;
    traced = run_episodes(rc, half, &tracer);
    const std::vector<Probe> probes = run_probes(rc, probe_budget);
    Breakdown b;
    metrics = per_layer(rc, base, traced, probes, b);
    print_breakdown(b);
    double sum = 0.0;
    for (const auto& [label, s] : b.self_s) sum += s;
    // Named self times plus the untraced rest must add up to the measured
    // commit intervals.
    if (std::abs(sum - b.interval_s) > 0.01 * b.interval_s) {
      std::fprintf(stderr, "bench_round: breakdown sums to %.6f s of %.6f s\n",
                   sum, b.interval_s);
      v.correct = false;
    }
    if (!o.trace_file.empty()) {
      std::vector<const EpisodeTrace*> episodes;
      for (const auto& ep : traced) episodes.push_back(&ep.trace);
      write_chrome_trace(o.trace_file, std::string(spec.name), episodes);
      if (!trace_parses(o.trace_file)) {
        std::fprintf(stderr, "bench_round: trace %s is not valid\n",
                     o.trace_file.c_str());
        v.correct = false;
      }
    }
  }
  std::vector<EpisodeResult> all = base;
  for (auto& ep : traced) all.push_back(std::move(ep));
  check(rc, all, v);
  std::printf("  episodes=%zu of %zu commits (%zu warm-up)\n", all.size(),
              rc.commits, spec.warmup_commits);
  std::printf("  at this machine's speed:\n");
  print_metrics(metrics);
  const Calibration run_cal = calibration(setup_cal.samples);
  for (const auto& [phase, cal] : {std::pair{"set-ups", setup_cal},
                                   std::pair{"episodes", run_cal}}) {
    std::printf("  calibration, %s: %zu samples, core %.1f us (reference "
                "%.0f), memory %.1f us (reference %.0f): slowdown %.4f\n",
                phase, cal.samples, cal.core_us, kCoreRefUs, cal.memory_us,
                kMemoryRefUs, cal.slowdown());
  }
  if (!o.trace) {
    // Every commit interval at the speed the machine had around it, and
    // setup_s at its speed during the set-ups.
    for (auto& ep : base) to_reference_speed(ep, spec.warmup_commits);
    metrics = end_to_end(base, setups);
    for (Metric& m : metrics) {
      if (m.name == "setup_s") at_reference_speed(m, setup_cal.slowdown());
    }
  } else {
    for (Metric& m : metrics) at_reference_speed(m, run_cal.slowdown());
  }
  std::printf("  at the reference speed:\n");
  print_metrics(metrics);
  // Deterministic per seed: recorded by --all and compared across repeats
  // and by bench_round_compare.
  std::printf("final_acc=%.6f\n", all.back().final_acc);
  std::printf("params_crc32c=%08" PRIx32 "\n", all.front().params_crc);
  std::printf("%s\n",
              result_line(v.correct, v.attempted, v.failed, metrics).c_str());
  std::fflush(stdout);
  return v.correct ? 0 : 1;
}

// --------------------------------------------------------------- --smoke --

int run_smoke(Options o) {
  o.trace = true;
  o.seconds = 0.0;  // one untraced and one traced episode each
  const std::string trace_file =
      o.trace_file.empty() ? o.work_dir + "/smoke_trace.json" : o.trace_file;
  int rc = 0;
  for (const WorkloadSpec& spec : kWorkloads) {
    o.trace_file = trace_file;
    if (run_one(o, spec, 0.002) != 0) rc = 1;
  }
  return rc;
}

// ----------------------------------------------------------------- --all --

std::string shell_line(const char* cmd) {
  std::string out;
  if (FILE* p = ::popen(cmd, "r")) {
    char buf[256];
    while (std::fgets(buf, sizeof buf, p) != nullptr) out += buf;
    ::pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string provenance(const Options& o) {
  const std::string sha = shell_line("git rev-parse HEAD 2>/dev/null");
  // Dirty means the measured code differs from the commit: the library or
  // the benchmark itself.
  const bool dirty =
      !shell_line("git status --porcelain -- src bench/round 2>/dev/null")
           .empty();
  char date[32];
  const std::time_t now = std::time(nullptr);
  std::strftime(date, sizeof date, "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  std::string workers;
  for (const std::size_t k : o.decode_workers) {
    workers += (workers.empty() ? "" : ",") + std::to_string(k);
  }
  std::string p = "{";
  p += "\"git_sha\": " + json_string(sha.empty() ? "unknown" : sha);
  p += ", \"git_dirty\": " + std::string(dirty ? "true" : "false");
  p += ", \"date\": " + json_string(date);
  p += ", \"cpu\": " + json_string(cpu_model());
  p += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  p += ", \"pinned_cpu\": " + std::to_string(::sched_getcpu());
  p += ", \"compiler\": " + json_string(BENCH_ROUND_COMPILER);
  p += ", \"build_type\": " + json_string(BENCH_ROUND_BUILD_TYPE);
  p += ", \"cxx_flags\": " + json_string(BENCH_ROUND_CXX_FLAGS);
  p += ", \"fedbiad_portable\": " +
       std::string(BENCH_ROUND_PORTABLE ? "true" : "false");
  p += ", \"seed\": " + std::to_string(o.seed);
  p += ", \"seconds\": " + json_number(o.seconds);
  p += ", \"repeats\": " + std::to_string(o.repeats);
  p += ", \"train_threads\": " + std::to_string(kTrainThreads);
  p += ", \"decode_workers\": " + json_string(workers.empty() ? "default"
                                                              : workers);
  return p + "}";
}

struct Child {
  int exit_code = -1;
  std::string out;
};

/// Runs this executable with `args`, capturing stdout; stderr passes through.
Child run_child(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  int fds[2];
  FEDBIAD_CHECK(::pipe(fds) == 0, "pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int err = ::posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                                argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  Child child;
  if (err == 0) {
    char buf[4096];
    for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) != 0;) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) break;
      child.out.append(buf, static_cast<std::size_t>(n));
    }
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    child.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  }
  ::close(fds[0]);
  return child;
}

int run_all(const Options& o) {
  std::vector<const WorkloadSpec*> specs;
  for (const WorkloadSpec& s : kWorkloads) {
    if (o.workloads.empty() ||
        std::find(o.workloads.begin(), o.workloads.end(), s.name) !=
            o.workloads.end()) {
      specs.push_back(&s);
    }
  }
  std::vector<std::optional<std::size_t>> worker_counts;
  for (const std::size_t k : o.decode_workers) worker_counts.emplace_back(k);
  if (worker_counts.empty()) worker_counts.emplace_back();

  // One cell per (workload, decode workers); repeats are the outer loop, so
  // the cells alternate and slow drift of the machine spreads over all of
  // them instead of favouring the ones that ran last.
  struct Cell {
    const WorkloadSpec* spec;
    std::string config;
    std::vector<std::string> args;
    std::string first_crc;
  };
  std::vector<Cell> cells;
  for (const WorkloadSpec* spec : specs) {
    for (const auto& workers : worker_counts) {
      Cell cell{spec, "", {"bench_round", "--workload", std::string(spec->name),
                           "--seed", std::to_string(o.seed), "--seconds",
                           json_number(o.seconds), "--trace", "0",
                           "--work-dir", o.work_dir}, ""};
      if (workers) {
        cell.args.insert(cell.args.end(),
                         {"--decode-workers", std::to_string(*workers)});
        cell.config = "decode_workers=" + std::to_string(*workers);
      }
      cells.push_back(std::move(cell));
    }
  }

  std::string runs;
  bool ok = true;
  std::printf("%-14s %-28s %-4s %s\n", "workload", "config", "rep", "result");
  for (std::size_t rep = 1; rep <= o.repeats; ++rep) {
    for (Cell& cell : cells) {
      const Child child = run_child(cell.args);
      std::string crc, acc = "null", result;
      std::istringstream lines(child.out);
      for (std::string line; std::getline(lines, line);) {
        if (line.rfind("params_crc32c=", 0) == 0) crc = line.substr(14);
        if (line.rfind("final_acc=", 0) == 0) {
          acc = json_number(std::strtod(line.c_str() + 10, nullptr));
        }
        if (!line.empty()) result = line;
      }
      bool parsed = false;
      try {
        parsed =
            scenario::json::Value::parse(result).find("metrics") != nullptr;
      } catch (const std::exception&) {
      }
      if (!parsed) result = "{\"correct\": false, \"metrics\": {}}";
      if (cell.first_crc.empty()) cell.first_crc = crc;
      const bool repeatable =
          !cell.spec->deterministic || crc == cell.first_crc;
      if (child.exit_code != 0 || !parsed || !repeatable) ok = false;
      std::printf("%-14s %-28s %-4zu exit=%d crc=%s final_acc=%s%s\n",
                  std::string(cell.spec->name).c_str(), cell.config.c_str(),
                  rep, child.exit_code, crc.c_str(), acc.c_str(),
                  repeatable ? "" : "  (differs from repeat 1)");
      std::fflush(stdout);
      // The result line's keys follow the run identification.
      runs += std::string(runs.empty() ? "" : ",\n") +
              "  {\"workload\": " + json_string(std::string(cell.spec->name)) +
              ", \"config\": " + json_string(cell.config) +
              ", \"repeat\": " + std::to_string(rep) +
              ", \"exit_code\": " + std::to_string(child.exit_code) +
              ", \"params_crc32c\": " + json_string(crc) +
              ", \"final_acc\": " + acc + ", " + result.substr(1);
    }
  }
  const std::string doc = "{\"provenance\": " + provenance(o) +
                          ",\n\"runs\": [\n" + runs + "\n]}\n";
  const std::string path =
      o.out.empty() ? o.work_dir + "/all_runs.json" : o.out;
  std::filesystem::create_directories(
      std::filesystem::absolute(path).parent_path());
  {
    std::ofstream f(path);
    f << doc;
    f.flush();
    FEDBIAD_CHECK(f.good(), "cannot write " + path);
  }
  // Every metric's median over the runs, by workload.
  std::map<std::string, std::map<std::string, std::vector<double>>> values;
  std::map<std::string, std::string> units;
  for (const RunRecord& r : read_runs(path)) {
    for (const auto& [name, v] : r.metrics) values[r.key()][name].push_back(v);
    units.insert(r.units.begin(), r.units.end());
  }
  std::printf("\nmedians over %zu repeat(s):\n", o.repeats);
  for (const auto& [key, metrics] : values) {
    std::printf("%s\n", key.c_str());
    for (const auto& [name, xs] : metrics) {
      std::printf("  %-26s %16.6g %s\n", name.c_str(), median(xs),
                  units[name].c_str());
    }
  }
  std::printf("wrote %s\n", path.c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace fedbiad::bench_round

int main(int argc, char** argv) {
  using namespace fedbiad::bench_round;
  try {
    const Options o = parse(argc, argv);
    pin_to_one_cpu();
    if (o.all) return run_all(o);
    if (o.smoke) return run_smoke(o);
    return run_one(o, *find_workload(o.workload), 0.04);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_round: %s\n", e.what());
    return 1;
  }
}
