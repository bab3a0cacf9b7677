// bench_round_compare: compares two result files of bench_round runs metric
// by metric against the regression bounds in BENCHMARK.json.
//
//   bench_round_compare [--benchmark BENCHMARK.json] BASE.json NEW.json
//
// Every run of BASE is compared with every run of NEW; each side needs at
// least 5 runs per workload. For every (workload, end-to-end metric) it
// prints both medians and quartiles and a verdict:
//   regressed   the new median is worse by more than the bound
//   improved    the new median is better by more than the bound
//   unchanged   within the bound either way
//   unresolved  a side's quartile spread is wider than the bound, unless
//               every new run reads better (improved) or worse (regressed)
//               than every base run
// The final accuracy, which each run records beside its metrics, gets the
// same verdicts with an absolute bound of 0.005.
// Exit status: 0 without regressions, 1 with any, 2 on unusable input.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "report.hpp"
#include "scenario/json.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace fedbiad::bench_round {
namespace {

constexpr std::size_t kMinRuns = 5;

struct Bound {
  std::string name;
  std::string unit;
  bool lower_is_better = true;
  double bound = 0.0;
  bool absolute = false;  ///< bound on the difference, not on the ratio
};

/// The final accuracy's row: not a BENCHMARK.json metric, since it is a
/// function of the seed, but a change may not lower it.
const Bound kFinalAcc{"final_acc", "frac", false, kFinalAccTolerance, true};

std::vector<Bound> read_bounds(const std::string& path) {
  const auto doc = scenario::json::Value::parse(read_file(path));
  const auto* e2e = doc.find("end_to_end");
  FEDBIAD_CHECK(e2e != nullptr, path + ": no end_to_end list");
  std::vector<Bound> out;
  for (const auto& m : e2e->as_array()) {
    auto field = [&](const char* key) -> const scenario::json::Value& {
      const auto* v = m.find(key);
      FEDBIAD_CHECK(v != nullptr, path + ": end_to_end entry lacks " + key);
      return *v;
    };
    Bound b;
    b.name = field("name").as_string();
    b.unit = field("unit").as_string();
    b.lower_is_better = field("better").as_string() == "lower";
    b.bound = field("bound").as_number();
    out.push_back(b);
  }
  return out;
}

using Groups = std::map<std::string, std::vector<const RunRecord*>>;

Groups group(const std::vector<RunRecord>& runs) {
  Groups g;
  for (const RunRecord& r : runs) {
    // A run that failed an output check measured something else.
    FEDBIAD_CHECK(r.correct, r.key() + ": a run failed its output checks");
    g[r.key()].push_back(&r);
  }
  return g;
}

struct Side {
  std::vector<double> values;
  double med = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;

  [[nodiscard]] double spread(bool absolute) const {
    if (absolute) return q3 - q1;
    return med == 0.0 ? 0.0 : (q3 - q1) / std::abs(med);
  }
};

Side side(const std::vector<const RunRecord*>& runs, const std::string& name) {
  Side s;
  for (const RunRecord* r : runs) {
    if (name == kFinalAcc.name) {
      if (r->final_acc) s.values.push_back(*r->final_acc);
      continue;
    }
    const auto it = r->metrics.find(name);
    if (it != r->metrics.end()) s.values.push_back(it->second);
  }
  if (s.values.size() >= 2) {
    s.med = median(s.values);
    std::tie(s.q1, s.q3) = quartiles(s.values);
  }
  return s;
}

int run(int argc, char** argv) {
  std::string benchmark = "BENCHMARK.json";
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--benchmark" && i + 1 < argc) {
      benchmark = argv[++i];
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_round_compare [--benchmark BENCHMARK.json] "
                 "BASE.json NEW.json\n");
    return 2;
  }
  std::vector<Bound> bounds = read_bounds(benchmark);
  bounds.push_back(kFinalAcc);
  const std::vector<RunRecord> base_runs = read_runs(files[0]);
  const std::vector<RunRecord> new_runs = read_runs(files[1]);
  const Groups base = group(base_runs);
  const Groups next = group(new_runs);

  std::size_t regressed = 0, improved = 0, unresolved = 0, unchanged = 0;
  bool header = false;
  for (const auto& [key, a_runs] : base) {
    const auto b_it = next.find(key);
    if (b_it == next.end()) {
      std::fprintf(stderr, "bench_round_compare: %s only in the base\n",
                   key.c_str());
      return 2;
    }
    if (a_runs.size() < kMinRuns || b_it->second.size() < kMinRuns) {
      std::fprintf(stderr,
                   "bench_round_compare: %s has %zu and %zu runs; need %zu "
                   "per side\n",
                   key.c_str(), a_runs.size(), b_it->second.size(), kMinRuns);
      return 2;
    }
    for (const Bound& bound : bounds) {
      const Side a = side(a_runs, bound.name);
      const Side b = side(b_it->second, bound.name);
      if (a.values.size() < kMinRuns || b.values.size() < kMinRuns) {
        std::fprintf(stderr, "bench_round_compare: %s lacks %s\n", key.c_str(),
                     bound.name.c_str());
        return 2;
      }
      // Signed change, relative unless the bound is absolute; positive =
      // worse.
      const double sign = bound.lower_is_better ? 1.0 : -1.0;
      const double change =
          bound.absolute || a.med == 0.0
              ? sign * (b.med - a.med)
              : sign * (b.med - a.med) / std::abs(a.med);
      const auto worse = [&](double x, double y) { return sign * (x - y) > 0; };
      const bool all_better = std::all_of(
          b.values.begin(), b.values.end(), [&](double v) {
            return std::all_of(a.values.begin(), a.values.end(),
                               [&](double u) { return worse(u, v); });
          });
      const bool all_worse = std::all_of(
          b.values.begin(), b.values.end(), [&](double v) {
            return std::all_of(a.values.begin(), a.values.end(),
                               [&](double u) { return worse(v, u); });
          });
      const char* verdict = "unchanged";
      if (std::max(a.spread(bound.absolute), b.spread(bound.absolute)) >
          bound.bound) {
        verdict = change < -bound.bound && all_better  ? "improved"
                  : change > bound.bound && all_worse ? "regressed"
                                                      : "unresolved";
      } else if (change > bound.bound) {
        verdict = "regressed";
      } else if (change < -bound.bound) {
        verdict = "improved";
      }
      const std::string v = verdict;
      regressed += v == "regressed";
      improved += v == "improved";
      unresolved += v == "unresolved";
      unchanged += v == "unchanged";
      if (!header) {
        std::printf("%-24s %-24s %-5s %14s %24s %14s %24s %8s %6s  %s\n",
                    "workload", "metric", "unit", "base median",
                    "base [q1, q3]", "new median", "new [q1, q3]", "change",
                    "bound", "verdict");
        header = true;
      }
      char a_iqr[64], b_iqr[64], delta[32], limit[32];
      std::snprintf(a_iqr, sizeof a_iqr, "[%.6g, %.6g]", a.q1, a.q3);
      std::snprintf(b_iqr, sizeof b_iqr, "[%.6g, %.6g]", b.q1, b.q3);
      if (bound.absolute) {
        std::snprintf(delta, sizeof delta, "%+.4f", change);
        std::snprintf(limit, sizeof limit, "%.3f", bound.bound);
      } else {
        std::snprintf(delta, sizeof delta, "%+.2f%%", 100.0 * change);
        std::snprintf(limit, sizeof limit, "%.1f%%", 100.0 * bound.bound);
      }
      std::printf("%-24s %-24s %-5s %14.6g %24s %14.6g %24s %8s %6s  %s\n",
                  key.c_str(), bound.name.c_str(), bound.unit.c_str(), a.med,
                  a_iqr, b.med, b_iqr, delta, limit, verdict);
    }
  }
  std::printf("\n%zu regressed, %zu improved, %zu unchanged, %zu unresolved\n",
              regressed, improved, unchanged, unresolved);
  return regressed > 0 ? 1 : 0;
}

}  // namespace
}  // namespace fedbiad::bench_round

int main(int argc, char** argv) {
  try {
    return fedbiad::bench_round::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_round_compare: %s\n", e.what());
    return 2;
  }
}
