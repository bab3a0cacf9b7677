// Result formats shared by bench_round and bench_round_compare.
//
// A run prints, as the last line of stdout, one JSON object:
//   {"correct": true, "attempted": N, "failed": F,
//    "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}
// A result file (bench_round --all --out F) holds a provenance block and
// every run's parsed result line:
//   {"provenance": {...}, "runs": [{"workload": "...", "config": "...",
//    "repeat": 1, "exit_code": 0, "params_crc32c": "...", "final_acc": A,
//    "correct": true, "attempted": N, "failed": F, "metrics": {...}}]}
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace fedbiad::bench_round {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Shortest round-trip decimal form of `v` ("%.17g"); JSON null if not
/// finite.
[[nodiscard]] std::string json_number(double v);

/// JSON string literal with the mandatory escapes.
[[nodiscard]] std::string json_string(const std::string& s);

/// The one-line result object a run prints last.
[[nodiscard]] std::string result_line(bool correct, std::size_t attempted,
                                      std::size_t failed,
                                      const std::vector<Metric>& metrics);

[[nodiscard]] std::string read_file(const std::string& path);

/// One run as stored in a result file.
struct RunRecord {
  std::string workload;
  std::string config;  ///< non-default settings, e.g. "decode_workers=2"
  bool correct = false;
  std::optional<double> final_acc;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> units;

  /// The comparison key: workload plus any non-default settings.
  [[nodiscard]] std::string key() const {
    return config.empty() ? workload : workload + "[" + config + "]";
  }
};

/// Parses a result file's runs (throws CheckError on malformed input).
[[nodiscard]] std::vector<RunRecord> read_runs(const std::string& path);

}  // namespace fedbiad::bench_round
