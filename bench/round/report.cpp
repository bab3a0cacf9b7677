#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "scenario/json.hpp"

namespace fedbiad::bench_round {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string result_line(bool correct, std::size_t attempted,
                        std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}}";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  FEDBIAD_CHECK(static_cast<bool>(in), "cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<RunRecord> read_runs(const std::string& path) {
  const auto doc = scenario::json::Value::parse(read_file(path));
  const scenario::json::Value* runs = doc.find("runs");
  FEDBIAD_CHECK(runs != nullptr, path + ": no \"runs\" array");
  std::vector<RunRecord> out;
  for (const auto& r : runs->as_array()) {
    RunRecord rec;
    FEDBIAD_CHECK(r.find("workload") != nullptr, path + ": run without workload");
    rec.workload = r.find("workload")->as_string();
    if (const auto* cfg = r.find("config")) rec.config = cfg->as_string();
    if (const auto* ok = r.find("correct")) rec.correct = ok->as_bool();
    if (const auto* acc = r.find("final_acc"); acc != nullptr && acc->is_number()) {
      rec.final_acc = acc->as_number();
    }
    if (const auto* metrics = r.find("metrics")) {
      for (const auto& [name, m] : metrics->as_object()) {
        const auto* value = m.find("value");
        FEDBIAD_CHECK(value != nullptr && value->is_number(),
                      path + ": metric " + name + " has no numeric value");
        rec.metrics[name] = value->as_number();
        if (const auto* unit = m.find("unit")) {
          rec.units[name] = unit->as_string();
        }
      }
    }
    out.push_back(std::move(rec));
  }
  return out;
}

}  // namespace fedbiad::bench_round
