// Probes: warm, timed calls to public library functions on the workload's
// own shapes and data, run after the traced episodes. Each reports the
// median per-call time over a short fixed budget.
#pragma once

#include <string>
#include <vector>

#include "episodes.hpp"

namespace fedbiad::bench_round {

struct Probe {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// `budget_s` bounds each probe's timed loop.
[[nodiscard]] std::vector<Probe> run_probes(const RunConfig& cfg,
                                            double budget_s);

}  // namespace fedbiad::bench_round
