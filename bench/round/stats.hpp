// Order statistics shared by the benchmark and the compare tool.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace fedbiad::bench_round {

/// Linear-interpolation percentile, q in [0, 1]; 0 for no samples.
[[nodiscard]] inline double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

[[nodiscard]] inline double median(std::vector<double> xs) {
  return percentile(std::move(xs), 0.5);
}

/// First and third quartile by the "exclusive" method (Python's
/// statistics.quantiles(xs, n=4) default), so spreads computed here match
/// the ones any other tool computes from the same values. Needs >= 2 values.
[[nodiscard]] inline std::pair<double, double> quartiles(
    std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const auto n = static_cast<long>(xs.size());
  auto cut = [&](long i) {
    long j = i * (n + 1) / 4;
    j = std::clamp(j, 1L, n - 1);
    const long delta = i * (n + 1) - j * 4;
    return (xs[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            xs[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  return {cut(1), cut(3)};
}

}  // namespace fedbiad::bench_round
