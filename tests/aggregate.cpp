#include "aggregate.hpp"

#include "common/check.hpp"

namespace fedbiad::reference {

void aggregate(std::span<float> global_params,
               std::span<const fl::ClientOutcome> outcomes,
               fl::AggregationRule rule) {
  FEDBIAD_CHECK(!outcomes.empty(), "aggregate with no client outcomes");
  const std::size_t n = global_params.size();
  const bool is_update = outcomes.front().is_update;
  double total_weight = 0.0;
  for (const fl::ClientOutcome& o : outcomes) {
    FEDBIAD_CHECK(o.values.size() == n && o.present.size() == n,
                  "client outcome size mismatch");
    FEDBIAD_CHECK(o.is_update == is_update,
                  "cannot mix parameter and update outcomes");
    FEDBIAD_CHECK(o.samples > 0, "client outcome without samples");
    total_weight += static_cast<double>(o.samples);
  }
  const bool masked = rule == fl::AggregationRule::kMaskedAverage;
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    double present_weight = 0.0;
    for (const fl::ClientOutcome& o : outcomes) {
      if (!o.present.test(i)) continue;
      const double w = static_cast<double>(o.samples);
      acc += w * static_cast<double>(o.values[i]);
      present_weight += w;
    }
    const double denom = masked ? total_weight : present_weight;
    if (is_update) {
      // Missing coordinates simply receive no update.
      if (denom > 0.0) global_params[i] += static_cast<float>(acc / denom);
    } else if (masked || present_weight > 0.0) {
      // Per-coordinate normalization keeps the previous global value where
      // no client transmitted.
      global_params[i] = static_cast<float>(acc / denom);
    }
  }
}

}  // namespace fedbiad::reference
