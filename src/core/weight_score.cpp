#include "core/weight_score.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.hpp"

namespace fedbiad::core {

void WeightScoreVector::update(const DropPattern& held, bool loss_decreased,
                               const DropPattern& next) {
  FEDBIAD_CHECK(held.rows() == rows() && next.rows() == rows(),
                "pattern/score size mismatch");
  for (std::size_t j = 0; j < rows(); ++j) {
    if (!held.kept(j)) continue;  // eq. 9 updates only currently-held rows
    if (loss_decreased) {
      scores_[j] += 1.0;
    } else if (next.kept(j)) {
      scores_[j] += 1.0;  // e_j = 1 ⇔ β^{k,v+1}_j = 1
    }
  }
}

double WeightScoreVector::quantile(double p) const {
  FEDBIAD_CHECK(!scores_.empty(), "quantile of empty score vector");
  FEDBIAD_CHECK(p >= 0.0 && p <= 1.0, "quantile level must be in [0,1]");
  // Only the order statistics at ⌊pos⌋ and ⌊pos⌋+1 matter, so one
  // nth_element partition (O(n)) replaces the full sort (O(n log n)) this
  // used to do per drop-pattern refresh; the upper neighbour is the
  // minimum of the partition's right half.
  std::vector<double> v = scores_;
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  const auto nth = v.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(v.begin(), nth, v.end());
  const double lo_val = *nth;
  if (frac == 0.0 || lo + 1 >= v.size()) return lo_val;
  const double hi_val = *std::min_element(nth + 1, v.end());
  return lo_val * (1.0 - frac) + hi_val * frac;
}

DropPattern WeightScoreVector::make_pattern(const nn::ParameterStore& store,
                                            double dropout_rate,
                                            const RowFilter& eligible,
                                            tensor::Rng& rng) const {
  FEDBIAD_CHECK(rows() == store.droppable_rows(), "score/store mismatch");
  DropPattern pattern(rows());
  for (std::size_t g = 0; g < store.groups().size(); ++g) {
    const nn::RowGroup& grp = store.group(g);
    if (!eligible(grp)) continue;
    const auto to_drop = static_cast<std::size_t>(
        std::llround(dropout_rate * static_cast<double>(grp.rows)));
    if (to_drop == 0) continue;
    FEDBIAD_CHECK(to_drop < grp.rows,
                  "dropout rate would drop the whole group " + grp.name);
    // Rank rows by (score, random tie-break) ascending; drop the lowest.
    std::vector<std::size_t> order(grp.rows);
    std::iota(order.begin(), order.end(), 0);
    std::vector<double> tie(grp.rows);
    for (auto& t : tie) t = rng.uniform();
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const double sa = scores_[store.droppable_index(g, a)];
      const double sb = scores_[store.droppable_index(g, b)];
      if (sa != sb) return sa < sb;
      return tie[a] < tie[b];
    });
    for (std::size_t i = 0; i < to_drop; ++i) {
      pattern.set(store.droppable_index(g, order[i]), false);
    }
  }
  return pattern;
}

}  // namespace fedbiad::core
