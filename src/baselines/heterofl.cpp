#include "baselines/heterofl.hpp"

#include <algorithm>

#include "baselines/local_train.hpp"
#include "common/check.hpp"

namespace fedbiad::baselines {

HeteroFlStrategy::HeteroFlStrategy(WidthPlan plan, std::vector<double> levels)
    : HeteroFlStrategy(std::move(plan), std::move(levels), "HeteroFL") {}

HeteroFlStrategy::HeteroFlStrategy(WidthPlan plan, std::vector<double> levels,
                                   std::string name)
    : plan_(std::move(plan)),
      levels_(std::move(levels)),
      name_(std::move(name)) {
  FEDBIAD_CHECK(!levels_.empty(), "need at least one width level");
  for (const double s : levels_) {
    FEDBIAD_CHECK(s > 0.0 && s <= 1.0, "width levels must be in (0,1]");
  }
}

HeteroFlStrategy HeteroFlStrategy::fjord(WidthPlan plan, double dropout_rate) {
  return {std::move(plan), {1.0 - dropout_rate}, "FjORD"};
}

std::vector<double> HeteroFlStrategy::default_levels(double dropout_rate) {
  const double s = 1.0 - dropout_rate;
  return {1.0, std::max(0.25, s), std::max(0.25, s / 2.0)};
}

fl::ClientOutcome HeteroFlStrategy::run_client(fl::ClientContext& ctx) {
  nn::ParameterStore& store = ctx.model.store();
  const double ratio = levels_[ctx.client_id % levels_.size()];
  const auto pattern = plan_.pattern(store, ratio);
  const auto stats = train_rounds(ctx, &pattern);

  fl::ClientOutcome out;
  out.samples = ctx.shard.size();
  out.payload = plan_.encode_submodel(store, ratio, store.params());
  out.is_update = false;
  out.mean_loss = stats.mean_loss;
  out.last_loss = stats.last_loss;
  return out;
}

wire::CompactUpdate HeteroFlStrategy::decode_payload_compact(
    const nn::ParameterStore& layout, const wire::Payload& payload) const {
  // The client's ratio travels in the payload, so decoding needs no client
  // identity — only the shared plan.
  return plan_.decode_submodel(layout, payload);
}

}  // namespace fedbiad::baselines
