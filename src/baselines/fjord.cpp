#include "baselines/fjord.hpp"

#include "baselines/local_train.hpp"
#include "common/check.hpp"

namespace fedbiad::baselines {

FjordStrategy::FjordStrategy(WidthPlan plan, double dropout_rate)
    : plan_(std::move(plan)), ratio_(1.0 - dropout_rate) {
  FEDBIAD_CHECK(ratio_ > 0.0 && ratio_ <= 1.0,
                "dropout rate must leave a positive width");
}

fl::ClientOutcome FjordStrategy::run_client(fl::ClientContext& ctx) {
  nn::ParameterStore& store = ctx.model.store();
  std::vector<std::uint8_t> mask(store.size(), 1);
  plan_.build_mask(store, ratio_, mask);
  const auto stats = train_rounds_masked(ctx, mask);

  fl::ClientOutcome out;
  out.samples = ctx.shard.size();
  out.payload = plan_.encode_submodel(store, ratio_, store.params());
  out.is_update = false;
  out.mean_loss = stats.mean_loss;
  out.last_loss = stats.last_loss;
  return out;
}

wire::CompactUpdate FjordStrategy::decode_payload_compact(
    const nn::ParameterStore& layout, const wire::Payload& payload) const {
  return plan_.decode_submodel(layout, payload);
}

}  // namespace fedbiad::baselines
