#include "baselines/feddrop.hpp"

#include "baselines/local_train.hpp"
#include "common/check.hpp"
#include "wire/update_codec.hpp"

namespace fedbiad::baselines {

FedDropStrategy::FedDropStrategy(double dropout_rate)
    : dropout_rate_(dropout_rate) {
  FEDBIAD_CHECK(dropout_rate >= 0.0 && dropout_rate < 1.0,
                "dropout rate must be in [0,1)");
}

fl::ClientOutcome FedDropStrategy::run_client(fl::ClientContext& ctx) {
  nn::ParameterStore& store = ctx.model.store();
  const auto pattern = core::DropPattern::sample(
      store, dropout_rate_, core::eligible_dense(), ctx.rng);
  const auto stats = train_rounds(ctx, &pattern);

  fl::ClientOutcome out;
  out.samples = ctx.shard.size();
  out.payload = wire::encode_row_masked(store, pattern.bits(), store.params());
  out.is_update = false;
  out.mean_loss = stats.mean_loss;
  out.last_loss = stats.last_loss;
  return out;
}

}  // namespace fedbiad::baselines
