#include "baselines/fedmp.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "baselines/local_train.hpp"
#include "common/check.hpp"
#include "wire/update_codec.hpp"

namespace fedbiad::baselines {

FedMpStrategy::FedMpStrategy(double prune_rate) : prune_rate_(prune_rate) {
  FEDBIAD_CHECK(prune_rate >= 0.0 && prune_rate < 1.0,
                "prune rate must be in [0,1)");
}

fl::ClientOutcome FedMpStrategy::run_client(fl::ClientContext& ctx) {
  const auto stats = train_rounds(ctx, nullptr);
  nn::ParameterStore& store = ctx.model.store();
  const std::size_t n = store.size();

  auto params = store.params();
  std::vector<std::uint8_t> mask(n, 1);
  if (prune_rate_ > 0.0) {
    // Global magnitude threshold over every parameter.
    std::vector<float> magnitudes(n);
    for (std::size_t i = 0; i < n; ++i) magnitudes[i] = std::abs(params[i]);
    const auto cut = static_cast<std::size_t>(
        std::llround(prune_rate_ * static_cast<double>(n)));
    std::nth_element(magnitudes.begin(),
                     magnitudes.begin() + static_cast<std::ptrdiff_t>(cut),
                     magnitudes.end());
    const float threshold = magnitudes[cut];
    for (std::size_t i = 0; i < n; ++i) {
      if (std::abs(params[i]) < threshold) mask[i] = 0;
    }
  }

  fl::ClientOutcome out;
  out.samples = ctx.shard.size();
  // Kept values plus whichever position encoding measures cheaper — a dense
  // 1-bit occupancy bitmap (good at low prune rates) or delta-varint indices
  // (good at high rates); encode_pruned picks.
  out.payload = wire::encode_pruned(store, mask, params);
  out.is_update = false;
  out.mean_loss = stats.mean_loss;
  out.last_loss = stats.last_loss;
  return out;
}

}  // namespace fedbiad::baselines
