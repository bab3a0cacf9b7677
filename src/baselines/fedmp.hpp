// FedMP (Jiang et al., ICDE 2022): magnitude pruning — each client trains
// densely, then prunes the p-fraction of weights with the lowest absolute
// values before uploading ("without considering their effect on training
// loss", paper §II). Pruning is unstructured, so kept weights need position
// metadata: the upload carries an occupancy bitmap or delta-varint
// positions, whichever is smaller (kPrunedBitmap / kPrunedVarint in the
// wire-format section of docs/ARCHITECTURE.md).
#pragma once

#include "fl/strategy.hpp"

namespace fedbiad::baselines {

class FedMpStrategy final : public fl::Strategy {
 public:
  explicit FedMpStrategy(double prune_rate);

  [[nodiscard]] std::string name() const override { return "FedMP"; }
  fl::ClientOutcome run_client(fl::ClientContext& ctx) override;

 private:
  double prune_rate_;
};

}  // namespace fedbiad::baselines
