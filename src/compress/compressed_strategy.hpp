// FL strategies built around update compressors (paper Table II).
//
// SketchedStrategy: dense FedAvg-style local training followed by update
// compression — the "compress after training" family the paper contrasts
// with federated dropout.
//
// ComposedStrategy: a dropout strategy (FedBIAD / AFD / FjORD) whose masked
// update is then compressed — the paper's "FedBIAD+DGC" construction
// (Fig. 5): drop rows, compress the surviving variational parameters,
// upload; the server decompresses, reconstructs, and aggregates.
#pragma once

#include "compress/compressor.hpp"
#include "fl/client_state.hpp"
#include "fl/strategy.hpp"

namespace fedbiad::compress {

class SketchedStrategy final : public fl::Strategy {
 public:
  explicit SketchedStrategy(CompressorPtr compressor);

  [[nodiscard]] std::string name() const override {
    return compressor_->name();
  }
  fl::ClientOutcome run_client(fl::ClientContext& ctx) override;

 private:
  CompressorPtr compressor_;
  fl::ClientStateStore<CompressorState> states_;
};

class ComposedStrategy final : public fl::Strategy {
 public:
  ComposedStrategy(fl::StrategyPtr inner, CompressorPtr compressor);

  [[nodiscard]] std::string name() const override {
    return inner_->name() + "+" + compressor_->name();
  }
  void begin_round(std::size_t round,
                   std::span<const float> global_params) override {
    inner_->begin_round(round, global_params);
  }
  void end_round(std::size_t round, std::span<const float> old_global,
                 std::span<const float> new_global) override {
    inner_->end_round(round, old_global, new_global);
  }
  fl::ClientOutcome run_client(fl::ClientContext& ctx) override;
  /// Composed payloads are framed as [packed inner row pattern β][compressor
  /// section]; decoding expands β into the candidate set first.
  [[nodiscard]] wire::CompactUpdate decode_payload_compact(
      const nn::ParameterStore& layout,
      const wire::Payload& payload) const override;
  [[nodiscard]] double compute_cost_multiplier() const override {
    return inner_->compute_cost_multiplier();
  }

 private:
  fl::StrategyPtr inner_;
  CompressorPtr compressor_;
  fl::ClientStateStore<CompressorState> states_;
};

}  // namespace fedbiad::compress
