// Local optimizer: SGD with optional global-norm gradient clipping and L2
// weight decay.
//
// The weight-decay term is the practical stand-in for the KL term of the
// variational objective (paper eq. 2: "The second item ... has been proven
// to approximate L2 regularisation").
#pragma once

#include <cstdint>
#include <span>

#include "nn/parameter_store.hpp"

namespace fedbiad::nn {

struct SgdConfig {
  float lr = 0.1F;            ///< learning rate η (paper eq. 7)
  float weight_decay = 0.0F;  ///< KL-as-L2 coefficient
  float clip_norm = 0.0F;     ///< global grad-norm clip; 0 disables
};

/// Applies one SGD step: params -= lr * (grads + weight_decay * params),
/// after clipping the global gradient norm if configured.
///
/// `kept` (empty = the whole store) is a dropout pattern's β, one byte per
/// weight row: the step then norms and updates only the kept rows, run by
/// run (nn::for_each_kept_run), and never reads or writes a dropped row.
/// That is bit-identical to zeroing the dropped rows' gradients, stepping
/// the whole store and zeroing their parameters again, provided those
/// parameters are +0 on entry — their squared gradients would add exactly
/// +0 to the norm and the update would leave them at +0.
///
/// The clip norm is summed in vector lanes and certified against the serial
/// left-to-right sum (tensor::squared_norm): the clip scale — hence every
/// parameter — is always exactly the serial sum's, recomputing that sum in
/// the rare case the lane sum's error bound cannot decide it.
///
/// Returns the pre-clip gradient norm (useful for diagnostics): the lane
/// norm, within 2(n+16)·2^-53 relative of the serial norm over the n
/// stepped coordinates, and exactly the serial norm when the recomputation
/// ran.
double sgd_step(ParameterStore& store, const SgdConfig& cfg,
                std::span<const std::uint8_t> kept = {});

}  // namespace fedbiad::nn
