// Per-client heterogeneity profiles for the event-driven engine.
//
// The paper's LTTR/TTA analysis (§V-C) assumes one shared 5G link and
// identical devices; real federated populations are heterogeneous in both
// compute speed and bandwidth — the regime where stragglers dominate round
// time and adaptive dropout pays off most. A ClientProfile gives every
// client its own link rates and a compute-speed multiplier; profiles are
// drawn deterministically from an Rng stream so simulations stay
// reproducible from a single seed.
#pragma once

#include <cstdint>
#include <vector>

#include "netsim/link.hpp"
#include "tensor/rng.hpp"

namespace fedbiad::netsim {

/// One client's simulated device: link rates plus a compute model mapping
/// abstract work units (samples × local iterations) to virtual seconds.
struct ClientProfile {
  LinkModel link;                    ///< per-client up/down rates
  double compute_multiplier = 1.0;   ///< ≥ 1; slowdown vs the fastest tier
  double seconds_per_unit = 1e-3;    ///< virtual seconds per work unit at ×1

  [[nodiscard]] double compute_seconds(double work_units) const {
    return work_units * seconds_per_unit * compute_multiplier;
  }
  [[nodiscard]] double upload_seconds(std::uint64_t bytes) const {
    return link.upload_seconds(bytes);
  }
  [[nodiscard]] double download_seconds(std::uint64_t bytes) const {
    return link.download_seconds(bytes);
  }
};

/// How heterogeneous the client population is. The defaults describe a
/// homogeneous fleet on the base link — exactly the paper's setting — so
/// synchronous rounds over identical devices are the zero point of this
/// config.
struct HeterogeneityConfig {
  /// Virtual seconds per work unit for a multiplier-1 device. Work units
  /// are samples processed (local_iterations × batch), so the default puts
  /// one scaled-down local round in the hundreds of milliseconds.
  double seconds_per_unit = 1e-3;
  /// Compute multipliers are drawn log-uniformly from [1, compute_spread].
  /// 1 → every device identical.
  double compute_spread = 1.0;
  /// Link rates are scaled by a factor drawn log-uniformly from
  /// [1/bandwidth_spread, 1]. 1 → every link identical to the base link.
  double bandwidth_spread = 1.0;
  /// Fraction of clients that are stragglers: their compute multiplier is
  /// additionally multiplied by straggler_multiplier.
  double straggler_fraction = 0.0;
  double straggler_multiplier = 4.0;

  /// True when every field is at its homogeneous zero point.
  [[nodiscard]] bool homogeneous() const {
    return compute_spread <= 1.0 && bandwidth_spread <= 1.0 &&
           straggler_fraction <= 0.0;
  }
};

/// Validates a heterogeneity config (throws CheckError on a bad field).
/// Shared by make_profiles and lazy-profile callers so every entry point
/// enforces the same invariants.
void check_heterogeneity(const HeterogeneityConfig& cfg);

/// Draws one client profile, consuming exactly three uniforms from `rng`
/// regardless of the config — the fixed draw budget is the determinism
/// contract that lets a lazy materializer (fl::ClientRegistry) reconstruct
/// client i's profile from a saved stream state without drawing the i-1
/// profiles before it. make_profiles is a loop over this function.
ClientProfile draw_profile(const HeterogeneityConfig& cfg,
                           const LinkModel& base, tensor::Rng& rng);

/// Draws `n` client profiles from `rng`. Deterministic: the same (config,
/// base link, rng state) always yields the same fleet. With the default
/// config every profile equals the base link at multiplier 1.
std::vector<ClientProfile> make_profiles(std::size_t n,
                                         const HeterogeneityConfig& cfg,
                                         const LinkModel& base,
                                         tensor::Rng rng);

}  // namespace fedbiad::netsim
