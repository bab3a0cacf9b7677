// Machine-speed calibration for bench_round.
//
// The benchmark runs on a CPU of a shared host whose speed drifts by tens of
// percent over seconds to minutes, even measured in CPU time (see README.md,
// "Times at the reference speed"). So every run interleaves two fixed
// kernels with its workload: about every 100 ms of CPU time from the commit
// hook, and after every episode:
//
//   core    a 64x64 float matrix product and a sort of 8192 integers, in
//           L1/L2: how fast the core computes right now;
//   memory  one read-modify-write per cache line over 8 MiB: how fast the
//           caches and memory serve it right now.
//
// The kernels are the benchmark's own code, built with fixed flags, so no
// change to the library can move them. Their times against the reference
// times give a slowdown, and a time the run reports is divided by the
// slowdown of the calibrations around it (a rate multiplied): times at the
// reference speed. The kernels' own CPU time is left out of now_s().
#pragma once

#include <cstddef>

namespace fedbiad::bench_round {

/// Runs both kernels and records their times. Call from one thread at a
/// time.
void calibrate();

/// calibrate() if kCalibrateEveryS of process CPU time has passed since the
/// kernels last ran (or they never have).
void calibrate_if_due();

/// CPU seconds the kernels have used so far; now_s() subtracts them.
[[nodiscard]] double calibration_s();

/// Median kernel times over a run of calibrations.
struct Calibration {
  std::size_t samples = 0;
  double core_us = 0.0;
  double memory_us = 0.0;

  /// Against the reference machine: the mean of core / kCoreRefUs and
  /// memory / kMemoryRefUs.
  [[nodiscard]] double slowdown() const;
};

/// The calibrations numbered `from` onwards (0 = the first of the process).
[[nodiscard]] Calibration calibration(std::size_t from = 0);

/// The slowdown of the kLocalCalibrations calibrations nearest to time `t`
/// of now_s(); 1 before the first calibration.
[[nodiscard]] double slowdown_at(double t);

}  // namespace fedbiad::bench_round
