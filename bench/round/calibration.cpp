#include "calibration.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <ctime>
#include <mutex>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace fedbiad::bench_round {
namespace {

double cpu_s(clockid_t clock) {
  timespec t{};
  ::clock_gettime(clock, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

// Results go to volatile sinks so the compiler keeps the work.
volatile float g_float_sink = 0.0F;
volatile std::uint64_t g_int_sink = 0;

constexpr int kN = 64;

void core_kernel() {
  alignas(64) static float a[kN * kN], b[kN * kN], c[kN * kN];
  static const bool filled = [] {
    for (int i = 0; i < kN * kN; ++i) {
      a[i] = 0.001F * static_cast<float>(i % 97);
      b[i] = 0.002F * static_cast<float>(i % 89);
    }
    return true;
  }();
  (void)filled;
  for (int rep = 0; rep < 8; ++rep) {
    std::fill(c, c + kN * kN, 0.0F);
    for (int i = 0; i < kN; ++i) {
      for (int k = 0; k < kN; ++k) {
        const float x = a[i * kN + k] + 1e-3F * static_cast<float>(rep);
        for (int j = 0; j < kN; ++j) c[i * kN + j] += x * b[k * kN + j];
      }
    }
  }
  g_float_sink = c[kN + 1];

  static std::vector<std::uint32_t> keys(8192);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;  // xorshift64: the same keys
  for (auto& k : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = static_cast<std::uint32_t>(x);
  }
  std::sort(keys.begin(), keys.end());
  g_int_sink = keys[17];
}

void memory_kernel() {
  static std::vector<std::uint64_t> buf(std::size_t{1} << 20, 1);  // 8 MiB
  std::uint64_t s = 0;
  for (std::size_t i = 0; i < buf.size(); i += 8) {  // one word per line
    s += buf[i];
    buf[i] = s;
  }
  g_int_sink = s;
}

/// One calibration: when it began, on the benchmark's clock, and how long
/// each kernel took.
struct Sample {
  double at = 0.0;
  double core_us = 0.0;
  double memory_us = 0.0;
};

std::mutex g_mutex;
std::vector<Sample> g_samples;  ///< in time order
double g_last = -1.0;  ///< process CPU seconds at the last calibration
std::atomic<std::int64_t> g_spent_ns{0};

/// Median kernel times of samples [first, last); needs first < last.
Calibration summarize(std::size_t first, std::size_t last) {
  std::vector<double> core, memory;
  for (std::size_t i = first; i < last; ++i) {
    core.push_back(g_samples[i].core_us);
    memory.push_back(g_samples[i].memory_us);
  }
  return {last - first, median(std::move(core)), median(std::move(memory))};
}

}  // namespace

void calibrate() {
  const double at = now_s();
  // The thread clock: another thread of the process that preempts this one
  // is not charged to the kernels.
  const double t0 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
  core_kernel();
  const double t1 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
  memory_kernel();
  const double t2 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
  g_spent_ns.fetch_add(static_cast<std::int64_t>(1e9 * (t2 - t0)));
  g_last = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
  std::scoped_lock lock(g_mutex);
  g_samples.push_back({at, 1e6 * (t1 - t0), 1e6 * (t2 - t1)});
}

void calibrate_if_due() {
  const double now = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
  if (g_last < 0.0 || now - g_last >= kCalibrateEveryS) calibrate();
}

double calibration_s() { return 1e-9 * static_cast<double>(g_spent_ns.load()); }

double Calibration::slowdown() const {
  return 0.5 * (core_us / kCoreRefUs + memory_us / kMemoryRefUs);
}

Calibration calibration(std::size_t from) {
  std::scoped_lock lock(g_mutex);
  if (from >= g_samples.size()) return {};
  return summarize(from, g_samples.size());
}

double slowdown_at(double t) {
  std::scoped_lock lock(g_mutex);
  const std::size_t n = g_samples.size();
  if (n == 0) return 1.0;
  const std::size_t k = std::min(kLocalCalibrations, n);
  // The k samples centred on the first one at or after t.
  const auto next = static_cast<std::size_t>(
      std::lower_bound(g_samples.begin(), g_samples.end(), t,
                       [](const Sample& s, double x) { return s.at < x; }) -
      g_samples.begin());
  const std::size_t first = std::min(next - std::min(next, k / 2), n - k);
  return summarize(first, first + k).slowdown();
}

}  // namespace fedbiad::bench_round
