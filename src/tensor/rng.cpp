#include "tensor/rng.hpp"

#include <cmath>
#include <numbers>
#include <unordered_map>

#include "common/check.hpp"

namespace fedbiad::tensor {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// One xoshiro256** step over the state words s[0..4).
std::uint64_t xoshiro_next(std::uint64_t* s) {
  const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

// 53 high bits → uniform double in [0, 1).
double to_uniform(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // All-zero state is the one invalid xoshiro state; splitmix64 cannot emit
  // four zeros in a row, but keep the guard explicit.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
  has_cached_normal_ = false;
}

Rng Rng::split(std::uint64_t stream) const {
  // Mix the parent state with the stream id through SplitMix64 so child
  // streams do not overlap for any practical draw count.
  std::uint64_t mix = s_[0] ^ rotl(s_[2], 17) ^ (stream * 0xD1342543DE82EF95ULL);
  return Rng(splitmix64(mix));
}

std::uint64_t Rng::next_u64() { return xoshiro_next(s_); }

double Rng::uniform() { return to_uniform(next_u64()); }

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  FEDBIAD_CHECK(n > 0, "uniform_index needs a positive range");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~0ULL - (~0ULL % n);
  std::uint64_t x = next_u64();
  while (x >= limit) x = next_u64();
  return x % n;
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const auto [z_cos, z_sin] = box_muller(u1, u2);
  cached_normal_ = z_sin;
  has_cached_normal_ = true;
  return z_cos;
}

std::pair<double, double> Rng::box_muller(double u1, double u2) {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  return {r * std::cos(theta), r * std::sin(theta)};
}

void Rng::box_muller_uniforms(double* u1, double* u2, std::size_t pairs) {
  FEDBIAD_CHECK(!has_cached_normal_,
                "box_muller_uniforms needs no pending cached deviate");
  // The state lives in locals for the batch so the step stays in registers.
  std::uint64_t s[4] = {s_[0], s_[1], s_[2], s_[3]};
  for (std::size_t p = 0; p < pairs; ++p) {
    double a = to_uniform(xoshiro_next(s));
    while (a <= 0.0) a = to_uniform(xoshiro_next(s));
    u1[p] = a;
    u2[p] = to_uniform(xoshiro_next(s));
  }
  for (int i = 0; i < 4; ++i) s_[i] = s[i];
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::size_t Rng::categorical(const std::vector<double>& weights) {
  FEDBIAD_CHECK(!weights.empty(), "categorical needs at least one weight");
  double total = 0.0;
  for (double w : weights) {
    FEDBIAD_CHECK(w >= 0.0, "categorical weights must be non-negative");
    total += w;
  }
  FEDBIAD_CHECK(total > 0.0, "categorical weights must not all be zero");
  double u = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u < 0.0) return i;
  }
  return weights.size() - 1;
}

Rng::State Rng::state() const noexcept {
  State st;
  for (int i = 0; i < 4; ++i) st.s[i] = s_[i];
  st.cached_normal = cached_normal_;
  st.has_cached_normal = has_cached_normal_;
  return st;
}

void Rng::set_state(const State& state) noexcept {
  for (int i = 0; i < 4; ++i) s_[i] = state.s[i];
  cached_normal_ = state.cached_normal;
  has_cached_normal_ = state.has_cached_normal;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  FEDBIAD_CHECK(k <= n, "cannot sample more items than the population");
  // Both branches run the identical partial Fisher–Yates draw sequence
  // (j = i + uniform_index(n - i)) and therefore return identical samples;
  // only the bookkeeping differs. The sparse branch tracks just the
  // displaced positions in a hash map, so selecting a small cohort from a
  // million-client population costs O(k) memory instead of materializing
  // the whole population as a pool.
  if (k > 0 && n / 4 >= k) {
    std::vector<std::size_t> out(k);
    std::unordered_map<std::size_t, std::size_t> displaced;
    displaced.reserve(k * 2);
    auto value_at = [&](std::size_t pos) {
      const auto it = displaced.find(pos);
      return it == displaced.end() ? pos : it->second;
    };
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j = i + uniform_index(n - i);
      out[i] = value_at(j);
      displaced[j] = value_at(i);
    }
    return out;
  }
  std::vector<std::size_t> pool(n);
  for (std::size_t i = 0; i < n; ++i) pool[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + uniform_index(n - i);
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

}  // namespace fedbiad::tensor
