#include "tensor/vmath.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace fedbiad::tensor::vmath {

namespace {

// Lane types mirror tensor/gemm.cpp: GNU vector extensions so the codegen
// is pinned, 256-bit lanes when the target has them (x86-64-v3 TU flag),
// 128-bit otherwise. FEDBIAD_PORTABLE compiles this TU scalar-only — the
// public kernels then forward to ref::, keeping one code path under test
// in the portable CI job.
#if (defined(__GNUC__) || defined(__clang__)) && !defined(FEDBIAD_PORTABLE)
#define FEDBIAD_VMATH_VECTOR 1
// Two flavours of the lane type: `vf`/`vi` carry only vector_size (clean to
// use as template arguments — no ignored-attribute warnings), while the
// *_mem variants add aligned(4) + may_alias and exist solely so loads and
// stores through arbitrary float* are legal and unaligned-safe.
#if defined(__AVX2__) || defined(__AVX512F__)
typedef float vf __attribute__((vector_size(32)));
typedef std::int32_t vi __attribute__((vector_size(32)));
typedef float vf_mem __attribute__((vector_size(32), aligned(4), may_alias));
#else
typedef float vf __attribute__((vector_size(16)));
typedef std::int32_t vi __attribute__((vector_size(16)));
typedef float vf_mem __attribute__((vector_size(16), aligned(4), may_alias));
#endif
constexpr std::size_t VL = sizeof(vf) / sizeof(float);

inline vf vload(const float* p) { return *reinterpret_cast<const vf_mem*>(p); }
inline void vstore(float* p, vf v) {
  *reinterpret_cast<vf_mem*>(p) = reinterpret_cast<vf_mem&>(v);
}
inline vf vbroadcast(float x) { return vf{} + x; }
inline vf vmin(vf a, vf b) { return a < b ? a : b; }
inline vf vmax(vf a, vf b) { return a > b ? a : b; }
inline float hsum(vf v) {
  float s = 0.0F;
  for (std::size_t i = 0; i < VL; ++i) s += v[i];
  return s;
}
inline float hmax(vf v) {
  float m = v[0];
  for (std::size_t i = 1; i < VL; ++i) m = m > v[i] ? m : v[i];
  return m;
}
#endif

inline float vmin(float a, float b) { return a < b ? a : b; }
inline float vmax(float a, float b) { return a > b ? a : b; }

// Maps the float lane type to its same-width integer lane type for the
// bit-level exponent manipulation in exp_core, and broadcasts scalars.
template <typename V>
struct IntLanes;
template <>
struct IntLanes<float> {
  using type = std::int32_t;
};
template <typename V>
inline V vset(float s) {
  return V{} + s;
}
template <>
inline float vset<float>(float s) {
  return s;
}
#if defined(FEDBIAD_VMATH_VECTOR)
template <>
struct IntLanes<vf> {
  using type = vi;
};
#endif

// exp via Cody–Waite range reduction and the Cephes degree-6 polynomial:
//   x = n·ln2 + r, |r| ≤ ln2/2;  exp(x) = 2^n · exp(r)
// n is extracted with the round-to-nearest magic-constant trick (adding
// 1.5·2^23 puts the integer in the mantissa low bits), and 2^n is built by
// sliding n into the exponent field — no lane ever leaves the register
// file. Inputs clamp to [kExpLo, kExpHi] so 2^n stays a normal float and
// the result saturates instead of hitting 0/inf (accuracy contract in the
// header). Instantiated both at the vector type and at plain float — the
// float instantiation IS ref::, so the two agree elementwise up to FMA
// contraction.
// The clamp bounds keep the extracted n strictly inside [-126, 127] even
// after float rounding of x·log2e (88.38·log2e lands within one ulp of
// 127.5, so the bound backs off to 88.3 for a safe margin).
constexpr float kExpLo = -87.3F;  // exp(lo) ≈ 1.21e-38, a normal float
constexpr float kExpHi = 88.3F;   // exp(hi) ≈ 2.19e38, keeps n ≤ 127
constexpr float kLog2e = 1.44269504088896341F;
constexpr float kLn2Hi = 0.693359375F;         // exact in 12 bits
constexpr float kLn2Lo = -2.12194440e-4F;      // ln2 - kLn2Hi
constexpr float kRound = 12582912.0F;          // 1.5 · 2^23
constexpr std::int32_t kRoundBits = 0x4B400000;

template <typename V>
inline V exp_core(V x) {
  using I = typename IntLanes<V>::type;
  x = vmin(x, vset<V>(kExpHi));
  x = vmax(x, vset<V>(kExpLo));
  const V z = x * kLog2e + kRound;
  const I n = std::bit_cast<I>(z) - kRoundBits;
  const V nf = z - kRound;
  V r = x - nf * kLn2Hi;
  r = r - nf * kLn2Lo;
  V p = vset<V>(1.9875691500e-4F);
  p = p * r + 1.3981999507e-3F;
  p = p * r + 8.3334519073e-3F;
  p = p * r + 4.1665795894e-2F;
  p = p * r + 1.6666665459e-1F;
  p = p * r + 5.0000001201e-1F;
  const V e = p * (r * r) + r + 1.0F;
  const V scale = std::bit_cast<V>((n + 127) << 23);
  return e * scale;
}

// tanh: odd polynomial (Cephes) below |x| < 0.625 — preserving relative
// accuracy through the linear regime where (e^{2x}-1)/(e^{2x}+1) cancels —
// and the exp form above it. Both branches are evaluated and blended with
// an elementwise select, so the vector path stays branch-free.
template <typename V>
inline V tanh_core(V x) {
  const V t = vmax(x, -x);  // |x|
  // Polynomial branch.
  const V z = t * t;
  V p = vset<V>(-5.70498872745e-3F);
  p = p * z + 2.06390887954e-2F;
  p = p * z + -5.37397155531e-2F;
  p = p * z + 1.33314422036e-1F;
  p = p * z + -3.33332819422e-1F;
  const V small = p * z * t + t;
  // exp branch: tanh(t) = 1 - 2/(e^{2t}+1).
  const V e = exp_core(t + t);
  const V big = 1.0F - 2.0F / (e + 1.0F);
  const V mag = t < vset<V>(0.625F) ? small : big;
  return x < vset<V>(0.0F) ? -mag : mag;
}

template <typename V>
inline V sigmoid_core(V x) {
  return 1.0F / (1.0F + exp_core(-x));
}

// Scalar per-element LSTM cell used by ref::.
inline void lstm_cell_elem(std::size_t h, std::size_t j, float* g4,
                           const float* c_prev, float* c, float* tanh_c,
                           float* h_out) {
  const float gi = sigmoid_core(g4[j]);
  const float gf = sigmoid_core(g4[h + j]);
  const float gg = tanh_core(g4[2 * h + j]);
  const float go = sigmoid_core(g4[3 * h + j]);
  g4[j] = gi;
  g4[h + j] = gf;
  g4[2 * h + j] = gg;
  g4[3 * h + j] = go;
  const float c_in = c_prev == nullptr ? 0.0F : c_prev[j];
  const float c_new = gf * c_in + gi * gg;
  c[j] = c_new;
  const float tc = tanh_core(c_new);
  tanh_c[j] = tc;
  h_out[j] = go * tc;
}

}  // namespace

// ---- scalar reference kernels ---------------------------------------------

namespace ref {

void vexp(std::size_t n, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] = exp_core(x[i]);
}

void vtanh(std::size_t n, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] = tanh_core(x[i]);
}

void vsigmoid(std::size_t n, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] = sigmoid_core(x[i]);
}

void relu(std::size_t n, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i] > 0.0F ? x[i] : 0.0F;
}

void relu_backward(std::size_t n, const float* pre, float* g) {
  for (std::size_t i = 0; i < n; ++i) {
    if (pre[i] <= 0.0F) g[i] = 0.0F;
  }
}

void sgd_axpy(std::size_t n, float* p, const float* g, float lr, float scale,
              float wd) {
  for (std::size_t i = 0; i < n; ++i) p[i] -= lr * (scale * g[i] + wd * p[i]);
}

void lstm_cell(std::size_t h, float* g4, const float* c_prev, float* c,
               float* tanh_c, float* h_out) {
  for (std::size_t j = 0; j < h; ++j) {
    lstm_cell_elem(h, j, g4, c_prev, c, tanh_c, h_out);
  }
}

float softmax_xent_row(std::size_t n, const float* z, float* g, float scale) {
  float mx = z[0];
  for (std::size_t i = 1; i < n; ++i) mx = vmax(mx, z[i]);
  float denom = 0.0F;
  for (std::size_t i = 0; i < n; ++i) {
    const float e = exp_core(z[i] - mx);
    g[i] = e;
    denom += e;
  }
  const float k = scale / denom;
  for (std::size_t i = 0; i < n; ++i) g[i] *= k;
  return mx + std::log(denom);
}

float logsumexp(std::size_t n, const float* z) {
  float mx = z[0];
  for (std::size_t i = 1; i < n; ++i) mx = vmax(mx, z[i]);
  float denom = 0.0F;
  for (std::size_t i = 0; i < n; ++i) denom += exp_core(z[i] - mx);
  return mx + std::log(denom);
}

}  // namespace ref

// ---- vector kernels -------------------------------------------------------

#if defined(FEDBIAD_VMATH_VECTOR)

void vexp(std::size_t n, const float* x, float* y) {
  std::size_t i = 0;
  for (; i + VL <= n; i += VL) vstore(y + i, exp_core(vload(x + i)));
  for (; i < n; ++i) y[i] = exp_core(x[i]);
}

void vtanh(std::size_t n, const float* x, float* y) {
  std::size_t i = 0;
  for (; i + VL <= n; i += VL) vstore(y + i, tanh_core(vload(x + i)));
  for (; i < n; ++i) y[i] = tanh_core(x[i]);
}

void vsigmoid(std::size_t n, const float* x, float* y) {
  std::size_t i = 0;
  for (; i + VL <= n; i += VL) vstore(y + i, sigmoid_core(vload(x + i)));
  for (; i < n; ++i) y[i] = sigmoid_core(x[i]);
}

void relu(std::size_t n, const float* x, float* y) {
  std::size_t i = 0;
  const vf zero{};
  for (; i + VL <= n; i += VL) vstore(y + i, vmax(vload(x + i), zero));
  for (; i < n; ++i) y[i] = x[i] > 0.0F ? x[i] : 0.0F;
}

void relu_backward(std::size_t n, const float* pre, float* g) {
  std::size_t i = 0;
  const vf zero{};
  for (; i + VL <= n; i += VL) {
    const vf p = vload(pre + i);
    vstore(g + i, p > zero ? vload(g + i) : zero);
  }
  for (; i < n; ++i) {
    if (pre[i] <= 0.0F) g[i] = 0.0F;
  }
}

void sgd_axpy(std::size_t n, float* p, const float* g, float lr, float scale,
              float wd) {
  std::size_t i = 0;
  for (; i + VL <= n; i += VL) {
    const vf pv = vload(p + i);
    vstore(p + i, pv - (vload(g + i) * scale + pv * wd) * lr);
  }
  for (; i < n; ++i) p[i] -= lr * (scale * g[i] + wd * p[i]);
}

namespace {

// One VL-wide chunk of the cell: units j..j+VL of a gate buffer whose
// blocks have stride h. Every lane runs the same instructions, so a unit's
// bits do not depend on which lane or chunk it occupies.
inline void lstm_cell_chunk(std::size_t h, std::size_t j, float* g4,
                            const float* c_prev, float* c, float* tanh_c,
                            float* h_out) {
  const vf gi = sigmoid_core(vload(g4 + j));
  const vf gf = sigmoid_core(vload(g4 + h + j));
  const vf gg = tanh_core(vload(g4 + 2 * h + j));
  const vf go = sigmoid_core(vload(g4 + 3 * h + j));
  vstore(g4 + j, gi);
  vstore(g4 + h + j, gf);
  vstore(g4 + 2 * h + j, gg);
  vstore(g4 + 3 * h + j, go);
  const vf c_in = c_prev == nullptr ? vf{} : vload(c_prev + j);
  const vf c_new = gf * c_in + gi * gg;
  vstore(c + j, c_new);
  const vf tc = tanh_core(c_new);
  vstore(tanh_c + j, tc);
  vstore(h_out + j, go * tc);
}

}  // namespace

void lstm_cell(std::size_t h, float* g4, const float* c_prev, float* c,
               float* tanh_c, float* h_out) {
  std::size_t j = 0;
  for (; j + VL <= h; j += VL) {
    lstm_cell_chunk(h, j, g4, c_prev, c, tanh_c, h_out);
  }
  if (j == h) return;
  // The last partial chunk runs through a zero-padded tile, so every unit
  // takes the vector body; only the live lanes are written back.
  const std::size_t live = h - j;
  float tg[4 * VL] = {};
  float tcp[VL] = {};
  float tc[VL];
  float ttc[VL];
  float th[VL];
  for (std::size_t gate = 0; gate < 4; ++gate) {
    std::copy_n(g4 + gate * h + j, live, tg + gate * VL);
  }
  if (c_prev != nullptr) std::copy_n(c_prev + j, live, tcp);
  lstm_cell_chunk(VL, 0, tg, c_prev == nullptr ? nullptr : tcp, tc, ttc, th);
  for (std::size_t gate = 0; gate < 4; ++gate) {
    std::copy_n(tg + gate * VL, live, g4 + gate * h + j);
  }
  std::copy_n(tc, live, c + j);
  std::copy_n(ttc, live, tanh_c + j);
  std::copy_n(th, live, h_out + j);
}

float softmax_xent_row(std::size_t n, const float* z, float* g, float scale) {
  std::size_t i = 0;
  float mx;
  if (n >= VL) {
    vf vm = vload(z);
    for (i = VL; i + VL <= n; i += VL) vm = vmax(vm, vload(z + i));
    mx = hmax(vm);
  } else {
    mx = z[0];
    i = 1;
  }
  for (; i < n; ++i) mx = vmax(mx, z[i]);

  vf vsum{};
  float denom = 0.0F;
  const vf vmx = vbroadcast(mx);
  for (i = 0; i + VL <= n; i += VL) {
    const vf e = exp_core(vload(z + i) - vmx);
    vstore(g + i, e);
    vsum += e;
  }
  denom = hsum(vsum);
  for (; i < n; ++i) {
    const float e = exp_core(z[i] - mx);
    g[i] = e;
    denom += e;
  }

  const float k = scale / denom;
  for (i = 0; i + VL <= n; i += VL) vstore(g + i, vload(g + i) * k);
  for (; i < n; ++i) g[i] *= k;
  return mx + std::log(denom);
}

float logsumexp(std::size_t n, const float* z) {
  std::size_t i = 0;
  float mx;
  if (n >= VL) {
    vf vm = vload(z);
    for (i = VL; i + VL <= n; i += VL) vm = vmax(vm, vload(z + i));
    mx = hmax(vm);
  } else {
    mx = z[0];
    i = 1;
  }
  for (; i < n; ++i) mx = vmax(mx, z[i]);

  vf vsum{};
  const vf vmx = vbroadcast(mx);
  for (i = 0; i + VL <= n; i += VL) vsum += exp_core(vload(z + i) - vmx);
  float denom = hsum(vsum);
  for (; i < n; ++i) denom += exp_core(z[i] - mx);
  return mx + std::log(denom);
}

#else  // scalar build: the ref kernels are the public entry points.

void vexp(std::size_t n, const float* x, float* y) { ref::vexp(n, x, y); }
void vtanh(std::size_t n, const float* x, float* y) { ref::vtanh(n, x, y); }
void vsigmoid(std::size_t n, const float* x, float* y) {
  ref::vsigmoid(n, x, y);
}
void relu(std::size_t n, const float* x, float* y) { ref::relu(n, x, y); }
void relu_backward(std::size_t n, const float* pre, float* g) {
  ref::relu_backward(n, pre, g);
}
void sgd_axpy(std::size_t n, float* p, const float* g, float lr, float scale,
              float wd) {
  ref::sgd_axpy(n, p, g, lr, scale, wd);
}
void lstm_cell(std::size_t h, float* g4, const float* c_prev, float* c,
               float* tanh_c, float* h_out) {
  ref::lstm_cell(h, g4, c_prev, c, tanh_c, h_out);
}
float softmax_xent_row(std::size_t n, const float* z, float* g, float scale) {
  return ref::softmax_xent_row(n, z, g, scale);
}
float logsumexp(std::size_t n, const float* z) {
  return ref::logsumexp(n, z);
}

#endif

}  // namespace fedbiad::tensor::vmath
