// The certified double-lane vmath kernels: the Box–Muller draw (posterior
// weights and image pixel noise) and the sum of squares behind the SGD clip
// norm (contracts in vmath.hpp, the argument in docs/ARCHITECTURE.md
// "Certified kernels").
//
// Neither kernel reproduces libm's or the serial loop's rounding. Each one
// computes a fast result together with a rigorous error bound, and the
// caller (or the kernel itself) keeps the fast result only where it proves
// the bound cannot change the rounded answer.
//
// This TU is built with -ffp-contract=off. The draw's certificate evaluates
// the caller's double expression `x + sd·z` at both ends of an interval, and
// the monotone-rounding argument needs that evaluation to round the product
// and the sum separately, exactly as the caller does. The polynomial cores
// fuse only where they say so (fmadd); their error budgets hold with or
// without the fusion.
#include "tensor/vmath.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

#if (defined(__GNUC__) || defined(__clang__)) && !defined(FEDBIAD_PORTABLE)
#define FEDBIAD_VMATH_VECTOR 1
#if defined(__AVX__) || defined(__SSE2__)
#include <immintrin.h>
#endif
#endif

namespace fedbiad::tensor::vmath {

namespace {

// Double lanes in the style of vmath.cpp: 256-bit on x86-64-v3, 128-bit
// otherwise. `vfp` holds one float per double lane (the conversion target),
// `vf2` one Box–Muller pair (two floats) per double lane.
#if defined(FEDBIAD_VMATH_VECTOR)
#if defined(__AVX2__) || defined(__AVX512F__)
typedef double vd __attribute__((vector_size(32)));
typedef std::uint64_t vu __attribute__((vector_size(32)));
typedef float vfp __attribute__((vector_size(16)));
typedef std::int32_t vip __attribute__((vector_size(16)));
typedef float vfp_mem __attribute__((vector_size(16), aligned(4), may_alias));
typedef float vf2 __attribute__((vector_size(32)));
typedef float vf2_mem __attribute__((vector_size(32), aligned(4), may_alias));
typedef double vd_mem __attribute__((vector_size(32), aligned(8), may_alias));
#define FEDBIAD_EVENS 0, 2, 4, 6
#define FEDBIAD_ODDS 1, 3, 5, 7
#define FEDBIAD_INTERLEAVE 0, 4, 1, 5, 2, 6, 3, 7
#else
typedef double vd __attribute__((vector_size(16)));
typedef std::uint64_t vu __attribute__((vector_size(16)));
typedef float vfp __attribute__((vector_size(8)));
typedef std::int32_t vip __attribute__((vector_size(8)));
typedef float vfp_mem __attribute__((vector_size(8), aligned(4), may_alias));
typedef float vf2 __attribute__((vector_size(16)));
typedef float vf2_mem __attribute__((vector_size(16), aligned(4), may_alias));
typedef double vd_mem __attribute__((vector_size(16), aligned(8), may_alias));
#define FEDBIAD_EVENS 0, 2
#define FEDBIAD_ODDS 1, 3
#define FEDBIAD_INTERLEAVE 0, 2, 1, 3
#endif
constexpr std::size_t VD = sizeof(vd) / sizeof(double);

inline vd dload(const double* p) { return *reinterpret_cast<const vd_mem*>(p); }

inline vd vsqrt(vd x) {
#if defined(__AVX2__) || defined(__AVX512F__)
  return _mm256_sqrt_pd(x);
#elif defined(__SSE2__)
  return _mm_sqrt_pd(x);
#else
  for (std::size_t l = 0; l < VD; ++l) x[l] = std::sqrt(x[l]);
  return x;
#endif
}

// Widens one float per lane. GCC 12 splits __builtin_convertvector of
// 4 floats into two 128-bit halves through the stack; AVX converts in one.
inline vd widen(vfp x) {
#if defined(__AVX2__) || defined(__AVX512F__)
  return _mm256_cvtps_pd(x);
#else
  return __builtin_convertvector(x, vd);
#endif
}

// True when every lane of a comparison mask is set.
inline bool all_lanes(vip mask) {
#if defined(__AVX2__) || defined(__AVX512F__)
  return _mm_movemask_ps(std::bit_cast<__m128>(mask)) == 0xF;
#else
  bool all = true;
  for (std::size_t l = 0; l < VD; ++l) all = all && mask[l] != 0;
  return all;
#endif
}
#endif

inline double vsqrt(double x) { return std::sqrt(x); }

// a·b + c for the polynomial cores: one rounding where the target has FMA
// (an explicit instruction, which -ffp-contract=off leaves alone), two
// otherwise. The error budgets hold for both.
inline double fmadd(double a, double b, double c) {
#if defined(__FMA__)
  return std::fma(a, b, c);
#else
  return a * b + c;
#endif
}
#if defined(FEDBIAD_VMATH_VECTOR)
inline vd fmadd(vd a, vd b, vd c) {
#if defined(__FMA__) && (defined(__AVX2__) || defined(__AVX512F__))
  return _mm256_fmadd_pd(a, b, c);
#elif defined(__FMA__)
  return _mm_fmadd_pd(a, b, c);
#else
  return a * b + c;
#endif
}
#endif

// Same-width unsigned lanes for the bit-level exponent work.
template <typename V>
struct Bits {
  using type = std::uint64_t;
};
#if defined(FEDBIAD_VMATH_VECTOR)
template <>
struct Bits<vd> {
  using type = vu;
};
#endif

template <typename V>
inline V dset(double s) {
  return V{} + s;
}
template <>
inline double dset<double>(double s) {
  return s;
}

// ---- natural log on (0, 1) --------------------------------------------------
//
// fdlibm's e_log.c: u = 2^k·m with m ∈ [√2/2, √2), f = m − 1 (exact, by
// Sterbenz), s = f/(2+f), and log(1+f) = f − f²/2 + s·(f²/2 + R(s²)) with
// the degree-14 minimax R (|error| < 2^-58.45). k is read out of the
// exponent field by magic-constant rounding — AVX2 has no packed
// int64→double conversion. Inputs are positive normal doubles, which every
// Box–Muller u1 ∈ [2^-53, 1) is. Error ≤ 1 ulp of the result.
constexpr double kLn2Hi = 6.93147180369123816490e-01;  // 0x3FE62E42FEE00000
constexpr double kLn2Lo = 1.90821492927058770002e-10;  // 0x3DEA39EF35793C76
constexpr double kLg1 = 6.666666666666735130e-01;
constexpr double kLg2 = 3.999999999940941908e-01;
constexpr double kLg3 = 2.857142874366239149e-01;
constexpr double kLg4 = 2.222219843214978396e-01;
constexpr double kLg5 = 1.818357216161805012e-01;
constexpr double kLg6 = 1.531383769920937332e-01;
constexpr double kLg7 = 1.479819860511658591e-01;
constexpr double kSqrt2 = 1.41421356237309504880;
constexpr std::uint64_t kMantissa = 0x000FFFFFFFFFFFFFULL;
constexpr std::uint64_t kOneBits = 0x3FF0000000000000ULL;
constexpr std::uint64_t kTwo52Bits = 0x4330000000000000ULL;  // 2^52

template <typename V>
inline V log_core(V x) {
  using U = typename Bits<V>::type;
  const U bits = std::bit_cast<U>(x);
  V m = std::bit_cast<V>((bits & kMantissa) | kOneBits);
  // 2^52 + biased exponent, minus 2^52 + bias: the exponent k, exactly.
  V k = std::bit_cast<V>((bits >> 52) | kTwo52Bits) - (0x1p52 + 1023.0);
  const auto big = m > dset<V>(kSqrt2);
  m = big ? m * 0.5 : m;
  k = big ? k + 1.0 : k;
  const V f = m - 1.0;
  const V s = f / (f + 2.0);
  const V z = s * s;
  const V w = z * z;
  V t1 = fmadd(w, dset<V>(kLg6), dset<V>(kLg4));
  t1 = w * fmadd(w, t1, dset<V>(kLg2));
  V t2 = fmadd(w, dset<V>(kLg7), dset<V>(kLg5));
  t2 = fmadd(w, t2, dset<V>(kLg3));
  t2 = z * fmadd(w, t2, dset<V>(kLg1));
  const V hfsq = 0.5 * f * f;
  return k * kLn2Hi - ((hfsq - (s * (hfsq + (t2 + t1)) + k * kLn2Lo)) - f);
}

// ---- (cos, sin)(2π·u2) ------------------------------------------------------
//
// t = 2π·u2 is the same rounded product Rng::box_muller takes the sine and
// cosine of. t ∈ [0, 2π) is reduced by k = round(t·2/π) ≤ 4 against π/2
// split fdlibm-style into a 33-bit head (k·head is exact and t − k·head is
// exact by Sterbenz) and a tail, leaving |x| ≲ π/4 with absolute error
// < 2^-80. fdlibm's __kernel_sin / __kernel_cos polynomials (|error| <
// 2^-58 on |x| ≤ π/4) then give each value within a few ulp of 1, and the
// quadrant k mod 4 picks and signs them.
constexpr double kTwoPi = 6.28318530717958647692;    // 2·π, as Rng folds it
constexpr double kInvPio2 = 6.36619772367581382433e-01;
constexpr double kPio2Hi = 1.57079632673412561417e+00;  // 0x3FF921FB54400000
constexpr double kPio2Lo = 6.07710050650619224932e-11;  // π/2 − kPio2Hi
constexpr double kRound52 = 0x1.8p52;                // 1.5·2^52
constexpr double kS1 = -1.66666666666666324348e-01;
constexpr double kS2 = 8.33333333332248946124e-03;
constexpr double kS3 = -1.98412698298579493134e-04;
constexpr double kS4 = 2.75573137070700676789e-06;
constexpr double kS5 = -2.50507602534068634195e-08;
constexpr double kS6 = 1.58969099521155010221e-10;
constexpr double kC1 = 4.16666666666666019037e-02;
constexpr double kC2 = -1.38888888888741095749e-03;
constexpr double kC3 = 2.48015872894767294178e-05;
constexpr double kC4 = -2.75573143513906633035e-07;
constexpr double kC5 = 2.08757232129817482790e-09;
constexpr double kC6 = -1.13596475577881948265e-11;

template <typename V>
inline void sincos_2pi(V u2, V& c, V& s) {
  using U = typename Bits<V>::type;
  const V t = u2 * kTwoPi;
  const V q = t * kInvPio2 + kRound52;  // k in the low mantissa bits
  const U k = std::bit_cast<U>(q);
  const V kd = q - kRound52;
  const V x = (t - kd * kPio2Hi) - kd * kPio2Lo;
  const V z = x * x;
  V sr = fmadd(z, dset<V>(kS6), dset<V>(kS5));
  sr = fmadd(z, sr, dset<V>(kS4));
  sr = fmadd(z, sr, dset<V>(kS3));
  sr = fmadd(z, sr, dset<V>(kS2));
  sr = fmadd(z, sr, dset<V>(kS1));
  const V sin_x = fmadd(z * x, sr, x);
  V cr = fmadd(z, dset<V>(kC6), dset<V>(kC5));
  cr = fmadd(z, cr, dset<V>(kC4));
  cr = fmadd(z, cr, dset<V>(kC3));
  cr = fmadd(z, cr, dset<V>(kC2));
  cr = fmadd(z, cr, dset<V>(kC1));
  const V cos_x = 1.0 - (0.5 * z - (z * z) * cr);
  // Quadrant k mod 4: cos t = {cos x, −sin x, −cos x, sin x},
  //                   sin t = {sin x, cos x, −sin x, −cos x}.
  const auto odd = (k & 1) != 0;
  const V c0 = odd ? sin_x : cos_x;
  const V s0 = odd ? cos_x : sin_x;
  c = ((k + 1) & 2) != 0 ? -c0 : c0;
  s = (k & 2) != 0 ? -s0 : s0;
}

// ---- one Box–Muller pair and its certificate --------------------------------
//
// Error budget, relative to r = √(−2·log u1): the log is within 1 ulp and so
// is libm's, √ halves that, so r̂ is within 2^-51·r of libm's r; ĉ and ŝ are
// within 2^-50 of libm's cos and sin; the products add two half-ulps. So
// |ẑ − z_libm| < 2^-48·r (measured against glibc over 2·10^7 random pairs
// and the reduction and log edge cases: ≤ 2^-51·r, with or without the
// fmadd fusion). The interval half-width Δ = r̂·2^-40 + 2^-60 is
// ≥ 2^8 times that, enough to absorb rounding the endpoints z ± Δ too; the
// 2^-60 keeps a nonzero width where z_libm is exactly 0 (u2 = 0).
template <typename V>
inline void pair_core(V u1, V u2, V& z_cos, V& z_sin, V& delta) {
  const V r = vsqrt(-2.0 * log_core(u1));
  V c, s;
  sincos_2pi(u2, c, s);
  z_cos = r * c;
  z_sin = r * s;
  delta = r * 0x1p-40 + 0x1p-60;
}

// float(x + sd·z) is monotone in z (sd ≥ 0; every rounding is monotone, and
// the sign of a zero follows the order −0 < +0). So when both ends of
// [z − Δ, z + Δ] ∋ z_libm give the same float bits, that float is exactly
// what the libm expression gives. NaN never certifies.
inline float certify(double x, double z, double delta, double sd, bool& ok) {
  const float lo = static_cast<float>(x + sd * (z - delta));
  const float hi = static_cast<float>(x + sd * (z + delta));
  ok = ok && std::bit_cast<std::uint32_t>(lo) ==
                 std::bit_cast<std::uint32_t>(hi) &&
       lo == lo;
  return lo;
}

// Pairs [begin, pairs) one at a time: writes every certified pair and
// appends the others to handed_back[handed..]. Returns the new count. X is
// the base's type: float (the posterior draw) or double (the image noise).
template <typename X>
std::size_t scalar_pairs(std::size_t begin, std::size_t pairs,
                         const double* u1, const double* u2, const X* x,
                         double sd, float* y, std::uint32_t* handed_back,
                         std::size_t handed) {
  for (std::size_t p = begin; p < pairs; ++p) {
    double z_cos, z_sin, delta;
    pair_core(u1[p], u2[p], z_cos, z_sin, delta);
    bool ok = true;
    const float yc = certify(x[2 * p], z_cos, delta, sd, ok);
    const float ys = certify(x[2 * p + 1], z_sin, delta, sd, ok);
    if (ok) {
      y[2 * p] = yc;
      y[2 * p + 1] = ys;
    } else {
      handed_back[handed++] = static_cast<std::uint32_t>(p);
    }
  }
  return handed;
}

#if defined(FEDBIAD_VMATH_VECTOR)
// The bases of VD pairs, split into the cos and sin coordinates and widened
// to double lanes. Both loads read x in full before any y is written.
inline void load_bases(const float* x, vd& x_cos, vd& x_sin) {
  const vf2 xv = *reinterpret_cast<const vf2_mem*>(x);
  x_cos = widen(__builtin_shufflevector(xv, xv, FEDBIAD_EVENS));
  x_sin = widen(__builtin_shufflevector(xv, xv, FEDBIAD_ODDS));
}
inline void load_bases(const double* x, vd& x_cos, vd& x_sin) {
  const vd lo = dload(x);
  const vd hi = dload(x + VD);
  x_cos = __builtin_shufflevector(lo, hi, FEDBIAD_EVENS);
  x_sin = __builtin_shufflevector(lo, hi, FEDBIAD_ODDS);
}

inline vfp certify(vd x, vd z, vd delta, double sd, vip& ok) {
  const vfp lo = __builtin_convertvector(x + sd * (z - delta), vfp);
  const vfp hi = __builtin_convertvector(x + sd * (z + delta), vfp);
  ok &= (std::bit_cast<vip>(lo) == std::bit_cast<vip>(hi)) & (lo == lo);
  return lo;
}
#endif

}  // namespace

// ---- vector kernels ---------------------------------------------------------

#if defined(FEDBIAD_VMATH_VECTOR)

namespace {

template <typename X>
std::size_t vector_pairs(std::size_t pairs, const double* u1,
                         const double* u2, const X* x, double sd, float* y,
                         std::uint32_t* handed_back) {
  std::size_t handed = 0;
  std::size_t p = 0;
  for (; p + VD <= pairs; p += VD) {
    vd z_cos, z_sin, delta;
    pair_core(dload(u1 + p), dload(u2 + p), z_cos, z_sin, delta);
    // x is read in full before y is written, so y may alias x.
    vd x_cos, x_sin;
    load_bases(x + 2 * p, x_cos, x_sin);
    vip ok = vip{} - 1;
    const vfp yc = certify(x_cos, z_cos, delta, sd, ok);
    const vfp ys = certify(x_sin, z_sin, delta, sd, ok);
    if (all_lanes(ok)) {
      const vf2 out = __builtin_shufflevector(yc, ys, FEDBIAD_INTERLEAVE);
      *reinterpret_cast<vf2_mem*>(y + 2 * p) = out;
      continue;
    }
    for (std::size_t l = 0; l < VD; ++l) {
      if (ok[l] != 0) {
        y[2 * (p + l)] = yc[l];
        y[2 * (p + l) + 1] = ys[l];
      } else {
        handed_back[handed++] = static_cast<std::uint32_t>(p + l);
      }
    }
  }
  return scalar_pairs(p, pairs, u1, u2, x, sd, y, handed_back, handed);
}

}  // namespace

std::size_t gaussian_pairs(std::size_t pairs, const double* u1,
                           const double* u2, const float* x, double sd,
                           float* y, std::uint32_t* handed_back) {
  return vector_pairs(pairs, u1, u2, x, sd, y, handed_back);
}

std::size_t gaussian_pairs(std::size_t pairs, const double* u1,
                           const double* u2, const double* x, double sd,
                           float* y, std::uint32_t* handed_back) {
  return vector_pairs(pairs, u1, u2, x, sd, y, handed_back);
}

double sum_squares(std::size_t n, const float* x) {
  // 4 accumulators × VD lanes; squares of floats are exact in double, so
  // only the additions round.
  vd acc[4] = {};
  std::size_t i = 0;
  for (; i + 4 * VD <= n; i += 4 * VD) {
    for (std::size_t a = 0; a < 4; ++a) {
      const vd v = widen(*reinterpret_cast<const vfp_mem*>(x + i + a * VD));
      acc[a] += v * v;
    }
  }
  const vd lanes = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  double total = 0.0;
  for (std::size_t l = 0; l < VD; ++l) total += lanes[l];
  for (; i < n; ++i) {
    total += static_cast<double>(x[i]) * static_cast<double>(x[i]);
  }
  return total;
}

#else  // scalar build: the scalar loops are the public entry points.

std::size_t gaussian_pairs(std::size_t pairs, const double* u1,
                           const double* u2, const float* x, double sd,
                           float* y, std::uint32_t* handed_back) {
  return scalar_pairs(0, pairs, u1, u2, x, sd, y, handed_back, 0);
}

std::size_t gaussian_pairs(std::size_t pairs, const double* u1,
                           const double* u2, const double* x, double sd,
                           float* y, std::uint32_t* handed_back) {
  return scalar_pairs(0, pairs, u1, u2, x, sd, y, handed_back, 0);
}

// The serial left-to-right sum, bit-equal to tensor::squared_norm.
double sum_squares(std::size_t n, const float* x) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(x[i]) * static_cast<double>(x[i]);
  }
  return acc;
}

#endif

}  // namespace fedbiad::tensor::vmath
