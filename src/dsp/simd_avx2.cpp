// AVX2 lane of dsp::simd. Compiled with -mavx2 -ffp-contract=off (this TU
// only); nothing here executes unless runtime dispatch selected kAvx2.
//
// Every kernel reproduces the canonical scalar result bit for bit: vector
// accumulators hold the same lane-position partials the canonical block
// reduction keeps, horizontal combines use the same pairwise order, and no
// kernel emits FMA (mul and add stay separate intrinsics). min/max are
// exact operations, so the scan and clamp kernels match in any order.

#include <immintrin.h>

#include <algorithm>
#include <cstddef>

#include "dsp/simd_impl.hpp"

namespace ptrack::dsp::simd::detail {

namespace {

/// (p0+p1)+(p2+p3) — the canonical 4-lane pairwise combine.
inline double hsum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_hadd_pd(lo, hi);  // (p0+p1, p2+p3)
  return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

/// ((p0+p1)+(p2+p3)) + ((p4+p5)+(p6+p7)) — the canonical 8-lane combine.
inline float hsumf(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  const __m128 pair = _mm_hadd_ps(lo, hi);    // (p0+p1, p2+p3, p4+p5, p6+p7)
  const __m128 quad = _mm_hadd_ps(pair, pair);
  return _mm_cvtss_f32(quad) +
         _mm_cvtss_f32(_mm_shuffle_ps(quad, quad, 1));
}

inline double hmin(__m256d v) {
  const __m128d m =
      _mm_min_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
  return std::min(_mm_cvtsd_f64(m), _mm_cvtsd_f64(_mm_unpackhi_pd(m, m)));
}

double sum_avx2(const double* xs, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(xs + i));
  }
  double total = hsum(acc);
  for (; i < n; ++i) total += xs[i];
  return total;
}

float sumf_avx2(const float* xs, std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_add_ps(acc, _mm256_loadu_ps(xs + i));
  }
  float total = hsumf(acc);
  for (; i < n; ++i) total += xs[i];
  return total;
}

double dot_avx2(const double* a, const double* b, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  double total = hsum(acc);
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

float dotf_avx2(const float* a, const float* b, std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_add_ps(
        acc, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  float total = hsumf(acc);
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

double sumsq_dev_avx2(const double* xs, std::size_t n, double mean) {
  const __m256d mv = _mm256_set1_pd(mean);
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(xs + i), mv);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  double total = hsum(acc);
  for (; i < n; ++i) {
    const double d = xs[i] - mean;
    total += d * d;
  }
  return total;
}

float sumsq_devf_avx2(const float* xs, std::size_t n, float mean) {
  const __m256 mv = _mm256_set1_ps(mean);
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(xs + i), mv);
    acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
  }
  float total = hsumf(acc);
  for (; i < n; ++i) {
    const float d = xs[i] - mean;
    total += d * d;
  }
  return total;
}

WindowMoments window_moments_avx2(const double* x, const double* y,
                                  const double* z, std::size_t n, Vec3 shift) {
  const __m256d sx = _mm256_set1_pd(shift.x);
  const __m256d sy = _mm256_set1_pd(shift.y);
  const __m256d sz = _mm256_set1_pd(shift.z);
  __m256d acc[kWindowSums];
  for (auto& a : acc) a = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d yv = _mm256_loadu_pd(y + i);
    const __m256d zv = _mm256_loadu_pd(z + i);
    const __m256d dx = _mm256_sub_pd(xv, sx);
    const __m256d dy = _mm256_sub_pd(yv, sy);
    const __m256d dz = _mm256_sub_pd(zv, sz);
    acc[0] = _mm256_add_pd(acc[0], dx);
    acc[1] = _mm256_add_pd(acc[1], dy);
    acc[2] = _mm256_add_pd(acc[2], dz);
    acc[3] = _mm256_add_pd(acc[3], _mm256_mul_pd(dx, dx));
    acc[4] = _mm256_add_pd(acc[4], _mm256_mul_pd(dx, dy));
    acc[5] = _mm256_add_pd(acc[5], _mm256_mul_pd(dx, dz));
    acc[6] = _mm256_add_pd(acc[6], _mm256_mul_pd(dy, dy));
    acc[7] = _mm256_add_pd(acc[7], _mm256_mul_pd(dy, dz));
    acc[8] = _mm256_add_pd(acc[8], _mm256_mul_pd(dz, dz));
  }
  double total[kWindowSums] = {};
  for (std::size_t k = 0; k < kWindowSums; ++k) total[k] = hsum(acc[k]);
  return window_moments_tail(x, y, z, i, n, shift, total);
}

void axis_project_avx2(const double* x, const double* y, const double* z,
                       std::size_t n, Vec3 u, double bias, double* out) {
  const __m256d uxv = _mm256_set1_pd(u.x);
  const __m256d uyv = _mm256_set1_pd(u.y);
  const __m256d uzv = _mm256_set1_pd(u.z);
  const __m256d bv = _mm256_set1_pd(bias);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_add_pd(
        _mm256_add_pd(_mm256_mul_pd(_mm256_loadu_pd(x + i), uxv),
                      _mm256_mul_pd(_mm256_loadu_pd(y + i), uyv)),
        _mm256_mul_pd(_mm256_loadu_pd(z + i), uzv));
    _mm256_storeu_pd(out + i, _mm256_sub_pd(d, bv));
  }
  for (; i < n; ++i) {
    out[i] = ((x[i] * u.x + y[i] * u.y) + z[i] * u.z) - bias;
  }
}

void axis_projectf_avx2(const float* x, const float* y, const float* z,
                        std::size_t n, Vec3 u, float bias, float* out) {
  const float ux = static_cast<float>(u.x);
  const float uy = static_cast<float>(u.y);
  const float uz = static_cast<float>(u.z);
  const __m256 uxv = _mm256_set1_ps(ux);
  const __m256 uyv = _mm256_set1_ps(uy);
  const __m256 uzv = _mm256_set1_ps(uz);
  const __m256 bv = _mm256_set1_ps(bias);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(x + i), uxv),
                      _mm256_mul_ps(_mm256_loadu_ps(y + i), uyv)),
        _mm256_mul_ps(_mm256_loadu_ps(z + i), uzv));
    _mm256_storeu_ps(out + i, _mm256_sub_ps(d, bv));
  }
  for (; i < n; ++i) {
    out[i] = ((x[i] * ux + y[i] * uy) + z[i] * uz) - bias;
  }
}

void residual_project_avx2(const double* x, const double* y, const double* z,
                           std::size_t n, Vec3 up, Vec3 dir, double* out) {
  const __m256d uxv = _mm256_set1_pd(up.x);
  const __m256d uyv = _mm256_set1_pd(up.y);
  const __m256d uzv = _mm256_set1_pd(up.z);
  const __m256d dxv = _mm256_set1_pd(dir.x);
  const __m256d dyv = _mm256_set1_pd(dir.y);
  const __m256d dzv = _mm256_set1_pd(dir.z);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d yv = _mm256_loadu_pd(y + i);
    const __m256d zv = _mm256_loadu_pd(z + i);
    const __m256d t = _mm256_add_pd(
        _mm256_add_pd(_mm256_mul_pd(xv, uxv), _mm256_mul_pd(yv, uyv)),
        _mm256_mul_pd(zv, uzv));
    const __m256d rx = _mm256_sub_pd(xv, _mm256_mul_pd(uxv, t));
    const __m256d ry = _mm256_sub_pd(yv, _mm256_mul_pd(uyv, t));
    const __m256d rz = _mm256_sub_pd(zv, _mm256_mul_pd(uzv, t));
    const __m256d a = _mm256_add_pd(
        _mm256_add_pd(_mm256_mul_pd(rx, dxv), _mm256_mul_pd(ry, dyv)),
        _mm256_mul_pd(rz, dzv));
    _mm256_storeu_pd(out + i, a);
  }
  for (; i < n; ++i) {
    const double t = (x[i] * up.x + y[i] * up.y) + z[i] * up.z;
    const double rx = x[i] - up.x * t;
    const double ry = y[i] - up.y * t;
    const double rz = z[i] - up.z * t;
    out[i] = (rx * dir.x + ry * dir.y) + rz * dir.z;
  }
}

void residual_projectf_avx2(const float* x, const float* y, const float* z,
                            std::size_t n, Vec3 up, Vec3 dir, float* out) {
  const float ux = static_cast<float>(up.x);
  const float uy = static_cast<float>(up.y);
  const float uz = static_cast<float>(up.z);
  const float dx = static_cast<float>(dir.x);
  const float dy = static_cast<float>(dir.y);
  const float dz = static_cast<float>(dir.z);
  const __m256 uxv = _mm256_set1_ps(ux);
  const __m256 uyv = _mm256_set1_ps(uy);
  const __m256 uzv = _mm256_set1_ps(uz);
  const __m256 dxv = _mm256_set1_ps(dx);
  const __m256 dyv = _mm256_set1_ps(dy);
  const __m256 dzv = _mm256_set1_ps(dz);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    const __m256 yv = _mm256_loadu_ps(y + i);
    const __m256 zv = _mm256_loadu_ps(z + i);
    const __m256 t = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(xv, uxv), _mm256_mul_ps(yv, uyv)),
        _mm256_mul_ps(zv, uzv));
    const __m256 rx = _mm256_sub_ps(xv, _mm256_mul_ps(uxv, t));
    const __m256 ry = _mm256_sub_ps(yv, _mm256_mul_ps(uyv, t));
    const __m256 rz = _mm256_sub_ps(zv, _mm256_mul_ps(uzv, t));
    const __m256 a = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(rx, dxv), _mm256_mul_ps(ry, dyv)),
        _mm256_mul_ps(rz, dzv));
    _mm256_storeu_ps(out + i, a);
  }
  for (; i < n; ++i) {
    const float t = (x[i] * ux + y[i] * uy) + z[i] * uz;
    const float rx = x[i] - ux * t;
    const float ry = y[i] - uy * t;
    const float rz = z[i] - uz * t;
    out[i] = (rx * dx + ry * dy) + rz * dz;
  }
}

void negate_avx2(const double* xs, std::size_t n, double* out) {
  // Sign-bit flip, not 0-x: the latter maps -0.0 to +0.0 and would diverge
  // from the scalar unary minus.
  const __m256d sign = _mm256_set1_pd(-0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_xor_pd(_mm256_loadu_pd(xs + i), sign));
  }
  for (; i < n; ++i) out[i] = -xs[i];
}

void sub_scalar_avx2(const double* xs, std::size_t n, double m, double* out) {
  const __m256d mv = _mm256_set1_pd(m);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_sub_pd(_mm256_loadu_pd(xs + i), mv));
  }
  for (; i < n; ++i) out[i] = xs[i] - m;
}

void diff_div_avx2(const double* hi, const double* lo, std::size_t n,
                   double div, double* out) {
  const __m256d dv = _mm256_set1_pd(div);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i,
        _mm256_div_pd(
            _mm256_sub_pd(_mm256_loadu_pd(hi + i), _mm256_loadu_pd(lo + i)),
            dv));
  }
  for (; i < n; ++i) out[i] = (hi[i] - lo[i]) / div;
}

void widen_avx2(const float* xs, std::size_t n, double* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_cvtps_pd(_mm_loadu_ps(xs + i)));
  }
  for (; i < n; ++i) out[i] = static_cast<double>(xs[i]);
}

void narrow_avx2(const double* xs, std::size_t n, float* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(out + i, _mm256_cvtpd_ps(_mm256_loadu_pd(xs + i)));
  }
  for (; i < n; ++i) out[i] = static_cast<float>(xs[i]);
}

double min_until_greater_fwd_avx2(const double* xs, std::size_t n, double h) {
  const __m256d hv = _mm256_set1_pd(h);
  __m256d mv = hv;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(xs + i);
    // A breaker inside this block ends the scan mid-block; fall back to the
    // scalar walk from i so elements past the breaker stay excluded.
    if (_mm256_movemask_pd(_mm256_cmp_pd(x, hv, _CMP_GT_OQ)) != 0) break;
    mv = _mm256_min_pd(mv, x);
  }
  double m = std::min(h, hmin(mv));
  for (; i < n; ++i) {
    m = std::min(m, xs[i]);
    if (xs[i] > h) break;
  }
  return m;
}

double min_until_greater_bwd_avx2(const double* xs, std::size_t n, double h) {
  const __m256d hv = _mm256_set1_pd(h);
  __m256d mv = hv;
  std::size_t i = n;
  for (; i >= 4; i -= 4) {
    const __m256d x = _mm256_loadu_pd(xs + i - 4);
    if (_mm256_movemask_pd(_mm256_cmp_pd(x, hv, _CMP_GT_OQ)) != 0) break;
    mv = _mm256_min_pd(mv, x);
  }
  double m = std::min(h, hmin(mv));
  for (; i-- > 0;) {
    m = std::min(m, xs[i]);
    if (xs[i] > h) break;
  }
  return m;
}

void normalize_lags_avx2(const double* raw, std::size_t n, std::size_t nlags,
                         double den, double* out) {
  const __m256d nv = _mm256_set1_pd(static_cast<double>(n));
  const __m256d denv = _mm256_set1_pd(den);
  const __m256d onev = _mm256_set1_pd(1.0);
  const __m256d neg_onev = _mm256_set1_pd(-1.0);
  const __m256d fourv = _mm256_set1_pd(4.0);
  __m256d lagv = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
  std::size_t lag = 0;
  for (; lag + 4 <= nlags; lag += 4) {
    const __m256d scale = _mm256_div_pd(nv, _mm256_sub_pd(nv, lagv));
    const __m256d v = _mm256_div_pd(
        _mm256_mul_pd(_mm256_loadu_pd(raw + lag), scale), denv);
    _mm256_storeu_pd(out + lag,
                     _mm256_min_pd(_mm256_max_pd(v, neg_onev), onev));
    lagv = _mm256_add_pd(lagv, fourv);
  }
  for (; lag < nlags; ++lag) {
    const double scale =
        static_cast<double>(n) / static_cast<double>(n - lag);
    out[lag] = std::clamp(raw[lag] * scale / den, -1.0, 1.0);
  }
}

// The cascade recurrence is a serial dependency chain through the section
// state; if that state lives in a runtime-indexed array the chain gains a
// store-forward round trip per section per sample. Dispatching the section
// count to a compile-time constant lets the compiler fully unroll the
// section loop and keep every s1/s2 in a register, which is the difference
// between winning and losing against the auto-vectorized scalar loop.
template <std::size_t NSec>
void cascade_multi_avx2_n(const BiquadCoeffs* sections, double* data,
                          std::size_t n, bool backward) {
  struct SecV {
    __m256d b0, b1, b2, a1, a2;
  };
  SecV cs[NSec];
  __m256d s1[NSec];
  __m256d s2[NSec];
  for (std::size_t s = 0; s < NSec; ++s) {
    cs[s] = {_mm256_set1_pd(sections[s].b0), _mm256_set1_pd(sections[s].b1),
             _mm256_set1_pd(sections[s].b2), _mm256_set1_pd(sections[s].a1),
             _mm256_set1_pd(sections[s].a2)};
    s1[s] = _mm256_setzero_pd();
    s2[s] = _mm256_setzero_pd();
  }
  for (std::size_t k = 0; k < n; ++k) {
    double* p = data + (backward ? n - 1 - k : k) * kIirLanes;
    __m256d x = _mm256_loadu_pd(p);
    for (std::size_t s = 0; s < NSec; ++s) {
      const __m256d y = _mm256_add_pd(_mm256_mul_pd(cs[s].b0, x), s1[s]);
      s1[s] = _mm256_add_pd(_mm256_sub_pd(_mm256_mul_pd(cs[s].b1, x),
                                          _mm256_mul_pd(cs[s].a1, y)),
                            s2[s]);
      s2[s] = _mm256_sub_pd(_mm256_mul_pd(cs[s].b2, x),
                            _mm256_mul_pd(cs[s].a2, y));
      x = y;
    }
    _mm256_storeu_pd(p, x);
  }
}

void cascade_multi_avx2(const BiquadCoeffs* sections, std::size_t nsec,
                        double* data, std::size_t n, bool backward) {
  switch (nsec) {
    case 0: return;
    case 1: return cascade_multi_avx2_n<1>(sections, data, n, backward);
    case 2: return cascade_multi_avx2_n<2>(sections, data, n, backward);
    case 3: return cascade_multi_avx2_n<3>(sections, data, n, backward);
    case 4: return cascade_multi_avx2_n<4>(sections, data, n, backward);
    default: break;
  }
  // Rare deep cascades: fall back to the canonical loop (bit-identical).
  cascade_multi_canonical<double>(sections, nsec, data, n, backward);
}

template <std::size_t NSec>
void cascade_multif_avx2_n(const BiquadCoeffs* sections, float* data,
                           std::size_t n, bool backward) {
  struct SecV {
    __m128 b0, b1, b2, a1, a2;
  };
  SecV cs[NSec];
  __m128 s1[NSec];
  __m128 s2[NSec];
  for (std::size_t s = 0; s < NSec; ++s) {
    cs[s] = {_mm_set1_ps(static_cast<float>(sections[s].b0)),
             _mm_set1_ps(static_cast<float>(sections[s].b1)),
             _mm_set1_ps(static_cast<float>(sections[s].b2)),
             _mm_set1_ps(static_cast<float>(sections[s].a1)),
             _mm_set1_ps(static_cast<float>(sections[s].a2))};
    s1[s] = _mm_setzero_ps();
    s2[s] = _mm_setzero_ps();
  }
  for (std::size_t k = 0; k < n; ++k) {
    float* p = data + (backward ? n - 1 - k : k) * kIirLanes;
    __m128 x = _mm_loadu_ps(p);
    for (std::size_t s = 0; s < NSec; ++s) {
      const __m128 y = _mm_add_ps(_mm_mul_ps(cs[s].b0, x), s1[s]);
      s1[s] = _mm_add_ps(
          _mm_sub_ps(_mm_mul_ps(cs[s].b1, x), _mm_mul_ps(cs[s].a1, y)),
          s2[s]);
      s2[s] = _mm_sub_ps(_mm_mul_ps(cs[s].b2, x), _mm_mul_ps(cs[s].a2, y));
      x = y;
    }
    _mm_storeu_ps(p, x);
  }
}

/// 32 byte counters (one per lane), subtracting the all-ones compare mask,
/// summed into the total every 255 steps, before a counter can wrap.
std::size_t count_byte_avx2(const char* bytes, std::size_t n, char byte) {
  constexpr std::size_t kLanes = 32;
  constexpr std::size_t kBlockSteps = 255;
  const __m256i needle = _mm256_set1_epi8(byte);
  std::size_t total = 0;
  std::size_t i = 0;
  while (n - i >= kLanes) {
    __m256i lanes = _mm256_setzero_si256();
    const std::size_t steps = std::min((n - i) / kLanes, kBlockSteps);
    for (std::size_t s = 0; s < steps; ++s, i += kLanes) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bytes + i));
      lanes = _mm256_sub_epi8(lanes, _mm256_cmpeq_epi8(v, needle));
    }
    // Four 64-bit sums of eight byte counters each.
    const __m256i sums = _mm256_sad_epu8(lanes, _mm256_setzero_si256());
    total += static_cast<std::size_t>(_mm256_extract_epi64(sums, 0) +
                                      _mm256_extract_epi64(sums, 1) +
                                      _mm256_extract_epi64(sums, 2) +
                                      _mm256_extract_epi64(sums, 3));
  }
  return total + count_byte_canonical(bytes + i, n - i, byte);
}

void cascade_multif_avx2(const BiquadCoeffs* sections, std::size_t nsec,
                         float* data, std::size_t n, bool backward) {
  switch (nsec) {
    case 0: return;
    case 1: return cascade_multif_avx2_n<1>(sections, data, n, backward);
    case 2: return cascade_multif_avx2_n<2>(sections, data, n, backward);
    case 3: return cascade_multif_avx2_n<3>(sections, data, n, backward);
    case 4: return cascade_multif_avx2_n<4>(sections, data, n, backward);
    default: break;
  }
  cascade_multi_canonical<float>(sections, nsec, data, n, backward);
}

}  // namespace

const KernelTable& avx2_table() {
  static const KernelTable t = {
      &sum_avx2,
      &sumf_avx2,
      &dot_avx2,
      &dotf_avx2,
      &sumsq_dev_avx2,
      &sumsq_devf_avx2,
      &window_moments_avx2,
      &axis_project_avx2,
      &axis_projectf_avx2,
      &residual_project_avx2,
      &residual_projectf_avx2,
      &negate_avx2,
      &sub_scalar_avx2,
      &diff_div_avx2,
      &widen_avx2,
      &narrow_avx2,
      &min_until_greater_fwd_avx2,
      &min_until_greater_bwd_avx2,
      &normalize_lags_avx2,
      &count_byte_avx2,
      &cascade_multi_avx2,
      &cascade_multif_avx2,
  };
  return t;
}

}  // namespace ptrack::dsp::simd::detail
