// NEON lane of dsp::simd (aarch64; NEON is baseline there, so no extra
// -m flags — only -ffp-contract=off to uphold the no-FMA contract).
//
// Reductions keep the canonical lane-position partials in two 2×double
// (resp. two 4×float) accumulators and combine them in the canonical
// pairwise order; elementwise maps and the lane-parallel cascade mirror the
// scalar expression trees with vmulq/vaddq (never vfmaq). The scan and
// normalization kernels and the byte count reuse the canonical scalar
// implementations — they are cheap relative to the filters, and branchy
// early-exit scans gain little from 2-wide vectors.

#include <arm_neon.h>

#include <cstddef>

#include "dsp/simd_impl.hpp"

namespace ptrack::dsp::simd::detail {

namespace {

/// acc0 holds lane positions {0,1}, acc1 holds {2,3}:
/// (p0+p1)+(p2+p3) == vaddvq(acc0) + vaddvq(acc1) only if vaddvq pairs
/// adjacently — it does on aarch64 (vaddvq_f64 is lane0+lane1).
inline double hsum(float64x2_t acc0, float64x2_t acc1) {
  return vaddvq_f64(acc0) + vaddvq_f64(acc1);
}

/// acc0 = {p0..p3}, acc1 = {p4..p7}; vpadds gives the canonical pairwise
/// ((p0+p1)+(p2+p3)) per accumulator.
inline float hsumf(float32x4_t acc) {
  const float32x2_t pair =
      vpadd_f32(vget_low_f32(acc), vget_high_f32(acc));  // (p0+p1, p2+p3)
  return vget_lane_f32(pair, 0) + vget_lane_f32(pair, 1);
}

double sum_neon(const double* xs, std::size_t n) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 = vaddq_f64(acc0, vld1q_f64(xs + i));
    acc1 = vaddq_f64(acc1, vld1q_f64(xs + i + 2));
  }
  double total = hsum(acc0, acc1);
  for (; i < n; ++i) total += xs[i];
  return total;
}

float sumf_neon(const float* xs, std::size_t n) {
  float32x4_t acc0 = vdupq_n_f32(0.0F);
  float32x4_t acc1 = vdupq_n_f32(0.0F);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = vaddq_f32(acc0, vld1q_f32(xs + i));
    acc1 = vaddq_f32(acc1, vld1q_f32(xs + i + 4));
  }
  float total = hsumf(acc0) + hsumf(acc1);
  for (; i < n; ++i) total += xs[i];
  return total;
}

double dot_neon(const double* a, const double* b, std::size_t n) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 = vaddq_f64(acc0, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
    acc1 = vaddq_f64(acc1,
                     vmulq_f64(vld1q_f64(a + i + 2), vld1q_f64(b + i + 2)));
  }
  double total = hsum(acc0, acc1);
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

float dotf_neon(const float* a, const float* b, std::size_t n) {
  float32x4_t acc0 = vdupq_n_f32(0.0F);
  float32x4_t acc1 = vdupq_n_f32(0.0F);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = vaddq_f32(acc0, vmulq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
    acc1 = vaddq_f32(acc1,
                     vmulq_f32(vld1q_f32(a + i + 4), vld1q_f32(b + i + 4)));
  }
  float total = hsumf(acc0) + hsumf(acc1);
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

double sumsq_dev_neon(const double* xs, std::size_t n, double mean) {
  const float64x2_t mv = vdupq_n_f64(mean);
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float64x2_t d0 = vsubq_f64(vld1q_f64(xs + i), mv);
    const float64x2_t d1 = vsubq_f64(vld1q_f64(xs + i + 2), mv);
    acc0 = vaddq_f64(acc0, vmulq_f64(d0, d0));
    acc1 = vaddq_f64(acc1, vmulq_f64(d1, d1));
  }
  double total = hsum(acc0, acc1);
  for (; i < n; ++i) {
    const double d = xs[i] - mean;
    total += d * d;
  }
  return total;
}

float sumsq_devf_neon(const float* xs, std::size_t n, float mean) {
  const float32x4_t mv = vdupq_n_f32(mean);
  float32x4_t acc0 = vdupq_n_f32(0.0F);
  float32x4_t acc1 = vdupq_n_f32(0.0F);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const float32x4_t d0 = vsubq_f32(vld1q_f32(xs + i), mv);
    const float32x4_t d1 = vsubq_f32(vld1q_f32(xs + i + 4), mv);
    acc0 = vaddq_f32(acc0, vmulq_f32(d0, d0));
    acc1 = vaddq_f32(acc1, vmulq_f32(d1, d1));
  }
  float total = hsumf(acc0) + hsumf(acc1);
  for (; i < n; ++i) {
    const float d = xs[i] - mean;
    total += d * d;
  }
  return total;
}

WindowMoments window_moments_neon(const double* x, const double* y,
                                  const double* z, std::size_t n, Vec3 shift) {
  const float64x2_t sx = vdupq_n_f64(shift.x);
  const float64x2_t sy = vdupq_n_f64(shift.y);
  const float64x2_t sz = vdupq_n_f64(shift.z);
  // acc[k][0] holds lane positions {0,1}, acc[k][1] holds {2,3}.
  float64x2_t acc[kWindowSums][2];
  for (auto& a : acc) a[0] = a[1] = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t h = 0; h < 2; ++h) {
      const std::size_t o = i + 2 * h;
      const float64x2_t xv = vld1q_f64(x + o);
      const float64x2_t yv = vld1q_f64(y + o);
      const float64x2_t zv = vld1q_f64(z + o);
      const float64x2_t dx = vsubq_f64(xv, sx);
      const float64x2_t dy = vsubq_f64(yv, sy);
      const float64x2_t dz = vsubq_f64(zv, sz);
      acc[0][h] = vaddq_f64(acc[0][h], dx);
      acc[1][h] = vaddq_f64(acc[1][h], dy);
      acc[2][h] = vaddq_f64(acc[2][h], dz);
      acc[3][h] = vaddq_f64(acc[3][h], vmulq_f64(dx, dx));
      acc[4][h] = vaddq_f64(acc[4][h], vmulq_f64(dx, dy));
      acc[5][h] = vaddq_f64(acc[5][h], vmulq_f64(dx, dz));
      acc[6][h] = vaddq_f64(acc[6][h], vmulq_f64(dy, dy));
      acc[7][h] = vaddq_f64(acc[7][h], vmulq_f64(dy, dz));
      acc[8][h] = vaddq_f64(acc[8][h], vmulq_f64(dz, dz));
    }
  }
  double total[kWindowSums] = {};
  for (std::size_t k = 0; k < kWindowSums; ++k) {
    total[k] = hsum(acc[k][0], acc[k][1]);
  }
  return window_moments_tail(x, y, z, i, n, shift, total);
}

void axis_project_neon(const double* x, const double* y, const double* z,
                       std::size_t n, Vec3 u, double bias, double* out) {
  const float64x2_t uxv = vdupq_n_f64(u.x);
  const float64x2_t uyv = vdupq_n_f64(u.y);
  const float64x2_t uzv = vdupq_n_f64(u.z);
  const float64x2_t bv = vdupq_n_f64(bias);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t d = vaddq_f64(
        vaddq_f64(vmulq_f64(vld1q_f64(x + i), uxv),
                  vmulq_f64(vld1q_f64(y + i), uyv)),
        vmulq_f64(vld1q_f64(z + i), uzv));
    vst1q_f64(out + i, vsubq_f64(d, bv));
  }
  for (; i < n; ++i) {
    out[i] = ((x[i] * u.x + y[i] * u.y) + z[i] * u.z) - bias;
  }
}

void axis_projectf_neon(const float* x, const float* y, const float* z,
                        std::size_t n, Vec3 u, float bias, float* out) {
  const float ux = static_cast<float>(u.x);
  const float uy = static_cast<float>(u.y);
  const float uz = static_cast<float>(u.z);
  const float32x4_t uxv = vdupq_n_f32(ux);
  const float32x4_t uyv = vdupq_n_f32(uy);
  const float32x4_t uzv = vdupq_n_f32(uz);
  const float32x4_t bv = vdupq_n_f32(bias);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t d = vaddq_f32(
        vaddq_f32(vmulq_f32(vld1q_f32(x + i), uxv),
                  vmulq_f32(vld1q_f32(y + i), uyv)),
        vmulq_f32(vld1q_f32(z + i), uzv));
    vst1q_f32(out + i, vsubq_f32(d, bv));
  }
  for (; i < n; ++i) {
    out[i] = ((x[i] * ux + y[i] * uy) + z[i] * uz) - bias;
  }
}

void residual_project_neon(const double* x, const double* y, const double* z,
                           std::size_t n, Vec3 up, Vec3 dir, double* out) {
  const float64x2_t uxv = vdupq_n_f64(up.x);
  const float64x2_t uyv = vdupq_n_f64(up.y);
  const float64x2_t uzv = vdupq_n_f64(up.z);
  const float64x2_t dxv = vdupq_n_f64(dir.x);
  const float64x2_t dyv = vdupq_n_f64(dir.y);
  const float64x2_t dzv = vdupq_n_f64(dir.z);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t xv = vld1q_f64(x + i);
    const float64x2_t yv = vld1q_f64(y + i);
    const float64x2_t zv = vld1q_f64(z + i);
    const float64x2_t t = vaddq_f64(
        vaddq_f64(vmulq_f64(xv, uxv), vmulq_f64(yv, uyv)),
        vmulq_f64(zv, uzv));
    const float64x2_t rx = vsubq_f64(xv, vmulq_f64(uxv, t));
    const float64x2_t ry = vsubq_f64(yv, vmulq_f64(uyv, t));
    const float64x2_t rz = vsubq_f64(zv, vmulq_f64(uzv, t));
    vst1q_f64(out + i,
              vaddq_f64(vaddq_f64(vmulq_f64(rx, dxv), vmulq_f64(ry, dyv)),
                        vmulq_f64(rz, dzv)));
  }
  for (; i < n; ++i) {
    const double t = (x[i] * up.x + y[i] * up.y) + z[i] * up.z;
    const double rx = x[i] - up.x * t;
    const double ry = y[i] - up.y * t;
    const double rz = z[i] - up.z * t;
    out[i] = (rx * dir.x + ry * dir.y) + rz * dir.z;
  }
}

void residual_projectf_neon(const float* x, const float* y, const float* z,
                            std::size_t n, Vec3 up, Vec3 dir, float* out) {
  const float ux = static_cast<float>(up.x);
  const float uy = static_cast<float>(up.y);
  const float uz = static_cast<float>(up.z);
  const float dx = static_cast<float>(dir.x);
  const float dy = static_cast<float>(dir.y);
  const float dz = static_cast<float>(dir.z);
  const float32x4_t uxv = vdupq_n_f32(ux);
  const float32x4_t uyv = vdupq_n_f32(uy);
  const float32x4_t uzv = vdupq_n_f32(uz);
  const float32x4_t dxv = vdupq_n_f32(dx);
  const float32x4_t dyv = vdupq_n_f32(dy);
  const float32x4_t dzv = vdupq_n_f32(dz);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t xv = vld1q_f32(x + i);
    const float32x4_t yv = vld1q_f32(y + i);
    const float32x4_t zv = vld1q_f32(z + i);
    const float32x4_t t = vaddq_f32(
        vaddq_f32(vmulq_f32(xv, uxv), vmulq_f32(yv, uyv)),
        vmulq_f32(zv, uzv));
    const float32x4_t rx = vsubq_f32(xv, vmulq_f32(uxv, t));
    const float32x4_t ry = vsubq_f32(yv, vmulq_f32(uyv, t));
    const float32x4_t rz = vsubq_f32(zv, vmulq_f32(uzv, t));
    vst1q_f32(out + i,
              vaddq_f32(vaddq_f32(vmulq_f32(rx, dxv), vmulq_f32(ry, dyv)),
                        vmulq_f32(rz, dzv)));
  }
  for (; i < n; ++i) {
    const float t = (x[i] * ux + y[i] * uy) + z[i] * uz;
    const float rx = x[i] - ux * t;
    const float ry = y[i] - uy * t;
    const float rz = z[i] - uz * t;
    out[i] = (rx * dx + ry * dy) + rz * dz;
  }
}

void negate_neon(const double* xs, std::size_t n, double* out) {
  std::size_t i = 0;
  // vnegq flips the sign bit (preserves -0.0/+0.0), matching unary minus.
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vnegq_f64(vld1q_f64(xs + i)));
  }
  for (; i < n; ++i) out[i] = -xs[i];
}

void sub_scalar_neon(const double* xs, std::size_t n, double m, double* out) {
  const float64x2_t mv = vdupq_n_f64(m);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vsubq_f64(vld1q_f64(xs + i), mv));
  }
  for (; i < n; ++i) out[i] = xs[i] - m;
}

void diff_div_neon(const double* hi, const double* lo, std::size_t n,
                   double div, double* out) {
  const float64x2_t dv = vdupq_n_f64(div);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i,
              vdivq_f64(vsubq_f64(vld1q_f64(hi + i), vld1q_f64(lo + i)), dv));
  }
  for (; i < n; ++i) out[i] = (hi[i] - lo[i]) / div;
}

void widen_neon(const float* xs, std::size_t n, double* out) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vcvt_f64_f32(vld1_f32(xs + i)));
  }
  for (; i < n; ++i) out[i] = static_cast<double>(xs[i]);
}

void narrow_neon(const double* xs, std::size_t n, float* out) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1_f32(out + i, vcvt_f32_f64(vld1q_f64(xs + i)));
  }
  for (; i < n; ++i) out[i] = static_cast<float>(xs[i]);
}

// As in the AVX2 lane: a compile-time section count keeps the recurrence
// state in registers instead of a runtime-indexed array, removing a
// store-forward round trip from the serial dependency chain.
template <std::size_t NSec>
void cascade_multi_neon_n(const BiquadCoeffs* sections, double* data,
                          std::size_t n, bool backward) {
  struct SecV {
    float64x2_t b0, b1, b2, a1, a2;
  };
  SecV cs[NSec];
  float64x2_t s1lo[NSec];
  float64x2_t s1hi[NSec];
  float64x2_t s2lo[NSec];
  float64x2_t s2hi[NSec];
  for (std::size_t s = 0; s < NSec; ++s) {
    cs[s] = {vdupq_n_f64(sections[s].b0), vdupq_n_f64(sections[s].b1),
             vdupq_n_f64(sections[s].b2), vdupq_n_f64(sections[s].a1),
             vdupq_n_f64(sections[s].a2)};
    s1lo[s] = vdupq_n_f64(0.0);
    s1hi[s] = vdupq_n_f64(0.0);
    s2lo[s] = vdupq_n_f64(0.0);
    s2hi[s] = vdupq_n_f64(0.0);
  }
  for (std::size_t k = 0; k < n; ++k) {
    double* p = data + (backward ? n - 1 - k : k) * kIirLanes;
    float64x2_t xlo = vld1q_f64(p);
    float64x2_t xhi = vld1q_f64(p + 2);
    for (std::size_t s = 0; s < NSec; ++s) {
      const float64x2_t ylo = vaddq_f64(vmulq_f64(cs[s].b0, xlo), s1lo[s]);
      const float64x2_t yhi = vaddq_f64(vmulq_f64(cs[s].b0, xhi), s1hi[s]);
      s1lo[s] = vaddq_f64(vsubq_f64(vmulq_f64(cs[s].b1, xlo),
                                    vmulq_f64(cs[s].a1, ylo)),
                          s2lo[s]);
      s1hi[s] = vaddq_f64(vsubq_f64(vmulq_f64(cs[s].b1, xhi),
                                    vmulq_f64(cs[s].a1, yhi)),
                          s2hi[s]);
      s2lo[s] = vsubq_f64(vmulq_f64(cs[s].b2, xlo), vmulq_f64(cs[s].a2, ylo));
      s2hi[s] = vsubq_f64(vmulq_f64(cs[s].b2, xhi), vmulq_f64(cs[s].a2, yhi));
      xlo = ylo;
      xhi = yhi;
    }
    vst1q_f64(p, xlo);
    vst1q_f64(p + 2, xhi);
  }
}

void cascade_multi_neon(const BiquadCoeffs* sections, std::size_t nsec,
                        double* data, std::size_t n, bool backward) {
  switch (nsec) {
    case 0: return;
    case 1: return cascade_multi_neon_n<1>(sections, data, n, backward);
    case 2: return cascade_multi_neon_n<2>(sections, data, n, backward);
    case 3: return cascade_multi_neon_n<3>(sections, data, n, backward);
    case 4: return cascade_multi_neon_n<4>(sections, data, n, backward);
    default: break;
  }
  cascade_multi_canonical<double>(sections, nsec, data, n, backward);
}

template <std::size_t NSec>
void cascade_multif_neon_n(const BiquadCoeffs* sections, float* data,
                           std::size_t n, bool backward) {
  struct SecV {
    float32x4_t b0, b1, b2, a1, a2;
  };
  SecV cs[NSec];
  float32x4_t s1[NSec];
  float32x4_t s2[NSec];
  for (std::size_t s = 0; s < NSec; ++s) {
    cs[s] = {vdupq_n_f32(static_cast<float>(sections[s].b0)),
             vdupq_n_f32(static_cast<float>(sections[s].b1)),
             vdupq_n_f32(static_cast<float>(sections[s].b2)),
             vdupq_n_f32(static_cast<float>(sections[s].a1)),
             vdupq_n_f32(static_cast<float>(sections[s].a2))};
    s1[s] = vdupq_n_f32(0.0F);
    s2[s] = vdupq_n_f32(0.0F);
  }
  for (std::size_t k = 0; k < n; ++k) {
    float* p = data + (backward ? n - 1 - k : k) * kIirLanes;
    float32x4_t x = vld1q_f32(p);
    for (std::size_t s = 0; s < NSec; ++s) {
      const float32x4_t y = vaddq_f32(vmulq_f32(cs[s].b0, x), s1[s]);
      s1[s] = vaddq_f32(
          vsubq_f32(vmulq_f32(cs[s].b1, x), vmulq_f32(cs[s].a1, y)), s2[s]);
      s2[s] = vsubq_f32(vmulq_f32(cs[s].b2, x), vmulq_f32(cs[s].a2, y));
      x = y;
    }
    vst1q_f32(p, x);
  }
}

void cascade_multif_neon(const BiquadCoeffs* sections, std::size_t nsec,
                         float* data, std::size_t n, bool backward) {
  switch (nsec) {
    case 0: return;
    case 1: return cascade_multif_neon_n<1>(sections, data, n, backward);
    case 2: return cascade_multif_neon_n<2>(sections, data, n, backward);
    case 3: return cascade_multif_neon_n<3>(sections, data, n, backward);
    case 4: return cascade_multif_neon_n<4>(sections, data, n, backward);
    default: break;
  }
  cascade_multi_canonical<float>(sections, nsec, data, n, backward);
}

}  // namespace

const KernelTable& neon_table() {
  static const KernelTable t = {
      &sum_neon,
      &sumf_neon,
      &dot_neon,
      &dotf_neon,
      &sumsq_dev_neon,
      &sumsq_devf_neon,
      &window_moments_neon,
      &axis_project_neon,
      &axis_projectf_neon,
      &residual_project_neon,
      &residual_projectf_neon,
      &negate_neon,
      &sub_scalar_neon,
      &diff_div_neon,
      &widen_neon,
      &narrow_neon,
      &min_until_greater_fwd_canonical,
      &min_until_greater_bwd_canonical,
      &normalize_lags_canonical,
      &count_byte_canonical,
      &cascade_multi_neon,
      &cascade_multif_neon,
  };
  return t;
}

}  // namespace ptrack::dsp::simd::detail
