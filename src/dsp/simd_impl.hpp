// Internal dispatch plumbing for dsp::simd — the per-ISA kernel table and
// the canonical scalar kernels every ISA must reproduce bit for bit.
//
// The scalar kernels below are the *definition* of each kernel's result:
// reductions keep kDoubleBlock/kFloatBlock independent partial accumulators
// (one per vector lane position) combined pairwise, elementwise maps fix
// one expression-tree order per element. A vector implementation is correct
// exactly when it computes the same thing — same lanes, same combine, no
// FMA — so the scalar fallback (and the PTRACK_SIMD=OFF build) is not an
// approximation of the SIMD path but its reference.
//
// Not a public header: include only from simd*.cpp.

#pragma once

#include <algorithm>
#include <cstddef>

#include "common/vec3.hpp"
#include "dsp/biquad.hpp"
#include "dsp/simd.hpp"

namespace ptrack::dsp::simd::detail {

/// Upper bound on cascade sections the lane-parallel IIR kernels support
/// (order 16 — the tree uses order <= 4).
inline constexpr std::size_t kMaxSections = 8;

/// One entry per kernel; each ISA provides a table of these.
struct KernelTable {
  double (*sum_d)(const double*, std::size_t);
  float (*sum_f)(const float*, std::size_t);
  double (*dot_d)(const double*, const double*, std::size_t);
  float (*dot_f)(const float*, const float*, std::size_t);
  double (*sumsq_dev_d)(const double*, std::size_t, double);
  float (*sumsq_dev_f)(const float*, std::size_t, float);
  WindowMoments (*window_moments_d)(const double*, const double*,
                                    const double*, std::size_t, Vec3);
  void (*axis_project_d)(const double*, const double*, const double*,
                         std::size_t, Vec3, double, double*);
  void (*axis_project_f)(const float*, const float*, const float*,
                         std::size_t, Vec3, float, float*);
  void (*residual_project_d)(const double*, const double*, const double*,
                             std::size_t, Vec3, Vec3, double*);
  void (*residual_project_f)(const float*, const float*, const float*,
                             std::size_t, Vec3, Vec3, float*);
  void (*negate_d)(const double*, std::size_t, double*);
  void (*sub_scalar_d)(const double*, std::size_t, double, double*);
  void (*diff_div_d)(const double*, const double*, std::size_t, double,
                     double*);
  void (*widen_f)(const float*, std::size_t, double*);
  void (*narrow_d)(const double*, std::size_t, float*);
  double (*min_until_greater_fwd_d)(const double*, std::size_t, double);
  double (*min_until_greater_bwd_d)(const double*, std::size_t, double);
  void (*normalize_lags_d)(const double*, std::size_t, std::size_t, double,
                           double*);
  std::size_t (*count_byte)(const char*, std::size_t, char);
  void (*cascade_multi_d)(const BiquadCoeffs*, std::size_t, double*,
                          std::size_t, bool);
  void (*cascade_multi_f)(const BiquadCoeffs*, std::size_t, float*,
                          std::size_t, bool);
};

/// The canonical scalar table (always compiled).
const KernelTable& scalar_table();

#ifdef PTRACK_SIMD_HAVE_AVX2
const KernelTable& avx2_table();
#endif
#ifdef PTRACK_SIMD_HAVE_NEON
const KernelTable& neon_table();
#endif

// --- Canonical scalar kernels ----------------------------------------------

template <typename T>
inline constexpr std::size_t kBlock =
    sizeof(T) == sizeof(double) ? kDoubleBlock : kFloatBlock;

/// Pairwise combine of the partial accumulators — the fixed order a vector
/// horizontal sum reproduces.
template <typename T, std::size_t B = kBlock<T>>
T combine_block(const T* acc) {
  if constexpr (B == 4) {
    return (acc[0] + acc[1]) + (acc[2] + acc[3]);
  } else {
    static_assert(B == 8);
    return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
           ((acc[4] + acc[5]) + (acc[6] + acc[7]));
  }
}

template <typename T>
T sum_canonical(const T* xs, std::size_t n) {
  constexpr std::size_t B = kBlock<T>;
  T acc[B] = {};
  std::size_t i = 0;
  for (; i + B <= n; i += B) {
    for (std::size_t j = 0; j < B; ++j) acc[j] += xs[i + j];
  }
  T total = combine_block<T>(acc);
  for (; i < n; ++i) total += xs[i];
  return total;
}

template <typename T>
T dot_canonical(const T* a, const T* b, std::size_t n) {
  constexpr std::size_t B = kBlock<T>;
  T acc[B] = {};
  std::size_t i = 0;
  for (; i + B <= n; i += B) {
    for (std::size_t j = 0; j < B; ++j) acc[j] += a[i + j] * b[i + j];
  }
  T total = combine_block<T>(acc);
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

template <typename T>
T sumsq_dev_canonical(const T* xs, std::size_t n, T mean) {
  constexpr std::size_t B = kBlock<T>;
  T acc[B] = {};
  std::size_t i = 0;
  for (; i + B <= n; i += B) {
    for (std::size_t j = 0; j < B; ++j) {
      const T d = xs[i + j] - mean;
      acc[j] += d * d;
    }
  }
  T total = combine_block<T>(acc);
  for (; i < n; ++i) {
    const T d = xs[i] - mean;
    total += d * d;
  }
  return total;
}

/// Number of reductions in WindowMoments, in the order the kernels keep
/// them: sum d.x, d.y, d.z; xx, xy, xz, yy, yz, zz.
inline constexpr std::size_t kWindowSums = 9;

/// The kWindowSums per-sample terms of window_moments.
inline void window_terms(double x, double y, double z, Vec3 shift,
                         double* t) {
  const double dx = x - shift.x;
  const double dy = y - shift.y;
  const double dz = z - shift.z;
  t[0] = dx;
  t[1] = dy;
  t[2] = dz;
  t[3] = dx * dx;
  t[4] = dx * dy;
  t[5] = dx * dz;
  t[6] = dy * dy;
  t[7] = dy * dz;
  t[8] = dz * dz;
}

inline WindowMoments window_moments_from(const double* s) {
  WindowMoments m;
  m.sum = Vec3{s[0], s[1], s[2]};
  m.xx = s[3];
  m.xy = s[4];
  m.xz = s[5];
  m.yy = s[6];
  m.yz = s[7];
  m.zz = s[8];
  return m;
}

/// Adds the serial tail [i, n) onto the combined block totals — shared by
/// every ISA so the tail order is one definition.
inline WindowMoments window_moments_tail(const double* x, const double* y,
                                         const double* z, std::size_t i,
                                         std::size_t n, Vec3 shift,
                                         double* total) {
  double t[kWindowSums] = {};
  for (; i < n; ++i) {
    window_terms(x[i], y[i], z[i], shift, t);
    for (std::size_t k = 0; k < kWindowSums; ++k) total[k] += t[k];
  }
  return window_moments_from(total);
}

inline WindowMoments window_moments_canonical(const double* x, const double* y,
                                              const double* z, std::size_t n,
                                              Vec3 shift) {
  constexpr std::size_t B = kDoubleBlock;
  double acc[kWindowSums][B] = {};
  double t[kWindowSums] = {};
  std::size_t i = 0;
  for (; i + B <= n; i += B) {
    for (std::size_t j = 0; j < B; ++j) {
      window_terms(x[i + j], y[i + j], z[i + j], shift, t);
      for (std::size_t k = 0; k < kWindowSums; ++k) acc[k][j] += t[k];
    }
  }
  double total[kWindowSums] = {};
  for (std::size_t k = 0; k < kWindowSums; ++k) {
    total[k] = combine_block<double>(acc[k]);
  }
  return window_moments_tail(x, y, z, i, n, shift, total);
}

template <typename T>
void axis_project_canonical(const T* x, const T* y, const T* z, std::size_t n,
                            Vec3 u, T bias, T* out) {
  const T ux = static_cast<T>(u.x);
  const T uy = static_cast<T>(u.y);
  const T uz = static_cast<T>(u.z);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = ((x[i] * ux + y[i] * uy) + z[i] * uz) - bias;
  }
}

template <typename T>
void residual_project_canonical(const T* x, const T* y, const T* z,
                                std::size_t n, Vec3 up, Vec3 dir, T* out) {
  const T ux = static_cast<T>(up.x);
  const T uy = static_cast<T>(up.y);
  const T uz = static_cast<T>(up.z);
  const T dx = static_cast<T>(dir.x);
  const T dy = static_cast<T>(dir.y);
  const T dz = static_cast<T>(dir.z);
  for (std::size_t i = 0; i < n; ++i) {
    const T t = (x[i] * ux + y[i] * uy) + z[i] * uz;
    const T rx = x[i] - ux * t;
    const T ry = y[i] - uy * t;
    const T rz = z[i] - uz * t;
    out[i] = (rx * dx + ry * dy) + rz * dz;
  }
}

inline void negate_canonical(const double* xs, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = -xs[i];
}

inline void sub_scalar_canonical(const double* xs, std::size_t n, double m,
                                 double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = xs[i] - m;
}

inline void diff_div_canonical(const double* hi, const double* lo,
                               std::size_t n, double div, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = (hi[i] - lo[i]) / div;
}

inline void widen_canonical(const float* xs, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<double>(xs[i]);
}

inline void narrow_canonical(const double* xs, std::size_t n, float* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<float>(xs[i]);
}

inline double min_until_greater_fwd_canonical(const double* xs, std::size_t n,
                                              double h) {
  double m = h;
  for (std::size_t i = 0; i < n; ++i) {
    m = std::min(m, xs[i]);
    if (xs[i] > h) break;
  }
  return m;
}

inline double min_until_greater_bwd_canonical(const double* xs, std::size_t n,
                                              double h) {
  double m = h;
  for (std::size_t i = n; i-- > 0;) {
    m = std::min(m, xs[i]);
    if (xs[i] > h) break;
  }
  return m;
}

inline void normalize_lags_canonical(const double* raw, std::size_t n,
                                     std::size_t nlags, double den,
                                     double* out) {
  for (std::size_t lag = 0; lag < nlags; ++lag) {
    const double scale =
        static_cast<double>(n) / static_cast<double>(n - lag);
    out[lag] = std::clamp(raw[lag] * scale / den, -1.0, 1.0);
  }
}

inline std::size_t count_byte_canonical(const char* bytes, std::size_t n,
                                        char byte) {
  return static_cast<std::size_t>(std::count(bytes, bytes + n, byte));
}

/// Lane-parallel biquad cascade; per lane this is exactly Biquad::step's
/// update order, so any lane matches a single-channel BiquadCascade run.
template <typename T>
void cascade_multi_canonical(const BiquadCoeffs* sections, std::size_t nsec,
                             T* data, std::size_t n, bool backward) {
  struct Sec {
    T b0, b1, b2, a1, a2;
  };
  Sec cs[kMaxSections];
  T s1[kMaxSections][kIirLanes] = {};
  T s2[kMaxSections][kIirLanes] = {};
  for (std::size_t s = 0; s < nsec; ++s) {
    cs[s] = {static_cast<T>(sections[s].b0), static_cast<T>(sections[s].b1),
             static_cast<T>(sections[s].b2), static_cast<T>(sections[s].a1),
             static_cast<T>(sections[s].a2)};
  }
  for (std::size_t k = 0; k < n; ++k) {
    T* x = data + (backward ? n - 1 - k : k) * kIirLanes;
    for (std::size_t s = 0; s < nsec; ++s) {
      for (std::size_t j = 0; j < kIirLanes; ++j) {
        const T y = cs[s].b0 * x[j] + s1[s][j];
        s1[s][j] = cs[s].b1 * x[j] - cs[s].a1 * y + s2[s][j];
        s2[s][j] = cs[s].b2 * x[j] - cs[s].a2 * y;
        x[j] = y;
      }
    }
  }
}

}  // namespace ptrack::dsp::simd::detail
