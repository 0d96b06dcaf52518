// Internal dispatch plumbing for dsp::simd — the per-ISA kernel table and
// the canonical scalar kernels every ISA must reproduce bit for bit.
//
// The scalar kernels below are the *definition* of each kernel's result:
// reductions keep kDoubleBlock independent partial accumulators (one per
// vector lane position) combined pairwise, elementwise maps fix
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

/// One entry per kernel; each ISA provides a table of these.
struct KernelTable {
  double (*sum_d)(const double*, std::size_t);
  double (*dot_d)(const double*, const double*, std::size_t);
  double (*sumsq_dev_d)(const double*, std::size_t, double);
  WindowMoments (*window_moments_d)(const double*, const double*,
                                    const double*, std::size_t, Vec3);
  void (*axis_project_d)(const double*, const double*, const double*,
                         std::size_t, Vec3, double, double*);
  void (*residual_project_d)(const double*, const double*, const double*,
                             std::size_t, Vec3, Vec3, double*);
  void (*negate_d)(const double*, std::size_t, double*);
  void (*sub_scalar_d)(const double*, std::size_t, double, double*);
  void (*diff_div_d)(const double*, const double*, std::size_t, double,
                     double*);
  double (*min_until_greater_fwd_d)(const double*, std::size_t, double);
  double (*min_until_greater_bwd_d)(const double*, std::size_t, double);
  void (*normalize_lags_d)(const double*, std::size_t, std::size_t, double,
                           double*);
  std::size_t (*count_byte)(const char*, std::size_t, char);
  void (*cascade_multi_d)(const BiquadCoeffs*, std::size_t, double*,
                          std::size_t, bool, CascadeState*);
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

/// Pairwise combine of the kDoubleBlock partial accumulators — the fixed
/// order a vector horizontal sum reproduces.
inline double combine_block(const double* acc) {
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

inline double sum_canonical(const double* xs, std::size_t n) {
  constexpr std::size_t B = kDoubleBlock;
  double acc[B] = {};
  std::size_t i = 0;
  for (; i + B <= n; i += B) {
    for (std::size_t j = 0; j < B; ++j) acc[j] += xs[i + j];
  }
  double total = combine_block(acc);
  for (; i < n; ++i) total += xs[i];
  return total;
}

inline double dot_canonical(const double* a, const double* b, std::size_t n) {
  constexpr std::size_t B = kDoubleBlock;
  double acc[B] = {};
  std::size_t i = 0;
  for (; i + B <= n; i += B) {
    for (std::size_t j = 0; j < B; ++j) acc[j] += a[i + j] * b[i + j];
  }
  double total = combine_block(acc);
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

inline double sumsq_dev_canonical(const double* xs, std::size_t n,
                                  double mean) {
  constexpr std::size_t B = kDoubleBlock;
  double acc[B] = {};
  std::size_t i = 0;
  for (; i + B <= n; i += B) {
    for (std::size_t j = 0; j < B; ++j) {
      const double d = xs[i + j] - mean;
      acc[j] += d * d;
    }
  }
  double total = combine_block(acc);
  for (; i < n; ++i) {
    const double d = xs[i] - mean;
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
    total[k] = combine_block(acc[k]);
  }
  return window_moments_tail(x, y, z, i, n, shift, total);
}

inline void axis_project_canonical(const double* x, const double* y,
                                   const double* z, std::size_t n, Vec3 u,
                                   double bias, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = ((x[i] * u.x + y[i] * u.y) + z[i] * u.z) - bias;
  }
}

inline void residual_project_canonical(const double* x, const double* y,
                                       const double* z, std::size_t n,
                                       Vec3 up, Vec3 dir, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const double t = (x[i] * up.x + y[i] * up.y) + z[i] * up.z;
    const double rx = x[i] - up.x * t;
    const double ry = y[i] - up.y * t;
    const double rz = z[i] - up.z * t;
    out[i] = (rx * dir.x + ry * dir.y) + rz * dir.z;
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
/// Starts from `state` (zero when null) and stores the final state back.
inline void cascade_multi_canonical(const BiquadCoeffs* sections,
                                    std::size_t nsec, double* data,
                                    std::size_t n, bool backward,
                                    CascadeState* state) {
  struct Sec {
    double b0, b1, b2, a1, a2;
  };
  Sec cs[kMaxIirSections];
  CascadeState st = state ? *state : CascadeState{};
  for (std::size_t s = 0; s < nsec; ++s) {
    cs[s] = {sections[s].b0, sections[s].b1, sections[s].b2, sections[s].a1,
             sections[s].a2};
  }
  for (std::size_t k = 0; k < n; ++k) {
    double* x = data + (backward ? n - 1 - k : k) * kIirLanes;
    for (std::size_t s = 0; s < nsec; ++s) {
      for (std::size_t j = 0; j < kIirLanes; ++j) {
        const double y = cs[s].b0 * x[j] + st.s1[s][j];
        st.s1[s][j] = cs[s].b1 * x[j] - cs[s].a1 * y + st.s2[s][j];
        st.s2[s][j] = cs[s].b2 * x[j] - cs[s].a2 * y;
        x[j] = y;
      }
    }
  }
  if (state) *state = st;
}

}  // namespace ptrack::dsp::simd::detail
