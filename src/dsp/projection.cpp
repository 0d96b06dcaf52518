#include "dsp/projection.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "dsp/butterworth.hpp"
#include "dsp/filtfilt.hpp"
#include "dsp/simd.hpp"
#include "dsp/workspace.hpp"

namespace ptrack::dsp {

namespace {

/// Orthonormal horizontal basis (e1, e2) perpendicular to a unit up.
struct HorizontalBasis {
  Vec3 e1;
  Vec3 e2;
};

HorizontalBasis horizontal_basis(const Vec3& up) {
  const Vec3 ref = std::abs(up.z) < 0.9 ? kVertical : kAnterior;
  const Vec3 e1 = up.cross(ref).normalized();
  return {e1, up.cross(e1).normalized()};
}

/// Leading eigenvector of the horizontal scatter [[s11, s12], [s12, s22]]
/// in `basis`, as a unit 3-vector.
Vec3 leading_direction(double s11, double s12, double s22,
                       const HorizontalBasis& basis) {
  const double tr = s11 + s22;
  const double det = s11 * s22 - s12 * s12;
  const double lambda =
      0.5 * tr + std::sqrt(std::max(0.25 * tr * tr - det, 0.0));
  double v1;
  double v2;
  if (std::abs(s12) > 1e-12) {
    v1 = lambda - s22;
    v2 = s12;
  } else if (s11 >= s22) {
    v1 = 1.0;
    v2 = 0.0;
  } else {
    v1 = 0.0;
    v2 = 1.0;
  }
  return (basis.e1 * v1 + basis.e2 * v2).normalized();
}

/// Leading horizontal direction from a window's moments: the covariance of
/// the (e1, e2) coordinates is e^T S e for the centred scatter matrix S.
Vec3 forward_from_moments(const simd::WindowMoments& m, std::size_t n,
                          const Vec3& up) {
  const HorizontalBasis basis = horizontal_basis(up);
  const Vec3& d = m.sum;
  const double inv_n = 1.0 / static_cast<double>(n);
  const double sxx = m.xx - d.x * d.x * inv_n;
  const double sxy = m.xy - d.x * d.y * inv_n;
  const double sxz = m.xz - d.x * d.z * inv_n;
  const double syy = m.yy - d.y * d.y * inv_n;
  const double syz = m.yz - d.y * d.z * inv_n;
  const double szz = m.zz - d.z * d.z * inv_n;
  const auto scatter = [&](const Vec3& u, const Vec3& v) {
    return u.dot(Vec3{sxx * v.x + sxy * v.y + sxz * v.z,
                      sxy * v.x + syy * v.y + syz * v.z,
                      sxz * v.x + syz * v.y + szz * v.z});
  };
  return leading_direction(scatter(basis.e1, basis.e1),
                           scatter(basis.e1, basis.e2),
                           scatter(basis.e2, basis.e2), basis);
}

/// Gravity cutoff actually applied at sample rate fs (kept below Nyquist).
double gravity_cutoff(double cutoff_hz, double fs) {
  return std::min(cutoff_hz, 0.45 * fs);
}

/// Reflection pad of estimate_up's zero-phase filter (clamped to n - 1
/// like every filtfilt).
constexpr std::size_t kGravityPad = 64;

/// Shared estimate_up core over already-split channel spans.
Vec3 estimate_up_channels(std::span<const double> x, std::span<const double> y,
                          std::span<const double> z, double fs,
                          double cutoff_hz, Workspace* ws) {
  expects(x.size() >= 4, "estimate_up: >= 4 samples");
  expects(x.size() == y.size() && y.size() == z.size(),
          "estimate_up: equal channel lengths");
  expects(fs > 0.0, "estimate_up: fs > 0");
  // Heavy low-pass, then average: cyclic components vanish, gravity remains.
  const double fc = gravity_cutoff(cutoff_hz, fs);
  Vec3 g{};
  if (ws) {
    // All three channels through the lane-parallel zero-phase filter in one
    // pass (padded scratch in slot 0). Per channel this is bit-identical to
    // the old one-at-a-time zero_phase_lowpass_into + serial mean.
    const std::array<std::span<const double>, 3> chans{x, y, z};
    const auto means = filtfilt_multi_mean(butterworth_lowpass(2, fc, fs),
                                           chans, kGravityPad, *ws);
    g = {means[0], means[1], means[2]};
  } else {
    const auto lx = zero_phase_lowpass(x, fc, fs, 2);
    const auto ly = zero_phase_lowpass(y, fc, fs, 2);
    const auto lz = zero_phase_lowpass(z, fc, fs, 2);
    for (std::size_t i = 0; i < lx.size(); ++i) {
      g += Vec3{lx[i], ly[i], lz[i]};
    }
    g /= static_cast<double>(lx.size());
  }
  check(g.norm() > 1e-6, "estimate_up: gravity magnitude not degenerate");
  return g.normalized();
}

/// Shared principal-direction core; `get(i)` yields the i-th force vector.
template <typename GetForce>
Vec3 principal_horizontal_impl(std::size_t n, GetForce&& get, const Vec3& up) {
  expects(n > 0, "principal_horizontal_direction: non-empty");
  const HorizontalBasis basis = horizontal_basis(up);

  // 2x2 covariance of the horizontal residual in (e1, e2).
  double m1 = 0.0;
  double m2 = 0.0;
  std::vector<std::pair<double, double>> h;
  // ptrack-lint: push-allow(alloc) batch axis estimation; streaming hops
  // take their pinned axes from AxisEstimator's one-pass moments instead
  h.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 f = get(i);
    const Vec3 residual = f - up * f.dot(up);
    const double a = residual.dot(basis.e1);
    const double b = residual.dot(basis.e2);
    h.emplace_back(a, b);
    m1 += a;
    m2 += b;
  }
  // ptrack-lint: pop-allow(alloc)
  m1 /= static_cast<double>(h.size());
  m2 /= static_cast<double>(h.size());
  double s11 = 0.0;
  double s12 = 0.0;
  double s22 = 0.0;
  for (const auto& [a, b] : h) {
    s11 += (a - m1) * (a - m1);
    s12 += (a - m1) * (b - m2);
    s22 += (b - m2) * (b - m2);
  }

  return leading_direction(s11, s12, s22, basis);
}

}  // namespace

Vec3 estimate_up(std::span<const Vec3> specific_force, double fs,
                 double cutoff_hz) {
  std::vector<double> x(specific_force.size());
  std::vector<double> y(specific_force.size());
  std::vector<double> z(specific_force.size());
  for (std::size_t i = 0; i < specific_force.size(); ++i) {
    x[i] = specific_force[i].x;
    y[i] = specific_force[i].y;
    z[i] = specific_force[i].z;
  }
  return estimate_up_channels(x, y, z, fs, cutoff_hz, nullptr);
}

Vec3 estimate_up(std::span<const double> x, std::span<const double> y,
                 std::span<const double> z, double fs, double cutoff_hz,
                 Workspace* ws) {
  return estimate_up_channels(x, y, z, fs, cutoff_hz, ws);
}

Vec3 principal_horizontal_direction(std::span<const Vec3> specific_force,
                                    const Vec3& up) {
  return principal_horizontal_impl(
      specific_force.size(),
      [&](std::size_t i) { return specific_force[i]; }, up);
}

Vec3 principal_horizontal_direction(std::span<const double> x,
                                    std::span<const double> y,
                                    std::span<const double> z,
                                    const Vec3& up) {
  expects(x.size() == y.size() && y.size() == z.size(),
          "principal_horizontal_direction: equal channel lengths");
  const std::size_t n = x.size();
  expects(n > 0, "principal_horizontal_direction: non-empty");
  const HorizontalBasis basis = horizontal_basis(up);

  // Horizontal-residual coordinates via the SIMD projection kernel (exact
  // expression-order replica of the Vec3 arithmetic), then the same serial
  // reductions as the AoS overload — results are bit-identical to it.
  thread_local std::vector<double> ta;
  thread_local std::vector<double> tb;
  // ptrack-lint: push-allow(alloc) per-thread scratch; steady capacity
  ta.resize(n);
  tb.resize(n);
  // ptrack-lint: pop-allow(alloc)
  simd::residual_project(x, y, z, up, basis.e1, ta);
  simd::residual_project(x, y, z, up, basis.e2, tb);

  double m1 = 0.0;
  double m2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    m1 += ta[i];
    m2 += tb[i];
  }
  m1 /= static_cast<double>(n);
  m2 /= static_cast<double>(n);
  double s11 = 0.0;
  double s12 = 0.0;
  double s22 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    s11 += (ta[i] - m1) * (ta[i] - m1);
    s12 += (ta[i] - m1) * (tb[i] - m2);
    s22 += (tb[i] - m2) * (tb[i] - m2);
  }

  return leading_direction(s11, s12, s22, basis);
}

AxisEstimator::AxisEstimator(double fs, std::size_t max_window) {
  expects(fs > 0.0, "AxisEstimator: fs > 0");
  lowpass_ = butterworth_lowpass(2, gravity_cutoff(kGravityCutoffHz, fs), fs);
  padded_.reserve(max_window + 2 * kGravityPad);
}

std::span<const double> AxisEstimator::gravity_weights(std::size_t n) {
  if (n != n_) {
    // w = P^T J H J H u: run estimate_up's forward/backward pass over u,
    // then fold each reflected pad entry 2*x_edge - x_k back onto x_edge
    // (+2v) and x_k (-v).
    pad_ = std::min(kGravityPad, n - 1);
    // ptrack-lint: allow(alloc) within the capacity reserved at construction
    padded_.assign(n + 2 * pad_, 0.0);
    const std::span<double> buf(padded_);
    std::fill_n(buf.begin() + static_cast<std::ptrdiff_t>(pad_), n,
                1.0 / static_cast<double>(n));
    lowpass_.reset();
    lowpass_.process_inplace(buf);
    std::reverse(buf.begin(), buf.end());
    lowpass_.reset();
    lowpass_.process_inplace(buf);
    std::reverse(buf.begin(), buf.end());
    const std::span<double> w = buf.subspan(pad_, n);
    for (std::size_t i = 0; i < pad_; ++i) {
      w[0] += 2.0 * buf[i];
      w[pad_ - i] -= buf[i];
    }
    for (std::size_t i = 1; i <= pad_; ++i) {
      const double v = buf[pad_ + n - 1 + i];
      w[n - 1] += 2.0 * v;
      w[n - 1 - i] -= v;
    }
    n_ = n;
  }
  return std::span<const double>(padded_).subspan(pad_, n);
}

WindowAxes AxisEstimator::estimate(std::span<const double> x,
                                   std::span<const double> y,
                                   std::span<const double> z) {
  expects(x.size() >= 4, "AxisEstimator: >= 4 samples");
  expects(x.size() == y.size() && x.size() == z.size(),
          "AxisEstimator: equal channel lengths");
  const std::span<const double> w = gravity_weights(x.size());
  const Vec3 g{simd::dot(w, x), simd::dot(w, y), simd::dot(w, z)};
  check(g.norm() > 1e-6, "AxisEstimator: gravity magnitude not degenerate");
  const Vec3 up = g.normalized();
  return {up, forward(x, y, z, up)};
}

Vec3 AxisEstimator::forward(std::span<const double> x,
                            std::span<const double> y,
                            std::span<const double> z, const Vec3& up) {
  expects(!x.empty(), "AxisEstimator: non-empty window");
  // Moments about the first sample: the centred sums then cancel only the
  // window's spread around it, not the full gravity magnitude.
  return forward_from_moments(
      simd::window_moments(x, y, z, Vec3{x[0], y[0], z[0]}), x.size(), up);
}

ProjectedSignal project(std::span<const Vec3> specific_force, double fs) {
  const Vec3 up = estimate_up(specific_force, fs);
  const Vec3 forward = principal_horizontal_direction(specific_force, up);
  return project_with_axes(specific_force, fs, up, forward);
}

ProjectedSignal project_with_axes(std::span<const Vec3> specific_force,
                                  double fs, const Vec3& up,
                                  const Vec3& forward) {
  expects(fs > 0.0, "project_with_axes: fs > 0");
  expects(std::abs(up.norm() - 1.0) < 1e-6, "project_with_axes: unit up");
  expects(std::abs(forward.norm() - 1.0) < 1e-6,
          "project_with_axes: unit forward");
  ProjectedSignal out;
  out.fs = fs;
  out.up = up;
  out.forward = forward;
  const Vec3 side = up.cross(forward).normalized();
  // ptrack-lint: push-allow(alloc) batch-only AoS projection; the streaming
  // path projects through the SoA channel frontend
  out.vertical.reserve(specific_force.size());
  out.anterior.reserve(specific_force.size());
  out.lateral.reserve(specific_force.size());
  for (const Vec3& f : specific_force) {
    // Specific force f = a_lin - g_vec with g_vec = -g*up, so the linear
    // vertical acceleration is f.up - g.
    out.vertical.push_back(f.dot(up) - kGravity);
    out.anterior.push_back(f.dot(forward));
    out.lateral.push_back(f.dot(side));
  }
  // ptrack-lint: pop-allow(alloc)
  return out;
}

}  // namespace ptrack::dsp
