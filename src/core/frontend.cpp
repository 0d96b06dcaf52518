#include "core/frontend.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <type_traits>

#include "common/error.hpp"
#include "dsp/attitude.hpp"
#include "dsp/butterworth.hpp"
#include "dsp/filtfilt.hpp"
#include "dsp/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ptrack::core {

namespace {

/// Per-sample up-direction field: either one constant direction (batch
/// gravity estimate) or a per-sample track (attitude filter). Avoids
/// materializing a vector of identical copies for the constant case.
class UpField {
 public:
  explicit UpField(const Vec3& constant) : constant_(constant) {}
  explicit UpField(std::span<const Vec3> per_sample)
      : per_sample_(per_sample) {}

  const Vec3& operator[](std::size_t i) const {
    return per_sample_.empty() ? constant_ : per_sample_[i];
  }

  /// Normalized mean direction over [begin, end) — the representative up
  /// for a projection window (per-sample ups vary slowly).
  [[nodiscard]] Vec3 window_mean(std::size_t begin, std::size_t end) const {
    Vec3 up{};
    for (std::size_t i = begin; i < end; ++i) up += (*this)[i];
    return up.normalized();
  }

  /// True when every sample sees the same up (the batch gravity estimate) —
  /// the precondition for the SIMD whole-span projection fast paths.
  [[nodiscard]] bool is_constant() const { return per_sample_.empty(); }
  [[nodiscard]] const Vec3& constant() const { return constant_; }

 private:
  Vec3 constant_{};
  std::span<const Vec3> per_sample_{};
};

/// Force accessors: the projection math is written once against this shape
/// and instantiated for array-of-structs (Trace) and structure-of-arrays
/// (channel spans / SampleRing) storage. Both produce identical Vec3 values
/// sample by sample, so the two instantiations are bit-equivalent.
struct AosForces {
  std::span<const Vec3> forces;
  [[nodiscard]] std::size_t size() const { return forces.size(); }
  Vec3 operator[](std::size_t i) const { return forces[i]; }
  [[nodiscard]] Vec3 principal_dir(std::size_t begin, std::size_t end,
                                   const Vec3& up) const {
    return dsp::principal_horizontal_direction(
        forces.subspan(begin, end - begin), up);
  }
};

struct SoaForces {
  std::span<const double> x;
  std::span<const double> y;
  std::span<const double> z;
  [[nodiscard]] std::size_t size() const { return x.size(); }
  Vec3 operator[](std::size_t i) const { return Vec3{x[i], y[i], z[i]}; }
  [[nodiscard]] Vec3 principal_dir(std::size_t begin, std::size_t end,
                                   const Vec3& up) const {
    const std::size_t n = end - begin;
    return dsp::principal_horizontal_direction(
        x.subspan(begin, n), y.subspan(begin, n), z.subspan(begin, n), up);
  }
};

/// Decomposes pre-computed vertical/anterior raw channels into the final
/// band-limited ProjectedTrace. `out` is resized in place: a caller that
/// reuses one ProjectedTrace across hops stops allocating once its channel
/// capacity has warmed up.
void finish_into(std::span<const double> vertical,
                 std::span<const double> anterior, double fs,
                 double lowpass_hz, dsp::Workspace* ws, ProjectedTrace& out) {
  out.fs = fs;
  const double fc = std::min(lowpass_hz, 0.45 * fs);
  const std::size_t n = vertical.size();
  out.vertical.resize(n);
  out.anterior.resize(n);
  if (ws) {
    // Both channels through the lane-parallel zero-phase filter in one
    // pass; per channel bit-identical to zero_phase_lowpass.
    const std::array<std::span<const double>, 2> ins{vertical, anterior};
    const std::array<std::span<double>, 2> outs{out.vertical, out.anterior};
    dsp::filtfilt_multi_into(dsp::butterworth_lowpass(4, fc, fs), ins, 64,
                             *ws, outs);
  } else {
    const std::vector<double> v = dsp::zero_phase_lowpass(vertical, fc, fs, 4);
    const std::vector<double> a = dsp::zero_phase_lowpass(anterior, fc, fs, 4);
    std::copy(v.begin(), v.end(), out.vertical.begin());
    std::copy(a.begin(), a.end(), out.anterior.begin());
  }
}

/// Anterior projection of gravity-removed residuals, either with one global
/// principal direction or re-fit per window with sign continuity. `seam_dir`
/// carries the previous window's direction in and the last window's out;
/// batch callers pass a zero-initialized local (no previous direction).
template <typename Forces>
void anterior_channel_into(const Forces& forces, const UpField& ups,
                           double fs, double anterior_window_s, Vec3& seam_dir,
                           const Vec3* fixed_dir,
                           std::vector<double>& anterior) {
  const std::size_t n = forces.size();
  anterior.assign(n, 0.0);

  const auto project_range = [&](std::size_t begin, std::size_t end) {
    const Vec3 up = ups.window_mean(begin, end);
    Vec3 dir = fixed_dir ? *fixed_dir
                         : forces.principal_dir(begin, end, up);
    // Sign continuity: PCA is sign-ambiguous; align with the previous
    // window so the channel doesn't flip mid-trace (or mid-stream).
    if (seam_dir.norm2() > 0.0 && dir.dot(seam_dir) < 0.0) dir = -dir;
    seam_dir = dir;
    if constexpr (std::is_same_v<Forces, SoaForces>) {
      if (ups.is_constant()) {
        // Exact expression-order replica of the Vec3 loop below.
        const std::size_t count = end - begin;
        dsp::simd::residual_project(
            forces.x.subspan(begin, count), forces.y.subspan(begin, count),
            forces.z.subspan(begin, count), ups.constant(), dir,
            std::span<double>(anterior).subspan(begin, count));
        return;
      }
    }
    for (std::size_t i = begin; i < end; ++i) {
      const Vec3 f = forces[i];
      const Vec3 residual = f - ups[i] * f.dot(ups[i]);
      anterior[i] = residual.dot(dir);
    }
  };

  if (anterior_window_s <= 0.0) {
    project_range(0, n);
    return;
  }
  const auto window =
      std::max<std::size_t>(32, static_cast<std::size_t>(anterior_window_s * fs));
  std::size_t begin = 0;
  while (begin < n) {
    std::size_t end = std::min(begin + window, n);
    // Avoid a tiny tail window: merge it into the previous one.
    if (n - end < window / 2) end = n;
    project_range(begin, end);
    begin = end;
  }
}

template <typename Forces>
void project_common_into(const Forces& forces, double fs, double lowpass_hz,
                         double anterior_window_s, const UpField& ups,
                         dsp::Workspace* ws, Vec3& seam_dir,
                         const Vec3* fixed_dir, ProjectedTrace& out) {
  // Raw (pre-filter) channels in per-thread scratch: both are transient
  // inputs to the zero-phase filter, so reusing them across calls removes
  // the two per-hop vector constructions the streaming path used to pay.
  thread_local std::vector<double> vertical;
  thread_local std::vector<double> anterior;
  vertical.resize(forces.size());
  bool vertical_done = false;
  if constexpr (std::is_same_v<Forces, SoaForces>) {
    if (ups.is_constant()) {
      dsp::simd::axis_project(forces.x, forces.y, forces.z, ups.constant(),
                              kGravity, vertical);
      vertical_done = true;
    }
  }
  if (!vertical_done) {
    for (std::size_t i = 0; i < forces.size(); ++i) {
      vertical[i] = forces[i].dot(ups[i]) - kGravity;
    }
  }
  anterior_channel_into(forces, ups, fs, anterior_window_s, seam_dir,
                        fixed_dir, anterior);
  finish_into(vertical, anterior, fs, lowpass_hz, ws, out);
}

template <typename Forces>
ProjectedTrace project_common(const Forces& forces, double fs,
                              double lowpass_hz, double anterior_window_s,
                              const UpField& ups, dsp::Workspace* ws,
                              Vec3& seam_dir,
                              const Vec3* fixed_dir = nullptr) {
  ProjectedTrace out;
  project_common_into(forces, fs, lowpass_hz, anterior_window_s, ups, ws,
                      seam_dir, fixed_dir, out);
  return out;
}

/// Float32 gravity estimate: lane-parallel float filtfilt + per-channel
/// means, widened to a double direction (the three axis components carry
/// their error into every projected sample, so they are kept in double).
Vec3 estimate_up_f32(std::span<const float> x, std::span<const float> y,
                     std::span<const float> z, double fs, double cutoff_hz,
                     dsp::Workspace& ws) {
  expects(x.size() >= 4, "estimate_up_f32: >= 4 samples");
  const double fc = std::min(cutoff_hz, 0.45 * fs);
  const std::array<std::span<const float>, 3> chans{x, y, z};
  const auto means =
      dsp::filtfilt_multif_mean(dsp::butterworth_lowpass(2, fc, fs), chans,
                                64, ws);
  const Vec3 g{static_cast<double>(means[0]), static_cast<double>(means[1]),
               static_cast<double>(means[2])};
  check(g.norm() > 1e-6, "estimate_up_f32: gravity magnitude not degenerate");
  return g.normalized();
}

/// Float32 principal horizontal direction: the per-sample residual
/// projections run in float through the SIMD kernel; the 2x2 covariance is
/// accumulated in double over those float coordinates.
Vec3 principal_horizontal_f32(std::span<const float> x,
                              std::span<const float> y,
                              std::span<const float> z, const Vec3& up,
                              dsp::Workspace& ws) {
  const std::size_t n = x.size();
  expects(n > 0, "principal_horizontal_f32: non-empty");
  const Vec3 ref = std::abs(up.z) < 0.9 ? kVertical : kAnterior;
  const Vec3 e1 = up.cross(ref).normalized();
  const Vec3 e2 = up.cross(e1).normalized();

  auto& scratch = ws.float_scratch(1, 2 * n);
  const std::span<float> ta(scratch.data(), n);
  const std::span<float> tb(scratch.data() + n, n);
  dsp::simd::residual_projectf(x, y, z, up, e1, ta);
  dsp::simd::residual_projectf(x, y, z, up, e2, tb);

  double m1 = 0.0;
  double m2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    m1 += static_cast<double>(ta[i]);
    m2 += static_cast<double>(tb[i]);
  }
  m1 /= static_cast<double>(n);
  m2 /= static_cast<double>(n);
  double s11 = 0.0;
  double s12 = 0.0;
  double s22 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = static_cast<double>(ta[i]) - m1;
    const double b = static_cast<double>(tb[i]) - m2;
    s11 += a * a;
    s12 += a * b;
    s22 += b * b;
  }

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
  return (e1 * v1 + e2 * v2).normalized();
}

}  // namespace

ProjectedTrace project_trace(const imu::Trace& trace, double lowpass_hz,
                             double anterior_window_s, dsp::Workspace* ws) {
  expects(trace.size() >= 16, "project_trace: >= 16 samples");
  expects(lowpass_hz > 0.0, "project_trace: lowpass_hz > 0");
  PTRACK_OBS_SPAN("ptrack.core.project");
  PTRACK_COUNT("ptrack.core.projections");
  const auto forces = trace.accel_vectors();
  const Vec3 up = dsp::estimate_up(forces, trace.fs());
  Vec3 seam_dir{};
  return project_common(AosForces{forces}, trace.fs(), lowpass_hz,
                        anterior_window_s, UpField(up), ws, seam_dir);
}

ProjectedTrace project_trace_with_attitude(const imu::Trace& trace,
                                           double lowpass_hz,
                                           double anterior_window_s,
                                           dsp::Workspace* ws) {
  expects(trace.size() >= 16, "project_trace_with_attitude: >= 16 samples");
  expects(lowpass_hz > 0.0, "project_trace_with_attitude: lowpass_hz > 0");
  PTRACK_OBS_SPAN("ptrack.core.project");
  PTRACK_COUNT("ptrack.core.projections");
  dsp::AttitudeEstimator estimator;
  const double dt = trace.dt();
  std::vector<Vec3> ups;
  ups.reserve(trace.size());
  for (const imu::Sample& s : trace.samples()) {
    ups.push_back(estimator.update(s.gyro, s.accel, dt));
  }
  const auto forces = trace.accel_vectors();
  Vec3 seam_dir{};
  return project_common(AosForces{forces}, trace.fs(), lowpass_hz,
                        anterior_window_s, UpField(std::span<const Vec3>(ups)),
                        ws, seam_dir);
}

void project_channels_into(std::span<const double> ax,
                           std::span<const double> ay,
                           std::span<const double> az, double fs,
                           double lowpass_hz, double anterior_window_s,
                           std::span<const Vec3> ups, dsp::Workspace* ws,
                           ProjectionSeam* seam,
                           const dsp::WindowAxes* pinned, ProjectedTrace& out) {
  expects(ax.size() >= 16, "project_channels: >= 16 samples");
  expects(ax.size() == ay.size() && ay.size() == az.size(),
          "project_channels: equal channel lengths");
  expects(ups.empty() || ups.size() == ax.size(),
          "project_channels: ups empty or one per sample");
  expects(fs > 0.0, "project_channels: fs > 0");
  expects(lowpass_hz > 0.0, "project_channels: lowpass_hz > 0");
  PTRACK_OBS_SPAN("ptrack.core.project");
  PTRACK_COUNT("ptrack.core.projections");
  const SoaForces forces{ax, ay, az};
  Vec3 local_seam{};
  Vec3& seam_dir = seam ? seam->prev_anterior_dir : local_seam;
  const Vec3* fixed_dir = pinned ? &pinned->forward : nullptr;
  if (!ups.empty()) {
    project_common_into(forces, fs, lowpass_hz, anterior_window_s,
                        UpField(ups), ws, seam_dir, fixed_dir, out);
    return;
  }
  const Vec3 up = pinned ? pinned->up
                         : dsp::estimate_up(ax, ay, az, fs,
                                            dsp::kGravityCutoffHz, ws);
  project_common_into(forces, fs, lowpass_hz, anterior_window_s, UpField(up),
                      ws, seam_dir, fixed_dir, out);
}

ProjectedTrace project_channels(std::span<const double> ax,
                                std::span<const double> ay,
                                std::span<const double> az, double fs,
                                double lowpass_hz, double anterior_window_s,
                                std::span<const Vec3> ups, dsp::Workspace* ws,
                                ProjectionSeam* seam,
                                const dsp::WindowAxes* pinned) {
  ProjectedTrace out;
  project_channels_into(ax, ay, az, fs, lowpass_hz, anterior_window_s, ups, ws,
                        seam, pinned, out);
  return out;
}

void project_channels_f32_into(std::span<const float> ax,
                               std::span<const float> ay,
                               std::span<const float> az, double fs,
                               double lowpass_hz, double anterior_window_s,
                               dsp::Workspace& ws, ProjectionSeam* seam,
                               const dsp::WindowAxes* pinned,
                               ProjectedTraceF& out) {
  expects(ax.size() >= 16, "project_channels_f32: >= 16 samples");
  expects(ax.size() == ay.size() && ay.size() == az.size(),
          "project_channels_f32: equal channel lengths");
  expects(fs > 0.0, "project_channels_f32: fs > 0");
  expects(lowpass_hz > 0.0, "project_channels_f32: lowpass_hz > 0");
  PTRACK_OBS_SPAN("ptrack.core.project");
  PTRACK_COUNT("ptrack.core.projections");

  const Vec3 up =
      pinned ? pinned->up
             : estimate_up_f32(ax, ay, az, fs, dsp::kGravityCutoffHz, ws);

  Vec3 local_seam{};
  Vec3& seam_dir = seam ? seam->prev_anterior_dir : local_seam;
  const std::size_t n = ax.size();
  // Raw channels in per-thread scratch (see project_common_into).
  thread_local std::vector<float> vertical;
  thread_local std::vector<float> anterior;
  vertical.resize(n);
  anterior.resize(n);
  dsp::simd::axis_projectf(ax, ay, az, up, static_cast<float>(kGravity),
                           vertical);

  const auto project_range = [&](std::size_t begin, std::size_t end,
                                 const Vec3* pinned_dir) {
    const std::size_t count = end - begin;
    Vec3 dir = pinned_dir
                   ? *pinned_dir
                   : principal_horizontal_f32(ax.subspan(begin, count),
                                              ay.subspan(begin, count),
                                              az.subspan(begin, count), up,
                                              ws);
    if (seam_dir.norm2() > 0.0 && dir.dot(seam_dir) < 0.0) dir = -dir;
    seam_dir = dir;
    dsp::simd::residual_projectf(
        ax.subspan(begin, count), ay.subspan(begin, count),
        az.subspan(begin, count), up, dir,
        std::span<float>(anterior).subspan(begin, count));
  };

  if (pinned) {
    project_range(0, n, &pinned->forward);
  } else if (anterior_window_s <= 0.0) {
    project_range(0, n, nullptr);
  } else {
    const auto window = std::max<std::size_t>(
        32, static_cast<std::size_t>(anterior_window_s * fs));
    std::size_t begin = 0;
    while (begin < n) {
      std::size_t end = std::min(begin + window, n);
      if (n - end < window / 2) end = n;
      project_range(begin, end, nullptr);
      begin = end;
    }
  }

  out.fs = fs;
  out.vertical.resize(n);
  out.anterior.resize(n);
  const double fc = std::min(lowpass_hz, 0.45 * fs);
  const std::array<std::span<const float>, 2> ins{std::span<const float>(
                                                      vertical.data(), n),
                                                  std::span<const float>(
                                                      anterior.data(), n)};
  const std::array<std::span<float>, 2> outs{out.vertical, out.anterior};
  dsp::filtfilt_multif_into(dsp::butterworth_lowpass(4, fc, fs), ins, 64, ws,
                            outs);
}

ProjectedTraceF project_channels_f32(std::span<const float> ax,
                                     std::span<const float> ay,
                                     std::span<const float> az, double fs,
                                     double lowpass_hz,
                                     double anterior_window_s,
                                     dsp::Workspace& ws,
                                     ProjectionSeam* seam,
                                     const dsp::WindowAxes* pinned) {
  ProjectedTraceF out;
  project_channels_f32_into(ax, ay, az, fs, lowpass_hz, anterior_window_s, ws,
                            seam, pinned, out);
  return out;
}

}  // namespace ptrack::core
