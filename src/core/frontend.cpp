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
  const std::size_t n = vertical.size();
  out.vertical.resize(n);
  out.anterior.resize(n);
  if (ws) {
    // Both channels through the lane-parallel zero-phase filter in one
    // pass; per channel bit-identical to zero_phase_lowpass.
    const std::array<std::span<const double>, 2> ins{vertical, anterior};
    const std::array<std::span<double>, 2> outs{out.vertical, out.anterior};
    dsp::filtfilt_multi_into(projection_lowpass(lowpass_hz, fs), ins,
                             kProjectionFilterPad, *ws, outs);
  } else {
    const dsp::BiquadCascade lowpass = projection_lowpass(lowpass_hz, fs);
    const std::vector<double> v =
        dsp::filtfilt(lowpass, vertical, kProjectionFilterPad);
    const std::vector<double> a =
        dsp::filtfilt(lowpass, anterior, kProjectionFilterPad);
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
                           const Vec3* fixed_dir, std::span<double> anterior) {
  const std::size_t n = forces.size();

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
            anterior.subspan(begin, count));
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

/// The unfiltered vertical and anterior channels (both sized
/// forces.size()): the input of finish_into's zero-phase low-pass.
template <typename Forces>
void project_raw_into(const Forces& forces, double fs,
                      double anterior_window_s, const UpField& ups,
                      Vec3& seam_dir, const Vec3* fixed_dir,
                      std::span<double> vertical, std::span<double> anterior) {
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
}

template <typename Forces>
void project_common_into(const Forces& forces, double fs, double lowpass_hz,
                         double anterior_window_s, const UpField& ups,
                         dsp::Workspace* ws, Vec3& seam_dir,
                         const Vec3* fixed_dir, ProjectedTrace& out) {
  // Raw (pre-filter) channels in per-thread scratch: both are transient
  // inputs to the zero-phase filter, so reusing them across calls removes
  // two vector constructions per call.
  thread_local std::vector<double> vertical;
  thread_local std::vector<double> anterior;
  vertical.resize(forces.size());
  anterior.resize(forces.size());
  project_raw_into(forces, fs, anterior_window_s, ups, seam_dir, fixed_dir,
                   vertical, anterior);
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

}  // namespace

dsp::BiquadCascade projection_lowpass(double lowpass_hz, double fs) {
  return dsp::butterworth_lowpass(4, std::min(lowpass_hz, 0.45 * fs), fs);
}

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

void project_channels_raw(std::span<const double> ax,
                          std::span<const double> ay,
                          std::span<const double> az, double fs,
                          double anterior_window_s, std::span<const Vec3> ups,
                          dsp::Workspace* ws, ProjectionSeam* seam,
                          const dsp::WindowAxes* pinned,
                          std::span<double> vertical,
                          std::span<double> anterior) {
  expects(ax.size() == ay.size() && ay.size() == az.size(),
          "project_channels: equal channel lengths");
  expects(ups.empty() || ups.size() == ax.size(),
          "project_channels: ups empty or one per sample");
  expects(vertical.size() == ax.size() && anterior.size() == ax.size(),
          "project_channels: outputs sized to the channels");
  expects(fs > 0.0, "project_channels: fs > 0");
  expects(pinned != nullptr || ax.size() >= 16,
          "project_channels: >= 16 samples to fit the axes");
  PTRACK_OBS_SPAN("ptrack.core.project");
  PTRACK_COUNT("ptrack.core.projections");
  const SoaForces forces{ax, ay, az};
  Vec3 local_seam{};
  Vec3& seam_dir = seam ? seam->prev_anterior_dir : local_seam;
  const Vec3* fixed_dir = pinned ? &pinned->forward : nullptr;
  if (!ups.empty()) {
    project_raw_into(forces, fs, anterior_window_s, UpField(ups), seam_dir,
                     fixed_dir, vertical, anterior);
    return;
  }
  const Vec3 up = pinned ? pinned->up
                         : dsp::estimate_up(ax, ay, az, fs,
                                            dsp::kGravityCutoffHz, ws);
  project_raw_into(forces, fs, anterior_window_s, UpField(up), seam_dir,
                   fixed_dir, vertical, anterior);
}

void project_channels_into(std::span<const double> ax,
                           std::span<const double> ay,
                           std::span<const double> az, double fs,
                           double lowpass_hz, double anterior_window_s,
                           std::span<const Vec3> ups, dsp::Workspace* ws,
                           ProjectionSeam* seam,
                           const dsp::WindowAxes* pinned, ProjectedTrace& out) {
  expects(ax.size() >= 16, "project_channels: >= 16 samples");
  expects(lowpass_hz > 0.0, "project_channels: lowpass_hz > 0");
  // Raw channels in per-thread scratch (see project_common_into).
  thread_local std::vector<double> vertical;
  thread_local std::vector<double> anterior;
  vertical.resize(ax.size());
  anterior.resize(ax.size());
  project_channels_raw(ax, ay, az, fs, anterior_window_s, ups, ws, seam,
                       pinned, vertical, anterior);
  finish_into(vertical, anterior, fs, lowpass_hz, ws, out);
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

}  // namespace ptrack::core
