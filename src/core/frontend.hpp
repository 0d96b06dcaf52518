// Projection frontend: raw wrist trace -> band-limited vertical + anterior
// acceleration channels (paper SIII-B2).

#pragma once

#include "dsp/projection.hpp"
#include "dsp/workspace.hpp"
#include "imu/trace.hpp"

namespace ptrack::core {

/// Projected and band-limited signals ready for cycle analysis.
struct ProjectedTrace {
  std::vector<double> vertical;  ///< low-passed linear vertical accel
  std::vector<double> anterior;  ///< low-passed anterior accel
  double fs = 0.0;
};

/// Projects a trace onto vertical/anterior axes and low-passes both channels
/// with a zero-phase Butterworth at `lowpass_hz` (zero-phase so critical
/// point *positions* are preserved). Requires >= 16 samples.
///
/// `anterior_window_s` selects how the forward axis is estimated: 0 fits
/// one principal horizontal direction over the whole trace (fine for
/// straight walks); > 0 re-fits it per window of that many seconds with
/// sign continuity across windows, which keeps the anterior channel
/// faithful on routes with turns.
///
/// `ws` (optional) provides reusable scratch for the zero-phase filters so
/// repeated calls (streaming windows, batch traces) avoid the per-call
/// padding allocations.
ProjectedTrace project_trace(const imu::Trace& trace, double lowpass_hz,
                             double anterior_window_s = 0.0,
                             dsp::Workspace* ws = nullptr);

/// Projection for *raw device-frame* streams: tracks the up direction per
/// sample with a gyro/accel complementary filter (dsp::AttitudeEstimator)
/// instead of the batch gravity low-pass, then projects as project_trace
/// does. Use when the trace carries raw sensor data rather than a
/// platform's gravity-referenced output.
ProjectedTrace project_trace_with_attitude(const imu::Trace& trace,
                                           double lowpass_hz,
                                           double anterior_window_s = 0.0,
                                           dsp::Workspace* ws = nullptr);

/// Sign-continuity state for the anterior principal direction, carried
/// across successive projection calls. PCA is sign-ambiguous; a streaming
/// pipeline that projects each hop's new samples with that hop's axes
/// must keep the anterior channel's sign stable across hops, so it
/// threads one seam through every call. A zero-initialized seam (or none) reproduces batch
/// behaviour exactly.
struct ProjectionSeam {
  Vec3 prev_anterior_dir{};
};

/// Structure-of-arrays projection over raw channel spans (e.g. views into
/// an imu::SampleRing) — no Trace or AoS materialization. Semantics match
/// project_trace bit-for-bit when `ups` is empty and `seam` is null.
///
/// `ups` (optional) supplies a per-sample up track (attitude-filter path);
/// it must be empty or exactly ax.size() long. When empty, the up
/// direction is the batch gravity estimate over the spans.
///
/// `pinned` (optional) fixes the axes: a unit up and a unit anterior
/// direction. Axes fit to one hop's samples would wander with local
/// gestures, so the streaming projection stage fits them to a longer raw
/// history (dsp::AxisEstimator) and pins them here. Null means "estimate from the
/// projected span", the batch behaviour. With per-sample `ups` the up
/// track is used as given and only `pinned->forward` applies.
ProjectedTrace project_channels(std::span<const double> ax,
                                std::span<const double> ay,
                                std::span<const double> az, double fs,
                                double lowpass_hz,
                                double anterior_window_s = 0.0,
                                std::span<const Vec3> ups = {},
                                dsp::Workspace* ws = nullptr,
                                ProjectionSeam* seam = nullptr,
                                const dsp::WindowAxes* pinned = nullptr);

/// Reuse-friendly form of project_channels: fills `out` in place (resizing
/// its channels), so a caller that keeps one ProjectedTrace across calls
/// stops allocating once the channel capacity has warmed up. A fresh
/// core::ProjectionStage's single flush reproduces it bit for bit.
void project_channels_into(std::span<const double> ax,
                           std::span<const double> ay,
                           std::span<const double> az, double fs,
                           double lowpass_hz, double anterior_window_s,
                           std::span<const Vec3> ups, dsp::Workspace* ws,
                           ProjectionSeam* seam,
                           const dsp::WindowAxes* pinned, ProjectedTrace& out);

/// The unfiltered half of project_channels_into: the vertical and anterior
/// channels it passes to its zero-phase low-pass, written into `vertical`
/// and `anterior` (each sized ax.size()). Same arguments and axis semantics
/// as project_channels_into; with `pinned` set it needs no minimum length,
/// so a streaming caller can project each hop's new samples alone.
void project_channels_raw(std::span<const double> ax,
                          std::span<const double> ay,
                          std::span<const double> az, double fs,
                          double anterior_window_s, std::span<const Vec3> ups,
                          dsp::Workspace* ws, ProjectionSeam* seam,
                          const dsp::WindowAxes* pinned,
                          std::span<double> vertical,
                          std::span<double> anterior);

/// Odd-reflection pad (samples a side, clamped to n - 1) of the projection
/// low-pass.
inline constexpr std::size_t kProjectionFilterPad = 64;

/// The zero-phase low-pass project_channels_into applies to both channels:
/// an order-4 Butterworth at min(lowpass_hz, 0.45 fs).
dsp::BiquadCascade projection_lowpass(double lowpass_hz, double fs);

}  // namespace ptrack::core
