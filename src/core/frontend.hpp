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
/// pipeline that re-projects overlapping tails each hop must keep the
/// anterior channel's sign stable across hops, so it threads one seam
/// through every call. A zero-initialized seam (or none) reproduces batch
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
/// direction. Axes fit to the short tail an incremental pipeline
/// re-projects each hop wander with local gestures, so the streaming
/// projection stage fits them to a longer raw history
/// (dsp::AxisEstimator) and pins them here. Null means "estimate from the
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
/// its channels), so a caller that keeps one ProjectedTrace across hops
/// stops allocating once the channel capacity has warmed up. This is the
/// variant the streaming projection stage calls at steady state.
void project_channels_into(std::span<const double> ax,
                           std::span<const double> ay,
                           std::span<const double> az, double fs,
                           double lowpass_hz, double anterior_window_s,
                           std::span<const Vec3> ups, dsp::Workspace* ws,
                           ProjectionSeam* seam,
                           const dsp::WindowAxes* pinned, ProjectedTrace& out);

/// Float32 projection results (see project_channels_f32).
struct ProjectedTraceF {
  std::vector<float> vertical;
  std::vector<float> anterior;
  double fs = 0.0;
};

/// Float32 fast-path projection over float channel spans (e.g. the
/// SampleRing's float mirrors). Same structure as project_channels — batch
/// gravity estimate, principal horizontal direction, vertical + anterior
/// projection, zero-phase low-pass — but every per-sample pass runs in
/// float32 through the SIMD kernels (twice the lane width and half the
/// memory traffic). Axis *directions* are still reduced in double: they are
/// three numbers whose error multiplies every sample. No attitude-filter
/// (per-sample ups) variant: callers needing it stay on the double path.
/// `pinned` (optional) fixes both axes, as in project_channels.
/// Divergence from the double pipeline is bounded by float rounding in the
/// projections and filters; tests/test_streaming_f32.cpp gates it against
/// the batch-double oracle.
ProjectedTraceF project_channels_f32(std::span<const float> ax,
                                     std::span<const float> ay,
                                     std::span<const float> az, double fs,
                                     double lowpass_hz,
                                     double anterior_window_s,
                                     dsp::Workspace& ws,
                                     ProjectionSeam* seam = nullptr,
                                     const dsp::WindowAxes* pinned = nullptr);

/// Reuse-friendly float32 form: fills `out` in place (see
/// project_channels_into).
void project_channels_f32_into(std::span<const float> ax,
                               std::span<const float> ay,
                               std::span<const float> az, double fs,
                               double lowpass_hz, double anterior_window_s,
                               dsp::Workspace& ws, ProjectionSeam* seam,
                               const dsp::WindowAxes* pinned,
                               ProjectedTraceF& out);

}  // namespace ptrack::core
