// Acceleration projection onto the vertical and anterior directions.
//
// This is PTrack's projection frontend (paper SIII-B2): the vertical
// direction comes from the gravity estimate (commodity platforms expose the
// same via their gravity virtual sensor); the anterior direction is the
// principal axis of the horizontal residual acceleration, recovered by a
// least-squares fit — when a user walks, the arm's back-and-forth swing
// makes the anterior axis the direction of largest horizontal variance.

#pragma once

#include <span>
#include <vector>

#include "common/vec3.hpp"
#include "dsp/biquad.hpp"
#include "dsp/simd.hpp"

namespace ptrack::dsp {

/// Result of projecting a specific-force (accelerometer) sequence.
struct ProjectedSignal {
  std::vector<double> vertical;  ///< linear vertical acceleration, up positive (m/s^2)
  std::vector<double> anterior;  ///< linear anterior acceleration (m/s^2), sign arbitrary
  std::vector<double> lateral;   ///< horizontal residual orthogonal to anterior
  Vec3 up;                       ///< estimated unit up vector
  Vec3 forward;                  ///< estimated unit anterior vector (horizontal)
  double fs = 0.0;               ///< sample rate (Hz)
};

/// Low-pass cutoff of the gravity estimate (Hz): estimate_up's default and
/// the cutoff AxisEstimator's closed form reproduces.
inline constexpr double kGravityCutoffHz = 0.3;

/// Estimates the unit "up" direction from specific-force readings by heavy
/// low-pass filtering (cutoff_hz, default kGravityCutoffHz) and averaging.
/// For a device at rest or in cyclic motion the low-passed specific force
/// points up with magnitude ~g.
Vec3 estimate_up(std::span<const Vec3> specific_force, double fs,
                 double cutoff_hz = kGravityCutoffHz);

class Workspace;

/// Structure-of-arrays variant of estimate_up for span views over channel
/// storage (e.g. imu::SampleRing): no AoS materialization. Arithmetic is
/// identical to the Vec3 overload (which delegates here). `ws` (optional)
/// provides filter scratch; real slots 0 and 1 are clobbered.
Vec3 estimate_up(std::span<const double> x, std::span<const double> y,
                 std::span<const double> z, double fs,
                 double cutoff_hz = kGravityCutoffHz, Workspace* ws = nullptr);

/// Principal horizontal direction of the residual (gravity-removed)
/// acceleration: the eigenvector of the 2x2 horizontal covariance with the
/// larger eigenvalue. `up` must be a unit vector.
Vec3 principal_horizontal_direction(std::span<const Vec3> specific_force,
                                    const Vec3& up);

/// Structure-of-arrays variant (same arithmetic; shared implementation).
Vec3 principal_horizontal_direction(std::span<const double> x,
                                    std::span<const double> y,
                                    std::span<const double> z,
                                    const Vec3& up);

/// Unit up and unit anterior directions fit to one window.
struct WindowAxes {
  Vec3 up;
  Vec3 forward;
};

/// Closed-form axes for a streaming hop's trailing history window: the
/// same estimate_up + principal_horizontal_direction result, to rounding
/// (|delta up| <= 1e-12 per component; 1 - |cos delta forward| <= 1e-9
/// where the horizontal covariance is not degenerate), from O(N) sums
/// instead of a zero-phase filter over the window.
///
/// estimate_up's gravity is the mean of an odd-reflection-padded,
/// zero-state forward/backward IIR, a fixed linear functional g = w^T x of
/// the window. Its weights are w = P^T J H J H u: u is 1/N on the interior
/// and 0 on the pads, H the cascade run forward from zero state, J
/// reversal (so J H J H is the ordinary forward/reverse/forward/reverse
/// pass run over u), and P^T folds each pad entry onto the samples its
/// reflection 2*x0 - x_k reads. The weights depend only on N, so they are
/// computed once per distinct window length into storage reserved at
/// construction; a window of at most `max_window` samples never allocates.
/// The anterior direction comes from the window's centred 3x3 second
/// moments (simd::window_moments) projected onto the horizontal basis.
class AxisEstimator {
 public:
  AxisEstimator(double fs, std::size_t max_window);

  /// Gravity up and anterior direction over the window (>= 4 samples).
  WindowAxes estimate(std::span<const double> x, std::span<const double> y,
                      std::span<const double> z);

  /// Anterior direction over the window (>= 1 sample) for a
  /// caller-supplied unit `up` (the attitude-filter track). Needs no
  /// gravity weights, so it reads no estimator state.
  [[nodiscard]] static Vec3 forward(std::span<const double> x,
                                    std::span<const double> y,
                                    std::span<const double> z,
                                    const Vec3& up);

 private:
  /// The weights w for an n-sample window, rebuilt when n changes.
  std::span<const double> gravity_weights(std::size_t n);

  BiquadCascade lowpass_;
  std::vector<double> padded_;  ///< P^T J H J H u; interior holds w
  std::size_t n_ = 0;           ///< window length the weights are for
  std::size_t pad_ = 0;
};

/// Full projection: vertical = f.u - g, horizontal residual decomposed into
/// anterior/lateral. Requires at least 4 samples and fs > 0.
ProjectedSignal project(std::span<const Vec3> specific_force, double fs);

/// Projection with caller-supplied axes (used in streaming mode where the
/// axes are estimated over a longer history than a single gait cycle).
ProjectedSignal project_with_axes(std::span<const Vec3> specific_force,
                                  double fs, const Vec3& up,
                                  const Vec3& forward);

}  // namespace ptrack::dsp
