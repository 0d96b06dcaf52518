// Zero-phase (forward-backward) filtering.
//
// Offline analysis in PTrack (gait-cycle segmentation, critical-point
// extraction) must not shift critical-point *positions*, so it uses
// zero-phase filtering: run the cascade forward, reverse, run again,
// reverse. Reflected edge padding suppresses start-up transients.

#pragma once

#include <array>
#include <span>
#include <vector>

#include "dsp/biquad.hpp"
#include "dsp/simd.hpp"

namespace ptrack::dsp {

class Workspace;

/// Applies `cascade` forward and backward over `xs` with reflected padding of
/// `pad` samples on each side (clamped to xs.size()-1). The cascade is copied
/// internally, so the caller's filter state is untouched.
std::vector<double> filtfilt(const BiquadCascade& cascade,
                             std::span<const double> xs, std::size_t pad = 64);

/// As above, with caller-provided scratch for the padded working buffer
/// (workspace real slot 0) — repeated calls allocate only the returned
/// output vector.
std::vector<double> filtfilt(const BiquadCascade& cascade,
                             std::span<const double> xs, std::size_t pad,
                             Workspace& ws);

/// Fully allocation-free steady state: writes the filtered signal into
/// `out` (resized to xs.size(), capacity reused across calls). `out` must
/// not alias `xs` or workspace real slot 0. Identical arithmetic to the
/// allocating overloads (they delegate here).
void filtfilt_into(const BiquadCascade& cascade, std::span<const double> xs,
                   std::size_t pad, Workspace& ws, std::vector<double>& out);

/// Zero-phase-filters up to simd::kIirLanes equal-length channels in one
/// lane-parallel pass (one channel per SIMD lane; IIR recurrences are serial
/// in time, so batching channels is where the parallelism comes from). Each
/// output is bit-identical to filtfilt_into() on that channel alone with the
/// same pad. `outs[c]` must be sized to the channel length and must alias
/// neither the inputs nor workspace real slot 0. `xs.size() <= kIirLanes`,
/// `cascade.sections().size() <= simd::kMaxIirSections`.
void filtfilt_multi_into(const BiquadCascade& cascade,
                         std::span<const std::span<const double>> xs,
                         std::size_t pad, Workspace& ws,
                         std::span<const std::span<double>> outs);

/// Lane-parallel zero-phase filter returning only each channel's mean over
/// the unpadded region (entries past xs.size() are zero). The mean is the
/// plain serial left-to-right sum over the filtered channel divided by its
/// length — bit-identical to accumulating filtfilt_into()'s output — so the
/// up-axis estimate is unchanged by the batched path.
std::array<double, simd::kIirLanes> filtfilt_multi_mean(
    const BiquadCascade& cascade, std::span<const std::span<const double>> xs,
    std::size_t pad, Workspace& ws);

/// The pieces filtfilt_multi_into runs, in order, over an interleaved
/// buffer (sample-major, simd::kIirLanes values per sample):
///   1. reflect_left: the left odd-reflection pad;
///   2. forward: the cascade over the left pad and then the signal, from
///      zero state;
///   3. reflect_right + forward: the right pad, continuing that state;
///   4. reverse: the cascade backwards from zero state over right pad and
///      signal.
/// The forward state is exact, so the forward pass may be split into any
/// chunks that carry it. A streaming caller keeps the state across calls,
/// runs each right pad from a copy of it, and reverses only the span it
/// still has to finalize: outputs left of where the reverse pass stops are
/// never read, so they never need the left context.
class ZeroPhaseLanes {
 public:
  explicit ZeroPhaseLanes(const BiquadCascade& cascade);

  /// Forward cascade over `n` interleaved samples in place, starting from
  /// `state` and leaving the final state there.
  void forward(double* data, std::size_t n, simd::CascadeState& state) const;
  /// Backward cascade from zero state over `n` interleaved samples in place.
  void reverse(double* data, std::size_t n) const;

 private:
  std::array<BiquadCoeffs, simd::kMaxIirSections> coeffs_{};
  std::size_t nsec_ = 0;
};

/// Left odd-reflection pad of signal `xs` into lane `lane` of `out` (`pad`
/// interleaved samples): out[i] = 2*xs[0] - xs[pad - i]. Needs pad < xs.size().
void reflect_left(std::span<const double> xs, std::size_t pad, double* out,
                  std::size_t lane);

/// Right odd-reflection pad of a signal whose last `pad + 1` samples are
/// `tail`, into lane `lane` of `out` (`pad` interleaved samples):
/// out[i - 1] = 2*tail.back() - tail[pad - i] for i in [1, pad].
void reflect_right(std::span<const double> tail, std::size_t pad,
                   double* out, std::size_t lane);

/// Convenience: zero-phase Butterworth low-pass of the given order.
std::vector<double> zero_phase_lowpass(std::span<const double> xs,
                                       double cutoff_hz, double fs,
                                       int order = 4);

/// Workspace variant of zero_phase_lowpass.
std::vector<double> zero_phase_lowpass(std::span<const double> xs,
                                       double cutoff_hz, double fs, int order,
                                       Workspace& ws);

/// Workspace + output-reuse variant of zero_phase_lowpass.
void zero_phase_lowpass_into(std::span<const double> xs, double cutoff_hz,
                             double fs, int order, Workspace& ws,
                             std::vector<double>& out);

}  // namespace ptrack::dsp
