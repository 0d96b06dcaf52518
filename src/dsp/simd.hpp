// Runtime-dispatched SIMD kernels for the per-hop DSP hot path.
//
// One scalar fallback plus explicit AVX2 (x86-64) and NEON (aarch64) lanes,
// selected once at startup from the CPU and switchable for tests/benches
// via force_isa(). The whole tree compiles for the baseline target; only
// the per-ISA translation units (simd_avx2.cpp, simd_neon.cpp) opt into
// wider instructions, so one binary runs everywhere and still uses the
// host's vector units. Configure with -DPTRACK_SIMD=OFF to compile the
// scalar kernels only.
//
// Bit-equality contract: for every kernel here, the scalar fallback and
// the vector lanes produce *identical* results, bit for bit
// (tests/test_dsp_simd.cpp asserts it). Elementwise maps replicate the
// exact expression-tree order of the code they replaced; reductions follow
// one canonical lane-block order — kDoubleBlock (kFloatBlock) independent
// partial accumulators, one per lane position, combined pairwise as
// ((p0+p1)+(p2+p3)) [+ ((p4+p5)+(p6+p7))], then the tail added serially —
// which is exactly what a vector accumulator plus that horizontal combine
// computes. No kernel uses FMA (every TU builds with -ffp-contract=off):
// contraction would round differently per ISA and break the contract.
//
// Alignment: kernels take unaligned spans (ring views land on arbitrary
// offsets) and use unaligned loads; dsp::Workspace hands out 64-byte
// aligned scratch so the blocks of workspace-fed kernels straddle no cache
// line, but alignment is a performance contract only, never correctness.

#pragma once

#include <cstddef>
#include <span>

#include "common/vec3.hpp"
#include "dsp/biquad.hpp"

namespace ptrack::dsp::simd {

/// Instruction sets the dispatcher can select.
enum class Isa { kScalar, kAvx2, kNeon };

/// Widest ISA this build supports on this CPU (kScalar when PTRACK_SIMD=OFF).
[[nodiscard]] Isa detected();

/// ISA the kernels currently dispatch to (detected() unless forced).
[[nodiscard]] Isa active();

/// Test/bench hook: pins dispatch to `isa`, clamped to detected() — forcing
/// an ISA the CPU lacks selects the scalar fallback instead. Not
/// thread-safe; call only from single-threaded setup code.
void force_isa(Isa isa);

/// Human-readable ISA name ("scalar", "avx2", "neon").
[[nodiscard]] const char* isa_name(Isa isa);

/// Canonical reduction block widths (partial accumulators per reduction).
inline constexpr std::size_t kDoubleBlock = 4;
inline constexpr std::size_t kFloatBlock = 8;

// --- Reductions (canonical block order) ------------------------------------

/// Sum of xs.
[[nodiscard]] double sum(std::span<const double> xs);
[[nodiscard]] float sumf(std::span<const float> xs);

/// Inner product of a and b (a.size() == b.size()).
[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);
[[nodiscard]] float dotf(std::span<const float> a, std::span<const float> b);

/// Sum of squared deviations from `mean`.
[[nodiscard]] double sumsq_dev(std::span<const double> xs, double mean);
[[nodiscard]] float sumsq_devf(std::span<const float> xs, float mean);

/// First and second moments of d_i = f_i - shift over a projection-axis
/// history window, f_i = (x[i], y[i], z[i]).
struct WindowMoments {
  Vec3 sum;         ///< sum d
  double xx = 0.0;  ///< sum d.x * d.x
  double xy = 0.0;  ///< sum d.x * d.y
  double xz = 0.0;  ///< sum d.x * d.z
  double yy = 0.0;  ///< sum d.y * d.y
  double yz = 0.0;  ///< sum d.y * d.z
  double zz = 0.0;  ///< sum d.z * d.z
};

/// The nine reductions of WindowMoments in one pass over equal-length
/// spans (canonical block order per reduction).
[[nodiscard]] WindowMoments window_moments(std::span<const double> x,
                                           std::span<const double> y,
                                           std::span<const double> z,
                                           const Vec3& shift);

// --- Elementwise maps (exact expression-order replicas) ---------------------

/// out[i] = ((x[i]*u.x + y[i]*u.y) + z[i]*u.z) - bias — the vertical
/// projection (Vec3::dot order, then the gravity subtraction).
void axis_project(std::span<const double> x, std::span<const double> y,
                  std::span<const double> z, const Vec3& u, double bias,
                  std::span<double> out);
void axis_projectf(std::span<const float> x, std::span<const float> y,
                   std::span<const float> z, const Vec3& u, float bias,
                   std::span<float> out);

/// out[i] = (f - up * f.dot(up)).dot(dir) for f = (x[i], y[i], z[i]) — the
/// anterior projection of the gravity-removed residual, in the exact
/// component order of the Vec3 arithmetic it replaces.
void residual_project(std::span<const double> x, std::span<const double> y,
                      std::span<const double> z, const Vec3& up,
                      const Vec3& dir, std::span<double> out);
void residual_projectf(std::span<const float> x, std::span<const float> y,
                       std::span<const float> z, const Vec3& up,
                       const Vec3& dir, std::span<float> out);

/// out[i] = -xs[i].
void negate(std::span<const double> xs, std::span<double> out);

/// out[i] = xs[i] - m (demeaning into scratch).
void sub_scalar(std::span<const double> xs, double m, std::span<double> out);

/// out[i] = (hi[i] - lo[i]) / div — the constant-count middle region of a
/// prefix-sum moving average.
void diff_div(std::span<const double> hi, std::span<const double> lo,
              double div, std::span<double> out);

/// Precision casts between the double rings and the float32 pipeline view.
void widen(std::span<const float> xs, std::span<double> out);
void narrow(std::span<const double> xs, std::span<float> out);

// --- Scans ------------------------------------------------------------------

/// Minimum over xs[0..k] where k is the first index with xs[k] > h (k = n-1
/// when none exceeds h) — one side of a peak-prominence walk. Returns h for
/// empty input. min is exact, so any evaluation order is bit-identical.
[[nodiscard]] double min_until_greater_fwd(std::span<const double> xs,
                                           double h);
/// Same walk right-to-left (from xs.back() towards xs.front()).
[[nodiscard]] double min_until_greater_bwd(std::span<const double> xs,
                                           double h);

/// Number of bytes in `bytes` equal to `byte` (exact, so every ISA agrees).
/// Counts a trace file's newlines at close to read speed.
[[nodiscard]] std::size_t count_byte(std::span<const char> bytes, char byte);

/// Unbiased autocorrelation normalization: out[lag] =
/// clamp(raw[lag] * (n / (n - lag)) / den, -1, 1) for lag in
/// [0, out.size()), replicating dsp/correlate.cpp's normalize_lag.
void normalize_lags(std::span<const double> raw, std::size_t n, double den,
                    std::span<double> out);

// --- Lane-parallel IIR ------------------------------------------------------

/// Channel lanes per sample in the interleaved multi-channel filter layout.
inline constexpr std::size_t kIirLanes = 4;

/// Runs a biquad cascade over `n` samples of kIirLanes interleaved channels
/// (data[i * kIirLanes + c]; state starts at zero), forward or backward in
/// sample order. Per lane this is bit-identical to BiquadCascade::step over
/// that channel alone: IIR recurrences are serial in time, so the
/// parallelism comes from the lanes, not the samples — which is why the
/// filtfilt hot path batches channels (filtfilt_multi_*) instead of
/// vectorizing one. Unused lanes may hold arbitrary values; they never
/// influence the others. `sections.size() <= 8`.
void cascade_multi(std::span<const BiquadCoeffs> sections, double* data,
                   std::size_t n, bool backward);
void cascade_multif(std::span<const BiquadCoeffs> sections, float* data,
                    std::size_t n, bool backward);

}  // namespace ptrack::dsp::simd
