// Scalar <-> vector bit-equality for the dsp::simd kernel layer.
//
// The dispatch contract (dsp/simd.hpp) promises that every kernel produces
// *identical* results on the scalar fallback and on the detected vector
// ISA — bit for bit, because reductions share one canonical lane-block
// order and elementwise maps replicate exact expression trees with FMA
// contraction disabled. These tests sweep odd lengths, unaligned offsets
// and empty/short inputs under force_isa(). On a machine (or a
// PTRACK_SIMD=OFF build) where detected() == kScalar they degenerate to
// scalar-vs-scalar and still pin the canonical results.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "dsp/butterworth.hpp"
#include "dsp/filtfilt.hpp"
#include "dsp/simd.hpp"
#include "dsp/workspace.hpp"

using namespace ptrack;
namespace simd = ptrack::dsp::simd;

namespace {

/// Pins dispatch for one scope and always restores the detected ISA.
class IsaGuard {
 public:
  explicit IsaGuard(simd::Isa isa) { simd::force_isa(isa); }
  ~IsaGuard() { simd::force_isa(simd::detected()); }
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;
};

/// Lengths hitting every tail case of the 4-wide and 8-wide blocks, plus
/// empty, sub-block and large inputs.
const std::array<std::size_t, 15> kLengths = {0,  1,  2,  3,   5,
                                              7,  8,  9,  15,  16,
                                              31, 64, 100, 1001, 2000};

/// Offsets exercising unaligned span starts (ring views land anywhere).
const std::array<std::size_t, 3> kOffsets = {0, 1, 3};

template <typename T>
std::vector<T> rand_vec(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-3.0, 3.0);
  std::vector<T> out(n);
  for (auto& v : out) v = static_cast<T>(dist(rng));
  return out;
}

/// Runs `fn` under the scalar fallback and under the detected ISA and
/// returns both results for bit comparison.
template <typename Fn>
auto both_isas(Fn&& fn) {
  simd::force_isa(simd::Isa::kScalar);
  auto scalar = fn();
  simd::force_isa(simd::detected());
  auto vector = fn();
  return std::pair{scalar, vector};
}

template <typename T>
void expect_bits_equal(const std::vector<T>& a, const std::vector<T>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "index " << i;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Dispatch plumbing.

TEST(SimdDispatch, ForceIsaClampsToDetected) {
  IsaGuard guard(simd::detected());
  simd::force_isa(simd::Isa::kScalar);
  EXPECT_EQ(simd::active(), simd::Isa::kScalar);
  simd::force_isa(simd::detected());
  EXPECT_EQ(simd::active(), simd::detected());
  // Forcing an ISA the CPU (or build) lacks falls back to scalar instead of
  // dispatching into unsupported instructions.
  const simd::Isa foreign = simd::detected() == simd::Isa::kNeon
                                ? simd::Isa::kAvx2
                                : simd::Isa::kNeon;
  simd::force_isa(foreign);
  EXPECT_EQ(simd::active(), simd::Isa::kScalar);
}

TEST(SimdDispatch, IsaNamesAreStable) {
  EXPECT_STREQ(simd::isa_name(simd::Isa::kScalar), "scalar");
  EXPECT_STREQ(simd::isa_name(simd::Isa::kAvx2), "avx2");
  EXPECT_STREQ(simd::isa_name(simd::Isa::kNeon), "neon");
}

TEST(SimdDispatch, WorkspaceScratchIsCacheLineAligned) {
  dsp::Workspace ws;
  auto& d = ws.real_scratch(0, 333);
  auto& f = ws.float_scratch(0, 333);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(f.data()) % 64, 0u);
}

// ---------------------------------------------------------------------------
// Reductions: bit-exact across ISAs, lengths and offsets.

TEST(SimdKernels, ReductionsBitExact) {
  IsaGuard guard(simd::detected());
  for (std::size_t n : kLengths) {
    for (std::size_t off : kOffsets) {
      const auto xs = rand_vec<double>(n + off, 11);
      const auto ys = rand_vec<double>(n + off, 12);
      const std::span<const double> x{xs.data() + off, n};
      const std::span<const double> y{ys.data() + off, n};
      const auto [s0, s1] = both_isas([&] { return simd::sum(x); });
      EXPECT_EQ(s0, s1) << "sum n=" << n << " off=" << off;
      const auto [d0, d1] = both_isas([&] { return simd::dot(x, y); });
      EXPECT_EQ(d0, d1) << "dot n=" << n << " off=" << off;
      const auto [q0, q1] =
          both_isas([&] { return simd::sumsq_dev(x, 0.25); });
      EXPECT_EQ(q0, q1) << "sumsq_dev n=" << n << " off=" << off;

      const auto xf = rand_vec<float>(n + off, 13);
      const auto yf = rand_vec<float>(n + off, 14);
      const std::span<const float> fx{xf.data() + off, n};
      const std::span<const float> fy{yf.data() + off, n};
      const auto [f0, f1] = both_isas([&] { return simd::sumf(fx); });
      EXPECT_EQ(f0, f1) << "sumf n=" << n << " off=" << off;
      const auto [g0, g1] = both_isas([&] { return simd::dotf(fx, fy); });
      EXPECT_EQ(g0, g1) << "dotf n=" << n << " off=" << off;
      const auto [h0, h1] =
          both_isas([&] { return simd::sumsq_devf(fx, 0.25F); });
      EXPECT_EQ(h0, h1) << "sumsq_devf n=" << n << " off=" << off;
    }
  }
}

TEST(SimdKernels, EmptyReductionsAreZero) {
  IsaGuard guard(simd::detected());
  EXPECT_EQ(simd::sum({}), 0.0);
  EXPECT_EQ(simd::dot({}, {}), 0.0);
  EXPECT_EQ(simd::sumsq_dev({}, 1.0), 0.0);
  EXPECT_EQ(simd::sumf({}), 0.0F);
}

/// The nine WindowMoments fields in kernel order.
std::array<double, 9> moment_fields(const simd::WindowMoments& m) {
  return {m.sum.x, m.sum.y, m.sum.z, m.xx, m.xy, m.xz, m.yy, m.yz, m.zz};
}

TEST(SimdKernels, WindowMomentsBitExactAndCorrect) {
  IsaGuard guard(simd::detected());
  const Vec3 shift{0.5, -1.25, 9.5};
  for (std::size_t n : kLengths) {
    for (std::size_t off : kOffsets) {
      const auto xs = rand_vec<double>(n + off, 21);
      const auto ys = rand_vec<double>(n + off, 22);
      const auto zs = rand_vec<double>(n + off, 23);
      const std::span<const double> x{xs.data() + off, n};
      const std::span<const double> y{ys.data() + off, n};
      const std::span<const double> z{zs.data() + off, n};
      const auto [m0, m1] = both_isas(
          [&] { return moment_fields(simd::window_moments(x, y, z, shift)); });
      for (std::size_t k = 0; k < m0.size(); ++k) {
        EXPECT_EQ(m0[k], m1[k]) << "field " << k << " n=" << n
                                << " off=" << off;
      }
      // Each field is the sum it documents (serial order, to rounding).
      std::array<double, 9> ref{};
      for (std::size_t i = 0; i < n; ++i) {
        const double dx = x[i] - shift.x;
        const double dy = y[i] - shift.y;
        const double dz = z[i] - shift.z;
        const std::array<double, 9> t = {dx,      dy,      dz,
                                         dx * dx, dx * dy, dx * dz,
                                         dy * dy, dy * dz, dz * dz};
        for (std::size_t k = 0; k < ref.size(); ++k) ref[k] += t[k];
      }
      for (std::size_t k = 0; k < ref.size(); ++k) {
        EXPECT_NEAR(m0[k], ref[k], 1e-9 * (1.0 + std::abs(ref[k])))
            << "field " << k << " n=" << n;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Elementwise maps.

TEST(SimdKernels, ProjectionsBitExact) {
  IsaGuard guard(simd::detected());
  const Vec3 up = Vec3{0.3, -0.7, 0.648}.normalized();
  const Vec3 dir = Vec3{0.9, 0.1, -0.42}.normalized();
  for (std::size_t n : kLengths) {
    for (std::size_t off : kOffsets) {
      const auto xs = rand_vec<double>(n + off, 21);
      const auto ys = rand_vec<double>(n + off, 22);
      const auto zs = rand_vec<double>(n + off, 23);
      const std::span<const double> x{xs.data() + off, n};
      const std::span<const double> y{ys.data() + off, n};
      const std::span<const double> z{zs.data() + off, n};

      const auto [a0, a1] = both_isas([&] {
        std::vector<double> out(n);
        simd::axis_project(x, y, z, up, 9.81, out);
        return out;
      });
      expect_bits_equal(a0, a1);

      const auto [r0, r1] = both_isas([&] {
        std::vector<double> out(n);
        simd::residual_project(x, y, z, up, dir, out);
        return out;
      });
      expect_bits_equal(r0, r1);

      const auto xf = rand_vec<float>(n + off, 24);
      const auto yf = rand_vec<float>(n + off, 25);
      const auto zf = rand_vec<float>(n + off, 26);
      const std::span<const float> fx{xf.data() + off, n};
      const std::span<const float> fy{yf.data() + off, n};
      const std::span<const float> fz{zf.data() + off, n};

      const auto [b0, b1] = both_isas([&] {
        std::vector<float> out(n);
        simd::axis_projectf(fx, fy, fz, up, 9.81F, out);
        return out;
      });
      expect_bits_equal(b0, b1);

      const auto [c0, c1] = both_isas([&] {
        std::vector<float> out(n);
        simd::residual_projectf(fx, fy, fz, up, dir, out);
        return out;
      });
      expect_bits_equal(c0, c1);
    }
  }
}

TEST(SimdKernels, ElementwiseMapsBitExact) {
  IsaGuard guard(simd::detected());
  for (std::size_t n : kLengths) {
    for (std::size_t off : kOffsets) {
      const auto xs = rand_vec<double>(n + off, 31);
      const auto ys = rand_vec<double>(n + off, 32);
      const std::span<const double> x{xs.data() + off, n};
      const std::span<const double> y{ys.data() + off, n};

      const auto [n0, n1] = both_isas([&] {
        std::vector<double> out(n);
        simd::negate(x, out);
        return out;
      });
      expect_bits_equal(n0, n1);

      const auto [s0, s1] = both_isas([&] {
        std::vector<double> out(n);
        simd::sub_scalar(x, 0.7031, out);
        return out;
      });
      expect_bits_equal(s0, s1);

      const auto [d0, d1] = both_isas([&] {
        std::vector<double> out(n);
        simd::diff_div(x, y, 17.0, out);
        return out;
      });
      expect_bits_equal(d0, d1);

      const auto xf = rand_vec<float>(n + off, 33);
      const auto [w0, w1] = both_isas([&] {
        std::vector<double> out(n);
        simd::widen({xf.data() + off, n}, out);
        return out;
      });
      expect_bits_equal(w0, w1);

      const auto [m0, m1] = both_isas([&] {
        std::vector<float> out(n);
        simd::narrow(x, out);
        return out;
      });
      expect_bits_equal(m0, m1);
    }
  }
}

// ---------------------------------------------------------------------------
// Scans.

TEST(SimdKernels, ProminenceScansBitExact) {
  IsaGuard guard(simd::detected());
  for (std::size_t n : kLengths) {
    const auto xs = rand_vec<double>(n, 41);
    // Thresholds below, inside and above the data range: no breaker at all,
    // breakers at arbitrary block positions, immediate breaker.
    for (double h : {-10.0, -1.0, 0.0, 1.0, 10.0}) {
      const auto [f0, f1] =
          both_isas([&] { return simd::min_until_greater_fwd(xs, h); });
      EXPECT_EQ(f0, f1) << "fwd n=" << n << " h=" << h;
      const auto [b0, b1] =
          both_isas([&] { return simd::min_until_greater_bwd(xs, h); });
      EXPECT_EQ(b0, b1) << "bwd n=" << n << " h=" << h;
    }
  }
  // Empty input returns the threshold itself (prominence walk off an edge
  // peak: no minimum on that side).
  EXPECT_EQ(simd::min_until_greater_fwd({}, 2.5), 2.5);
  EXPECT_EQ(simd::min_until_greater_bwd({}, 2.5), 2.5);
}

TEST(SimdKernels, ScansExcludeSamplesPastTheBreaker) {
  IsaGuard guard(simd::detected());
  // A deep minimum *behind* the first sample greater than h must not leak
  // into the result — the walk stops at the breaker (inclusive).
  std::vector<double> xs{0.5, 0.2, 1.5, -9.0, 0.1};
  EXPECT_EQ(simd::min_until_greater_fwd(xs, 1.0), 0.2);
  std::vector<double> rev{0.1, -9.0, 1.5, 0.2, 0.5};
  EXPECT_EQ(simd::min_until_greater_bwd(rev, 1.0), 0.2);
}

// Byte counts are exact, so every ISA must equal std::count: random and
// all-match buffers, every tail length, unaligned starts, and runs long
// enough to wrap an 8-bit lane counter if a lane were not flushed in time.
TEST(SimdKernels, CountByteMatchesStdCount) {
  IsaGuard guard(simd::detected());
  std::mt19937 rng(77);
  std::vector<std::size_t> lengths(kLengths.begin(), kLengths.end());
  lengths.insert(lengths.end(), {33, 63, 255 * 16, 255 * 32, 255 * 32 + 1,
                                 2 * 255 * 32 + 47, 65536});
  for (const std::size_t n : lengths) {
    for (const std::size_t off : kOffsets) {
      std::vector<char> random(n + off);
      for (char& c : random) {
        c = rng() % 4 == 0 ? '\n' : static_cast<char>(rng());
      }
      std::vector<char> all(n + off, '\n');
      for (const auto* buf : {&random, &all}) {
        const std::span<const char> bytes(buf->data() + off, n);
        const auto want = static_cast<std::size_t>(
            std::count(bytes.begin(), bytes.end(), '\n'));
        const auto [scalar, vector] =
            both_isas([&] { return simd::count_byte(bytes, '\n'); });
        EXPECT_EQ(scalar, want) << "n=" << n << " off=" << off;
        EXPECT_EQ(vector, want) << "n=" << n << " off=" << off;
      }
    }
  }
  // A needle with the high bit set (bytes compare unsigned and signed alike).
  const std::vector<char> high(1000, static_cast<char>(0xE9));
  EXPECT_EQ(simd::count_byte(high, static_cast<char>(0xE9)), 1000u);
  EXPECT_EQ(simd::count_byte(high, '\n'), 0u);
}

TEST(SimdKernels, NormalizeLagsBitExact) {
  IsaGuard guard(simd::detected());
  for (std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{64},
                        std::size_t{1001}}) {
    const auto raw = rand_vec<double>(n, 51);
    const auto [a, b] = both_isas([&] {
      std::vector<double> out(n);
      simd::normalize_lags(raw, n, 0.37, out);
      return out;
    });
    expect_bits_equal(a, b);
    // Clamp contract: every normalized value lands in [-1, 1].
    for (double v : a) {
      EXPECT_GE(v, -1.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

// ---------------------------------------------------------------------------
// Lane-parallel IIR.

TEST(SimdKernels, CascadeMultiBitExactAcrossIsas) {
  IsaGuard guard(simd::detected());
  const auto cascade = dsp::butterworth_lowpass(4, 5.0, 100.0);
  std::vector<dsp::BiquadCoeffs> sections;
  for (const auto& s : cascade.sections()) sections.push_back(s.coeffs());
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                        std::size_t{333}, std::size_t{2000}}) {
    for (bool backward : {false, true}) {
      const auto seed_data =
          rand_vec<double>(n * simd::kIirLanes, 61);
      const auto [a, b] = both_isas([&] {
        std::vector<double> data = seed_data;
        simd::cascade_multi(sections, data.data(), n, backward);
        return data;
      });
      expect_bits_equal(a, b);

      const auto seed_dataf = rand_vec<float>(n * simd::kIirLanes, 62);
      const auto [c, d] = both_isas([&] {
        std::vector<float> data = seed_dataf;
        simd::cascade_multif(sections, data.data(), n, backward);
        return data;
      });
      expect_bits_equal(c, d);
    }
  }
}

TEST(SimdKernels, CascadeMultiLaneMatchesSingleChannelBiquad) {
  IsaGuard guard(simd::detected());
  // Each interleaved lane must be bit-identical to BiquadCascade::step run
  // over that channel alone (the header's per-lane contract).
  const auto proto = dsp::butterworth_lowpass(4, 5.0, 100.0);
  std::vector<dsp::BiquadCoeffs> sections;
  for (const auto& s : proto.sections()) sections.push_back(s.coeffs());
  const std::size_t n = 257;
  std::vector<std::vector<double>> chans;
  for (std::size_t c = 0; c < simd::kIirLanes; ++c) {
    chans.push_back(rand_vec<double>(n, static_cast<std::uint32_t>(70 + c)));
  }
  std::vector<double> data(n * simd::kIirLanes);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < simd::kIirLanes; ++c) {
      data[i * simd::kIirLanes + c] = chans[c][i];
    }
  }
  simd::cascade_multi(sections, data.data(), n, /*backward=*/false);
  for (std::size_t c = 0; c < simd::kIirLanes; ++c) {
    dsp::BiquadCascade ref = proto;
    ref.reset();
    for (std::size_t i = 0; i < n; ++i) {
      const double want = ref.step(chans[c][i]);
      EXPECT_EQ(data[i * simd::kIirLanes + c], want)
          << "lane " << c << " sample " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Composite: the batched filtfilt entry points.

TEST(SimdComposite, FiltfiltMultiMatchesSingleChannel) {
  IsaGuard guard(simd::detected());
  // filtfilt_multi_into promises bit-identity with per-channel
  // filtfilt_into; that makes the projection stage's batched filters safe
  // to swap in without perturbing the double pipeline.
  const auto cascade = dsp::butterworth_lowpass(4, 5.0, 100.0);
  dsp::Workspace ws_multi;
  dsp::Workspace ws_single;
  for (std::size_t n : {std::size_t{16}, std::size_t{129}, std::size_t{750}}) {
    const auto a = rand_vec<double>(n, 81);
    const auto b = rand_vec<double>(n, 82);
    std::vector<double> out_a(n);
    std::vector<double> out_b(n);
    const std::array<std::span<const double>, 2> xs{
        std::span<const double>(a), std::span<const double>(b)};
    const std::array<std::span<double>, 2> outs{std::span<double>(out_a),
                                                std::span<double>(out_b)};
    dsp::filtfilt_multi_into(cascade, xs, 64, ws_multi, outs);

    std::vector<double> ref_a(n);
    std::vector<double> ref_b(n);
    dsp::filtfilt_into(cascade, a, 64, ws_single, ref_a);
    dsp::filtfilt_into(cascade, b, 64, ws_single, ref_b);
    expect_bits_equal(out_a, ref_a);
    expect_bits_equal(out_b, ref_b);
  }
}

TEST(SimdComposite, FiltfiltMultiMeanMatchesSerialMean) {
  IsaGuard guard(simd::detected());
  const auto cascade = dsp::butterworth_lowpass(2, 0.3, 100.0);
  dsp::Workspace ws;
  const std::size_t n = 512;
  const auto a = rand_vec<double>(n, 91);
  const auto b = rand_vec<double>(n, 92);
  const auto c = rand_vec<double>(n, 93);
  const std::array<std::span<const double>, 3> xs{
      std::span<const double>(a), std::span<const double>(b),
      std::span<const double>(c)};
  const auto means = dsp::filtfilt_multi_mean(cascade, xs, 64, ws);

  dsp::Workspace ws2;
  for (std::size_t ci = 0; ci < 3; ++ci) {
    std::vector<double> out(n);
    dsp::filtfilt_into(cascade, xs[ci], 64, ws2, out);
    double sum = 0.0;
    for (double v : out) sum += v;
    EXPECT_EQ(means[ci], sum / static_cast<double>(n)) << "channel " << ci;
  }
}
