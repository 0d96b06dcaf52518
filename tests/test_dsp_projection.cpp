// Unit tests for the projection frontend: gravity/up estimation and
// vertical/anterior decomposition under arbitrary device mounting.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/angles.hpp"
#include "common/error.hpp"
#include "common/mat3.hpp"
#include "common/rng.hpp"
#include "dsp/projection.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

namespace {

// Builds a specific-force sequence for a device whose world-frame linear
// acceleration oscillates vertically (amp_v at f_v) and along world-x
// (amp_a at f_a), observed in a device frame rotated by `mount`.
std::vector<Vec3> make_forces(double fs, double seconds, double amp_v,
                              double f_v, double amp_a, double f_a,
                              const Mat3& mount) {
  const auto n = static_cast<std::size_t>(fs * seconds);
  const Mat3 world_to_device = mount.transposed();
  std::vector<Vec3> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    const Vec3 accel{amp_a * std::sin(kTwoPi * f_a * t), 0.0,
                     amp_v * std::sin(kTwoPi * f_v * t)};
    const Vec3 f = accel + Vec3{0, 0, kGravity};
    out.push_back(world_to_device.apply(f));
  }
  return out;
}

/// One window's channels, split structure-of-arrays like SampleRing views.
struct Channels {
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> z;
};

Channels split(std::span<const Vec3> forces) {
  Channels c;
  for (const Vec3& f : forces) {
    c.x.push_back(f.x);
    c.y.push_back(f.y);
    c.z.push_back(f.z);
  }
  return c;
}

/// A tilted device with gravity, an anisotropic horizontal swing and white
/// noise: the shape of a wrist window, with random content.
Channels random_window(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> noise(0.0, 1.0);
  const Mat3 mount = Mat3::from_euler(0.4, -0.3, 0.9);
  std::vector<Vec3> forces;
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 world{2.0 * noise(rng), 0.7 * noise(rng),
                     kGravity + 1.5 * noise(rng)};
    forces.push_back(mount.transposed().apply(world));
  }
  return split(forces);
}

/// Relative eigen gap of the horizontal covariance around `dir` (the
/// leading direction) and its horizontal complement; ~0 means the leading
/// direction is not determined by the data.
double horizontal_gap(const Channels& c, const Vec3& up, const Vec3& dir) {
  const Vec3 side = up.cross(dir).normalized();
  const std::size_t n = c.x.size();
  double ma = 0.0;
  double mb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 f{c.x[i], c.y[i], c.z[i]};
    ma += f.dot(dir);
    mb += f.dot(side);
  }
  ma /= static_cast<double>(n);
  mb /= static_cast<double>(n);
  double saa = 0.0;
  double sbb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 f{c.x[i], c.y[i], c.z[i]};
    saa += (f.dot(dir) - ma) * (f.dot(dir) - ma);
    sbb += (f.dot(side) - mb) * (f.dot(side) - mb);
  }
  return (saa - sbb) / (saa + sbb);
}

/// The closed form against the filtering reference it replaces:
/// estimate_up + principal_horizontal_direction over the same window.
void expect_matches_reference(dsp::AxisEstimator& est, const Channels& c,
                              const std::string& what) {
  SCOPED_TRACE(what + " n=" + std::to_string(c.x.size()));
  const Vec3 up_ref = dsp::estimate_up(c.x, c.y, c.z, 100.0);
  const Vec3 dir_ref = dsp::principal_horizontal_direction(c.x, c.y, c.z,
                                                           up_ref);
  const dsp::WindowAxes got = est.estimate(c.x, c.y, c.z);
  EXPECT_NEAR(got.up.x, up_ref.x, 1e-12);
  EXPECT_NEAR(got.up.y, up_ref.y, 1e-12);
  EXPECT_NEAR(got.up.z, up_ref.z, 1e-12);
  if (horizontal_gap(c, up_ref, dir_ref) < 1e-6) return;
  EXPECT_LE(1.0 - std::abs(got.forward.dot(dir_ref)), 1e-9);
  // The attitude-filter branch supplies its own up.
  EXPECT_LE(1.0 - std::abs(dsp::AxisEstimator::forward(c.x, c.y, c.z, up_ref)
                               .dot(dir_ref)),
            1e-9);
}

}  // namespace

TEST(EstimateUp, IdentityMount) {
  const auto forces =
      make_forces(100.0, 4.0, 2.0, 2.0, 3.0, 1.0, Mat3::identity());
  const Vec3 up = dsp::estimate_up(forces, 100.0);
  EXPECT_NEAR(up.z, 1.0, 1e-3);
}

TEST(EstimateUp, TiltedMountRecovered) {
  const Mat3 mount = Mat3::from_euler(0.3, -0.4, 1.0);
  const auto forces = make_forces(100.0, 4.0, 2.0, 2.0, 3.0, 1.0, mount);
  const Vec3 up = dsp::estimate_up(forces, 100.0);
  // True up in the device frame is mount^T * z.
  const Vec3 expected = mount.transposed().apply(kVertical);
  EXPECT_NEAR(up.dot(expected), 1.0, 1e-3);
}

TEST(EstimateUp, RequiresSamples) {
  std::vector<Vec3> tiny(2, Vec3{0, 0, kGravity});
  EXPECT_THROW(dsp::estimate_up(tiny, 100.0), InvalidArgument);
}

TEST(PrincipalHorizontal, FindsOscillationAxis) {
  const auto forces =
      make_forces(100.0, 4.0, 1.0, 2.0, 4.0, 1.0, Mat3::identity());
  const Vec3 up = dsp::estimate_up(forces, 100.0);
  const Vec3 fwd = dsp::principal_horizontal_direction(forces, up);
  // Horizontal oscillation is along world-x; sign is arbitrary.
  EXPECT_NEAR(std::abs(fwd.x), 1.0, 0.02);
  EXPECT_NEAR(fwd.z, 0.0, 0.02);
}

TEST(Project, RecoversVerticalAmplitudeUnderMount) {
  const Mat3 mount = Mat3::from_euler(-0.25, 0.35, 2.2);
  const double amp_v = 2.0;
  const double amp_a = 3.5;
  const auto forces = make_forces(100.0, 6.0, amp_v, 2.0, amp_a, 1.0, mount);
  const dsp::ProjectedSignal proj = dsp::project(forces, 100.0);

  double max_v = 0.0;
  double max_a = 0.0;
  for (std::size_t i = 100; i + 100 < proj.vertical.size(); ++i) {
    max_v = std::max(max_v, std::abs(proj.vertical[i]));
    max_a = std::max(max_a, std::abs(proj.anterior[i]));
  }
  EXPECT_NEAR(max_v, amp_v, 0.1);
  EXPECT_NEAR(max_a, amp_a, 0.1);
}

TEST(Project, LateralIsSmallForPlanarMotion) {
  const auto forces =
      make_forces(100.0, 4.0, 2.0, 2.0, 3.0, 1.0, Mat3::identity());
  const dsp::ProjectedSignal proj = dsp::project(forces, 100.0);
  double max_l = 0.0;
  for (double v : proj.lateral) max_l = std::max(max_l, std::abs(v));
  EXPECT_LT(max_l, 0.2);
}

TEST(Project, StationaryDeviceAllChannelsQuiet) {
  const std::vector<Vec3> forces(512, Vec3{0, 0, kGravity});
  const dsp::ProjectedSignal proj = dsp::project(forces, 100.0);
  for (double v : proj.vertical) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(ProjectWithAxes, ValidatesUnitVectors) {
  const std::vector<Vec3> forces(64, Vec3{0, 0, kGravity});
  EXPECT_THROW(
      dsp::project_with_axes(forces, 100.0, {0, 0, 2}, {1, 0, 0}),
      InvalidArgument);
}

TEST(ProjectWithAxes, UpFieldsEchoInputs) {
  const std::vector<Vec3> forces(64, Vec3{0, 0, kGravity});
  const auto proj =
      dsp::project_with_axes(forces, 100.0, {0, 0, 1}, {1, 0, 0});
  EXPECT_EQ(proj.up, kVertical);
  EXPECT_EQ(proj.forward, kAnterior);
  EXPECT_DOUBLE_EQ(proj.fs, 100.0);
}

// ---------------------------------------------------------------------------
// AxisEstimator: the closed-form pinned axes of a streaming hop.

TEST(AxisEstimator, MatchesFilteringReferenceOnRandomWindows) {
  // 16 and 17 clamp the reflection pad to n - 1; 65 is the first length
  // with the full 64-sample pad; 2000 is the 20 s streaming history.
  const std::size_t lengths[] = {16, 17, 65, 100, 2000};
  dsp::AxisEstimator est(100.0, 2000);
  for (int round = 0; round < 2; ++round) {  // revisits each cached length
    for (const std::size_t n : lengths) {
      for (std::uint32_t seed = 1; seed <= 3; ++seed) {
        expect_matches_reference(est, random_window(n, seed + 10 * round),
                                 "random");
      }
    }
  }
}

TEST(AxisEstimator, MatchesFilteringReferenceOnSynthesizedStreams) {
  synth::UserProfile user;
  const auto make = [&](const synth::Scenario& sc, std::uint64_t seed) {
    Rng rng(seed);
    return synth::synthesize(sc, user, synth::SynthOptions{}, rng).trace;
  };
  const std::pair<std::string, imu::Trace> streams[] = {
      {"walking", make(synth::Scenario::pure_walking(40.0), 11)},
      {"stepping", make(synth::Scenario::pure_stepping(40.0), 12)},
      {"eating", make(synth::Scenario::interference(synth::ActivityKind::Eating,
                                                    40.0,
                                                    synth::Posture::Standing),
                      13)},
  };
  for (const auto& [name, trace] : streams) {
    ASSERT_DOUBLE_EQ(trace.fs(), 100.0);
    const auto forces = trace.accel_vectors();
    dsp::AxisEstimator est(100.0, 2000);
    // Hop-spaced windows as a stream sees them: a history that grows to
    // 20 s, then slides at full length.
    for (std::size_t end = 200; end <= forces.size(); end += 200) {
      const std::size_t begin = end > 2000 ? end - 2000 : 0;
      expect_matches_reference(
          est,
          split(std::span<const Vec3>(forces).subspan(begin, end - begin)),
          name);
    }
  }
}

TEST(AxisEstimator, RejectsDegenerateGravityAndShortWindows) {
  dsp::AxisEstimator est(100.0, 64);
  const std::vector<double> zeros(32, 0.0);
  EXPECT_THROW(est.estimate(zeros, zeros, zeros), InvariantViolation);
  const std::vector<double> three(3, 1.0);
  EXPECT_THROW(est.estimate(three, three, three), InvalidArgument);
}
