// Tests for the projection frontend options: windowed anterior estimation
// (turning routes) and the attitude-filter mode.

#include <gtest/gtest.h>

#include "common/angles.hpp"
#include "common/error.hpp"
#include "core/frontend.hpp"
#include "core/ptrack.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

namespace {

synth::SynthResult turning_walk(std::uint64_t seed) {
  Rng rng(seed);
  synth::UserProfile user;
  // An L-shaped walk: heading changes by 90 degrees halfway.
  synth::Scenario scenario;
  scenario.walk(30.0, 0.0, 0.0).walk(30.0, 0.0, kPi / 2);
  return synth::synthesize(scenario, user, synth::SynthOptions{}, rng);
}

}  // namespace

TEST(Frontend, ProjectTraceBasicShapes) {
  Rng rng(801);
  synth::UserProfile user;
  const auto r = synth::synthesize(synth::Scenario::pure_walking(20.0), user,
                                   synth::SynthOptions{}, rng);
  const auto p = core::project_trace(r.trace, 5.0);
  EXPECT_EQ(p.vertical.size(), r.trace.size());
  EXPECT_EQ(p.anterior.size(), r.trace.size());
  EXPECT_DOUBLE_EQ(p.fs, r.trace.fs());
}

TEST(Frontend, WindowedAnteriorMatchesGlobalOnStraightWalk) {
  Rng rng(802);
  synth::UserProfile user;
  const auto r = synth::synthesize(synth::Scenario::pure_walking(30.0), user,
                                   synth::SynthOptions{}, rng);
  const auto global = core::project_trace(r.trace, 5.0, 0.0);
  const auto windowed = core::project_trace(r.trace, 5.0, 10.0);
  // Same direction up to sign per window; compare energy, not samples.
  double eg = 0.0;
  double ew = 0.0;
  for (std::size_t i = 0; i < global.anterior.size(); ++i) {
    eg += global.anterior[i] * global.anterior[i];
    ew += windowed.anterior[i] * windowed.anterior[i];
  }
  EXPECT_NEAR(ew / eg, 1.0, 0.05);
}

TEST(Frontend, WindowedAnteriorHelpsOnTurningRoute) {
  const auto r = turning_walk(803);
  // Anterior energy with the global fit is diluted across the two
  // headings; the windowed fit recovers it.
  const auto global = core::project_trace(r.trace, 5.0, 0.0);
  const auto windowed = core::project_trace(r.trace, 5.0, 10.0);
  double eg = 0.0;
  double ew = 0.0;
  for (std::size_t i = 0; i < global.anterior.size(); ++i) {
    eg += global.anterior[i] * global.anterior[i];
    ew += windowed.anterior[i] * windowed.anterior[i];
  }
  EXPECT_GT(ew, eg);
}

TEST(Frontend, CountingOnTurningRouteWithWindowedAnterior) {
  const auto r = turning_walk(804);
  synth::UserProfile user;
  core::PTrackConfig cfg;
  cfg.counter.anterior_window_s = 10.0;
  cfg.stride.profile = {user.arm_length, user.leg_length, 2.0};
  core::PTrack tracker(cfg);
  const auto res = tracker.process(r.trace);
  const double truth = static_cast<double>(r.truth.step_count());
  EXPECT_NEAR(static_cast<double>(res.steps), truth, 0.12 * truth);
}

TEST(Frontend, AttitudeModeMatchesBatchOnPlatformCorrectedTrace) {
  // On a platform-corrected trace (constant frame) the attitude filter
  // converges to the same fixed up vector, so counting must agree.
  Rng rng(805);
  synth::UserProfile user;
  const auto r = synth::synthesize(synth::Scenario::pure_walking(60.0), user,
                                   synth::SynthOptions{}, rng);
  core::PTrackConfig batch_cfg;
  core::PTrackConfig attitude_cfg;
  attitude_cfg.counter.use_attitude_filter = true;
  core::PTrack batch(batch_cfg);
  core::PTrack attitude(attitude_cfg);
  const double b = static_cast<double>(batch.process(r.trace).steps);
  const double a = static_cast<double>(attitude.process(r.trace).steps);
  EXPECT_NEAR(a, b, 0.08 * b + 2.0);
}

TEST(Frontend, Preconditions) {
  Rng rng(806);
  synth::UserProfile user;
  const auto r = synth::synthesize(synth::Scenario::pure_walking(5.0), user,
                                   synth::SynthOptions{}, rng);
  EXPECT_THROW(core::project_trace(r.trace.slice(0, 8), 5.0), InvalidArgument);
  EXPECT_THROW(core::project_trace(r.trace, 0.0), InvalidArgument);
  EXPECT_THROW(core::project_trace_with_attitude(r.trace.slice(0, 8), 5.0),
               InvalidArgument);
}

TEST(Frontend, PinnedAxesEqualToTheSpanEstimateChangeNothing) {
  // Pinning exactly the axes the unpinned path fits to the span must
  // reproduce its projection bit for bit: `pinned` only replaces the fit.
  Rng rng(807);
  synth::UserProfile user;
  const auto r = synth::synthesize(synth::Scenario::pure_walking(12.0), user,
                                   synth::SynthOptions{}, rng);
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> z;
  for (const Vec3& f : r.trace.accel_vectors()) {
    x.push_back(f.x);
    y.push_back(f.y);
    z.push_back(f.z);
  }
  const double fs = r.trace.fs();
  const Vec3 up = dsp::estimate_up(x, y, z, fs);
  // The span fit takes the anterior axis against the window's mean up,
  // which for a constant up is the normalized sum of n copies.
  Vec3 mean_up{};
  for (std::size_t i = 0; i < x.size(); ++i) mean_up += up;
  const dsp::WindowAxes pinned{
      up, dsp::principal_horizontal_direction(x, y, z, mean_up.normalized())};
  const auto fitted = core::project_channels(x, y, z, fs, 5.0);
  const auto fixed =
      core::project_channels(x, y, z, fs, 5.0, 0.0, {}, nullptr, nullptr,
                             &pinned);
  EXPECT_EQ(fitted.vertical, fixed.vertical);
  EXPECT_EQ(fitted.anterior, fixed.anterior);

  // A different pinned anterior axis does change the anterior channel.
  const dsp::WindowAxes turned{up, up.cross(pinned.forward)};
  const auto other =
      core::project_channels(x, y, z, fs, 5.0, 0.0, {}, nullptr, nullptr,
                             &turned);
  EXPECT_EQ(fitted.vertical, other.vertical);
  EXPECT_NE(fitted.anterior, other.anterior);
}
