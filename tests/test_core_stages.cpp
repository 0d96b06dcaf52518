// The projection stage's carried low-pass: a fresh stage's single flush is
// the batch projection bit for bit in every projection mode, and hop-wise
// advances stay on it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include "core/frontend.hpp"
#include "core/stages.hpp"
#include "common/angles.hpp"
#include "dsp/attitude.hpp"
#include "dsp/workspace.hpp"
#include "imu/sample_ring.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

namespace {

imu::Trace synth_trace(const synth::Scenario& sc, std::uint64_t seed) {
  Rng rng(seed);
  synth::UserProfile user;
  return synth::synthesize(sc, user, synth::SynthOptions{}, rng).trace;
}

imu::SampleRing ring_of(const imu::Trace& trace) {
  imu::SampleRing ring;
  for (const imu::Sample& s : trace.samples()) ring.push(s, 0);
  return ring;
}

struct Mode {
  std::string name;
  core::StepCounterConfig cfg;
};

std::vector<Mode> projection_modes() {
  std::vector<Mode> modes;
  modes.push_back({"unpinned", core::StepCounterConfig{}});
  core::StepCounterConfig windowed;
  windowed.anterior_window_s = 4.0;
  modes.push_back({"anterior_window", windowed});
  core::StepCounterConfig attitude;
  attitude.use_attitude_filter = true;
  modes.push_back({"attitude_filter", attitude});
  return modes;
}

/// project_channels_into over the whole ring: the batch projection.
core::ProjectedTrace batch_projection(const imu::Trace& trace,
                                      const core::StepCounterConfig& cfg,
                                      dsp::Workspace* ws) {
  const imu::SampleRing ring = ring_of(trace);
  const std::size_t n = ring.end();
  std::vector<Vec3> ups;
  if (cfg.use_attitude_filter) {
    dsp::AttitudeEstimator attitude;
    for (std::size_t i = 0; i < n; ++i) {
      const imu::Sample s = ring.sample(i);
      ups.push_back(attitude.update(s.gyro, s.accel, 1.0 / trace.fs()));
    }
  }
  core::ProjectedTrace out;
  core::project_channels_into(ring.ax(0, n), ring.ay(0, n), ring.az(0, n),
                              trace.fs(), cfg.lowpass_hz,
                              cfg.anterior_window_s, ups, ws, nullptr,
                              nullptr, out);
  return out;
}

}  // namespace

TEST(ProjectionStage, FreshFlushIsTheBatchProjectionInEveryMode) {
  const std::vector<imu::Trace> traces = {
      synth_trace(synth::Scenario::pure_walking(30.0), 1201),
      synth_trace(synth::Scenario::mixed_gait(40.0), 1202),
      // Short enough that the reflection pad clamps to n - 1.
      synth_trace(synth::Scenario::pure_walking(0.4), 1203),
  };
  for (const Mode& mode : projection_modes()) {
    for (const imu::Trace& trace : traces) {
      SCOPED_TRACE(mode.name + " n=" + std::to_string(trace.size()));
      ASSERT_GE(trace.size(), 16u);
      dsp::Workspace stage_ws;
      core::ProjectionStage stage(mode.cfg, trace.fs(), &stage_ws);
      const imu::SampleRing ring = ring_of(trace);
      stage.advance(ring, /*flush=*/true);
      ASSERT_EQ(stage.frontier(), trace.size());

      // With a workspace (lane-parallel filter) and without (one channel
      // at a time): the same bits either way.
      dsp::Workspace ws;
      for (dsp::Workspace* w : {&ws, static_cast<dsp::Workspace*>(nullptr)}) {
        const core::ProjectedTrace want = batch_projection(trace, mode.cfg, w);
        for (std::size_t i = 0; i < trace.size(); ++i) {
          ASSERT_EQ(stage.vertical()[i], want.vertical[i]) << "vertical " << i;
          ASSERT_EQ(stage.anterior()[i], want.anterior[i]) << "anterior " << i;
        }
      }
    }
  }
}

TEST(ProjectionStage, HopsFinalizeBehindTheMarginAndMatchTheBatchFilter) {
  // A device bouncing straight up and down: every axis fit, pinned or
  // batch, finds up = z exactly, so the projections agree to the bit and
  // what is left between hop-wise and batch output is the carried filter
  // itself — forward state carried across hops, and a reverse pass started
  // from each hop's right pad instead of the trace end.
  const double fs = 100.0;
  std::vector<imu::Sample> samples(6000);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double t = static_cast<double>(i) / fs;
    samples[i].t = t;
    samples[i].accel = {0.0, 0.0,
                        kGravity + 1.5 * std::sin(kTwoPi * 1.8 * t) +
                            0.4 * std::sin(kTwoPi * 3.7 * t + 0.3)};
  }
  const imu::Trace trace(fs, samples);
  const core::StepCounterConfig cfg;
  const auto margin = static_cast<std::size_t>(core::kProjectionMarginS * fs);
  dsp::Workspace ws;
  core::ProjectionStage stage(cfg, fs, &ws);
  imu::SampleRing ring;
  std::size_t pushed = 0;
  // Uneven hops, including 1-sample ones and ones shorter than the pad.
  const std::size_t hops[] = {300, 1, 37, 200, 150, 64, 1, 200, 500};
  for (std::size_t h = 0; pushed < trace.size(); ++h) {
    const std::size_t hop = hops[h % std::size(hops)];
    for (std::size_t k = 0; k < hop && pushed < trace.size(); ++k) {
      ring.push(trace[pushed++], 0);
    }
    const std::size_t before = stage.frontier();
    stage.advance(ring, /*flush=*/false);
    EXPECT_EQ(stage.frontier(), std::max(before, pushed - margin))
        << "after " << pushed << " samples";
  }
  stage.advance(ring, /*flush=*/true);
  ASSERT_EQ(stage.frontier(), trace.size());

  const core::ProjectedTrace batch = batch_projection(trace, cfg, &ws);
  double err = 0.0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    err = std::max(err, std::abs(stage.vertical()[i] - batch.vertical[i]));
  }
  // The reverse passes meet after kProjectionMarginS of settling.
  EXPECT_LT(err, 1e-9);
}
