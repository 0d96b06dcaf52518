// Unit tests for peak / valley / zero-crossing / extremum detection and
// the streaming peak tracker.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "common/angles.hpp"
#include "dsp/peaks.hpp"

using namespace ptrack;

namespace {

std::vector<double> sine(double freq, double fs, double seconds) {
  const auto n = static_cast<std::size_t>(seconds * fs);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = std::sin(kTwoPi * freq * static_cast<double>(i) / fs);
  }
  return out;
}

}  // namespace

TEST(FindPeaks, CountsSinePeaks) {
  const auto xs = sine(2.0, 100.0, 5.0);  // 10 full periods -> 10 maxima
  const auto peaks = dsp::find_peaks(xs);
  EXPECT_EQ(peaks.size(), 10u);
}

TEST(FindPeaks, MinHeightFilters) {
  std::vector<double> xs{0, 1, 0, 5, 0, 2, 0};
  dsp::PeakOptions opt;
  opt.min_height = 3.0;
  const auto peaks = dsp::find_peaks(xs, opt);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0], 3u);
}

TEST(FindPeaks, MinDistanceKeepsTaller) {
  std::vector<double> xs{0, 2, 0, 3, 0};
  dsp::PeakOptions opt;
  opt.min_distance = 3;
  const auto peaks = dsp::find_peaks(xs, opt);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0], 3u);
}

TEST(FindPeaks, PlateauReportsCenter) {
  std::vector<double> xs{0, 1, 2, 2, 2, 1, 0};
  const auto peaks = dsp::find_peaks(xs);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0], 3u);
}

TEST(FindPeaks, ProminenceFiltersRipple) {
  // A small ripple riding on the slope of a big peak has low prominence.
  std::vector<double> xs;
  for (int i = 0; i <= 100; ++i) {
    double v = std::sin(kPi * i / 100.0);        // one big arch
    v += 0.05 * std::sin(kTwoPi * i / 10.0);     // small ripple
    xs.push_back(v);
  }
  dsp::PeakOptions opt;
  opt.min_prominence = 0.5;
  const auto peaks = dsp::find_peaks(xs, opt);
  EXPECT_EQ(peaks.size(), 1u);
}

TEST(FindPeaks, EmptyAndTinyInputs) {
  EXPECT_TRUE(dsp::find_peaks(std::vector<double>{}).empty());
  EXPECT_TRUE(dsp::find_peaks(std::vector<double>{1.0, 2.0}).empty());
}

TEST(FindValleys, MirrorsPeaks) {
  const auto xs = sine(2.0, 100.0, 5.0);
  EXPECT_EQ(dsp::find_valleys(xs).size(), 10u);
}

TEST(PeakProminence, IsolatedPeakFullHeight) {
  std::vector<double> xs{0, 0, 3, 0, 0};
  EXPECT_DOUBLE_EQ(dsp::peak_prominence(xs, 2), 3.0);
}

TEST(ZeroCrossings, CountsSineCrossings) {
  const auto xs = sine(1.0, 100.0, 3.0);  // 3 periods: crossings at T/2 spacing
  const auto zs = dsp::zero_crossings(xs);
  // First confirmed crossing needs a preceding confirmed side, so expect 5.
  EXPECT_EQ(zs.size(), 5u);
}

TEST(ZeroCrossings, HysteresisSuppressesChatter) {
  // Noise oscillating inside the hysteresis band must produce no crossings.
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back((i % 2 == 0) ? 0.05 : -0.05);
  EXPECT_TRUE(dsp::zero_crossings(xs, 0.2).empty());
  EXPECT_FALSE(dsp::zero_crossings(xs, 0.01).empty());
}

TEST(ZeroCrossings, ReportsActualSignChangeNotConfirmation) {
  // Slow rise: sign change at index 5, confirmation (beyond 0.5) at 7.
  const std::vector<double> xs{-1.0, -0.8, -0.6, -0.4, -0.2,
                               0.05, 0.3,  0.7,  1.0};
  const auto zs = dsp::zero_crossings(xs, 0.5);
  ASSERT_EQ(zs.size(), 1u);
  EXPECT_EQ(zs[0], 5u);
}

TEST(FindExtrema, AlternatesAndSorted) {
  const auto xs = sine(2.0, 100.0, 2.0);
  const auto ext = dsp::find_extrema(xs);
  ASSERT_GE(ext.size(), 6u);
  for (std::size_t i = 1; i < ext.size(); ++i) {
    EXPECT_LT(ext[i - 1].index, ext[i].index);
    EXPECT_NE(ext[i - 1].is_max, ext[i].is_max);  // alternating on a sine
  }
}

TEST(FindExtrema, ValuesMatchSignal) {
  const auto xs = sine(1.0, 100.0, 2.0);
  for (const dsp::Extremum& e : dsp::find_extrema(xs)) {
    EXPECT_DOUBLE_EQ(e.value, xs[e.index]);
    if (e.is_max) {
      EXPECT_NEAR(e.value, 1.0, 0.01);
    } else {
      EXPECT_NEAR(e.value, -1.0, 0.01);
    }
  }
}

// ---------------------------------------------------------------------------
// PeakTracker: find_peaks carried across a growing signal.

namespace {

std::vector<double> random_signal(std::size_t n, std::uint32_t seed,
                                  double quantum) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> out(n);
  for (double& v : out) {
    v = dist(rng);
    // Quantizing makes plateaus and equal-height peaks common, so the
    // min-distance choice meets ties.
    if (quantum > 0.0) v = std::round(v / quantum) * quantum;
  }
  return out;
}

/// A step-like signal: a 1.8 Hz swing with a weaker harmonic (a double
/// hump per period), slow amplitude drift and noise, at 100 Hz.
std::vector<double> gait_like_signal(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> noise(0.0, 0.05);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / 100.0;
    const double amp = 1.0 + 0.3 * std::sin(kTwoPi * 0.05 * t);
    out[i] = amp * std::sin(kTwoPi * 1.8 * t) +
             0.35 * std::sin(kTwoPi * 3.6 * t + 0.7) + noise(rng);
  }
  return out;
}

std::vector<std::size_t> track_in_one_flush(std::span<const double> xs,
                                            const dsp::PeakOptions& opt) {
  dsp::PeakTracker tracker(opt);
  std::vector<std::size_t> out;
  tracker.advance(xs, 0, xs.size(), out);
  return out;
}

/// Drives the tracker the way the streaming segmentation stage does: the
/// signal grows by `hop` samples, peaks finalize `margin` behind its end,
/// and the origin follows `lookback` behind the accept frontier.
std::vector<std::size_t> track_in_hops(std::span<const double> xs,
                                       const dsp::PeakOptions& opt,
                                       std::size_t hop, std::size_t margin,
                                       std::size_t lookback) {
  dsp::PeakTracker tracker(opt);
  std::vector<std::size_t> out;
  std::size_t floor = 0;
  for (std::size_t end = hop; end < xs.size(); end += hop) {
    const std::size_t accept_to = end > margin ? end - margin : 0;
    tracker.advance(xs.subspan(floor, end - floor), floor, accept_to, out);
    floor = std::max(floor, accept_to > lookback ? accept_to - lookback : 0);
  }
  tracker.advance(xs.subspan(floor), floor, xs.size(), out);
  return out;
}

}  // namespace

TEST(PeakTracker, OneFlushMatchesFindPeaksOnRandomSignals) {
  for (std::uint32_t seed = 0; seed < 40; ++seed) {
    const std::size_t n = 3 + (seed * 97) % 2000;
    const double quantum = seed % 3 == 0 ? 0.25 : 0.0;
    const auto xs = random_signal(n, seed, quantum);
    for (const std::size_t dist : {1, 2, 7, 25}) {
      for (const double prom : {0.0, 0.3, 1.0}) {
        dsp::PeakOptions opt;
        opt.min_distance = dist;
        opt.min_prominence = prom;
        if (seed % 4 == 1) opt.min_height = 0.2;
        EXPECT_EQ(track_in_one_flush(xs, opt), dsp::find_peaks(xs, opt))
            << "seed " << seed << " dist " << dist << " prom " << prom;
      }
    }
  }
}

TEST(PeakTracker, OneFlushMatchesFindPeaksOnSynthesizedSignals) {
  for (std::uint32_t seed = 0; seed < 8; ++seed) {
    const auto xs = gait_like_signal(6000, seed);
    dsp::PeakOptions opt;
    opt.min_distance = 30;
    opt.min_prominence = 0.2;
    const auto want = dsp::find_peaks(xs, opt);
    EXPECT_GT(want.size(), 100u);
    EXPECT_EQ(track_in_one_flush(xs, opt), want) << "seed " << seed;
  }
  // Plateaus at the signal's ends and a flat signal: no peak either way.
  const std::vector<double> flat(50, 1.5);
  EXPECT_TRUE(track_in_one_flush(flat, {}).empty());
  const std::vector<double> edge{2, 2, 1, 3, 3, 3};
  EXPECT_EQ(track_in_one_flush(edge, {}), dsp::find_peaks(edge));
}

TEST(PeakTracker, HopsMatchFindPeaksWhenTheMarginCoversEveryChoice) {
  // With a 1.8 s margin and 5 s lookback (the segmentation stage's), every
  // prominence walk and min-distance contest of a step-like signal closes
  // before its peaks finalize, so hop-wise tracking is exact. Hops as
  // short as one sample exercise plateaus and walks left open at the end.
  dsp::PeakOptions opt;
  opt.min_distance = 30;
  opt.min_prominence = 0.2;
  for (std::uint32_t seed = 0; seed < 6; ++seed) {
    const auto xs = gait_like_signal(4000, 100 + seed);
    const auto want = dsp::find_peaks(xs, opt);
    for (const std::size_t hop : {1, 13, 50, 200, 400}) {
      EXPECT_EQ(track_in_hops(xs, opt, hop, 180, 500), want)
          << "seed " << seed << " hop " << hop;
    }
  }
}

TEST(PeakTracker, HopDecisionsStayPeaksOfTheSignal) {
  // On random signals hop-wise decisions may differ from one batch scan (a
  // later, taller peak can no longer unseat a finalized one, and walks stop
  // at the lookback), but the output stays ascending, each peak is a
  // prominent raw maximum of the whole signal, and one closer than the
  // min distance to its predecessor is the taller of the two.
  dsp::PeakOptions opt;
  opt.min_distance = 9;
  opt.min_prominence = 0.4;
  for (std::uint32_t seed = 0; seed < 10; ++seed) {
    const auto xs = random_signal(3000, 500 + seed, 0.0);
    const auto got = track_in_hops(xs, opt, 37, 60, 200);
    dsp::PeakOptions prominent_only;
    prominent_only.min_prominence = opt.min_prominence;
    const auto candidates = dsp::find_peaks(xs, prominent_only);
    for (std::size_t k = 0; k < got.size(); ++k) {
      if (k > 0) {
        EXPECT_LT(got[k - 1], got[k]);
        if (got[k] - got[k - 1] < opt.min_distance) {
          EXPECT_GT(xs[got[k]], xs[got[k - 1]]);
        }
      }
      EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(),
                                     got[k]))
          << "seed " << seed << " peak " << got[k];
    }
    const auto batch = dsp::find_peaks(xs, opt);
    EXPECT_NEAR(static_cast<double>(got.size()),
                static_cast<double>(batch.size()),
                0.1 * static_cast<double>(batch.size()))
        << "seed " << seed;
  }
}
