// Unit tests of the benchmark's own arithmetic: event-to-frame mapping,
// latency drift, windowed percentiles and span self time.

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <utility>
#include <vector>

#include "analysis.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

TEST(EventsToFrames, SkipsFramesThatEmitNothing) {
  // Frames 0, 2 and 5 emit nothing; frame 3 emits three events at once.
  const std::vector<std::uint32_t> per_frame = {0, 2, 0, 3, 1, 0, 1};
  const std::vector<std::uint32_t> expected = {1, 1, 3, 3, 3, 4, 6};
  EXPECT_EQ(events_to_frames(per_frame), expected);
}

TEST(EventsToFrames, EmptyAndSilentSequences) {
  EXPECT_TRUE(events_to_frames({}).empty());
  const std::vector<std::uint32_t> silent = {0, 0, 0};
  EXPECT_TRUE(events_to_frames(silent).empty());
}

TEST(LatencyDrift, FlatSeriesIsOne) {
  const std::vector<double> flat(30, 250.0);
  EXPECT_DOUBLE_EQ(latency_drift(flat), 1.0);
}

TEST(LatencyDrift, GrowingSeriesIsAboveOne) {
  // Latency grows linearly from 100 to 399 us: a building backlog.
  std::vector<double> growing;
  for (int i = 0; i < 300; ++i) growing.push_back(100.0 + i);
  // First third 100..199 has median 149.5, last third 300..399 has 349.5.
  EXPECT_DOUBLE_EQ(latency_drift(growing), 349.5 / 149.5);
  EXPECT_GT(latency_drift(growing), 2.0);
}

TEST(LatencyDrift, TooShortIsZero) {
  const std::vector<double> two = {1.0, 2.0};
  EXPECT_EQ(latency_drift(two), 0.0);
}

/// Five one-second windows of 100 values each; the windows in `spoiled`
/// hold a stall.
std::vector<std::pair<std::uint64_t, double>> five_windows(
    std::initializer_list<std::uint64_t> spoiled) {
  std::vector<std::pair<std::uint64_t, double>> series;
  for (std::uint64_t w = 0; w < 5; ++w) {
    const bool stall = std::find(spoiled.begin(), spoiled.end(), w) != spoiled.end();
    for (std::uint64_t i = 0; i < 100; ++i) {
      const double v = stall ? 5000.0 : 100.0 + static_cast<double>(i);
      series.emplace_back(w * 1'000'000'000 + i * 1'000'000, v);
    }
  }
  return series;
}

TEST(WindowedPercentile, ThreeSpoiledWindowsOfFiveDoNotMoveIt) {
  // Per window p99 of 100..199 is 198.01; a spoiled window's is 5000.
  EXPECT_NEAR(windowed_percentile(five_windows({2}), 1'000'000'000, 99.0, 100),
              198.01, 1e-9);
  EXPECT_NEAR(windowed_percentile(five_windows({0, 2, 4}), 1'000'000'000, 99.0, 100),
              198.01, 1e-9);
}

TEST(WindowedPercentile, NearlyAllWindowsSpoiledMovesIt) {
  EXPECT_EQ(windowed_percentile(five_windows({0, 1, 2, 4}), 1'000'000'000, 99.0, 100),
            5000.0);
}

TEST(WindowedPercentile, SkipsWindowsBelowTheMinimumCount) {
  EXPECT_EQ(windowed_percentile(five_windows({}), 1'000'000'000, 99.0, 101), 0.0);
}

TEST(SelfTime, NestedSpans) {
  // root [0,100) has children a [10,40) and b [30,60) that overlap, and c
  // [90,120) that runs past the root's end; a has a grandchild [15,25).
  const std::vector<Span> spans = {
      {0, -1, 7, 0, 100},  // root
      {1, 0, 7, 10, 40},   // a
      {2, 0, 7, 30, 60},   // b
      {3, 0, 7, 90, 120},  // c
      {4, 1, 7, 15, 25},   // grandchild of root via a
  };
  const std::vector<std::uint64_t> self = self_times(spans);
  ASSERT_EQ(self.size(), spans.size());
  // Union of children inside root: [10,60) + [90,100) = 60.
  EXPECT_EQ(self[0], 40u);
  EXPECT_EQ(self[1], 20u);  // 30 minus the grandchild's 10
  EXPECT_EQ(self[2], 30u);
  EXPECT_EQ(self[3], 30u);
  EXPECT_EQ(self[4], 10u);
}

TEST(SelfTime, SelfTimesOfATreeSumToTheRoot) {
  const std::vector<Span> spans = {
      {0, -1, 1, 1000, 2000},
      {1, 0, 1, 1000, 1400},
      {2, 0, 1, 1400, 1900},
      {3, 2, 1, 1500, 1600},
  };
  std::uint64_t sum = 0;
  for (const std::uint64_t s : self_times(spans)) sum += s;
  EXPECT_EQ(sum, 1000u);
}

TEST(SelfTime, TotalsByName) {
  SpanRecorder rec;
  const std::uint32_t outer = rec.name_id("outer");
  const std::uint32_t inner = rec.name_id("inner");
  EXPECT_EQ(rec.name_id("outer"), outer);
  for (std::uint64_t r = 0; r < 2; ++r) {
    const std::int32_t o = rec.add(outer, r, -1, 100 * r, 100 * r + 50);
    rec.add(inner, r, o, 100 * r + 10, 100 * r + 30);
  }
  const std::vector<NameTotals> totals = totals_by_name(rec);
  EXPECT_EQ(totals[outer].count, 2u);
  EXPECT_DOUBLE_EQ(totals[outer].total_ns, 100.0);
  EXPECT_DOUBLE_EQ(totals[outer].self_ns, 60.0);
  EXPECT_DOUBLE_EQ(totals[inner].self_ns, 40.0);
}

}  // namespace
}  // namespace perfbench
