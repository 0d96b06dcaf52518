// Pure arithmetic the benchmark applies to what it measured: mapping served
// events back to the frame that emitted them, and the latency-drift ratio
// that says whether latency grew over a run.

#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace perfbench {

/// Frame index of every event, in event order, given how many events each
/// frame emitted (the oracle's per-frame poll counts). The k-th event a
/// session receives is the oracle's k-th event, so it maps to the frame
/// whose cumulative count first exceeds k. Frames that emit nothing are
/// skipped naturally.
std::vector<std::uint32_t> events_to_frames(
    std::span<const std::uint32_t> events_per_frame);

/// Median of the last third of `series` divided by the median of its first
/// third (series in send order). About 1 when latency does not grow over
/// the run; well above 1 when a backlog builds. Requires at least three
/// values and a positive first-third median; returns 0 otherwise.
double latency_drift(std::span<const double> series);

/// The `p`-th percentile of each window of `window_ns` over `series`
/// ((time, value) pairs sorted by time; each window starts at the first
/// time not in an earlier one), and the lower quartile of those per-window
/// values. Windows with fewer than `min_count` values are skipped, so every
/// percentile taken has enough values beyond it; returns 0 when no window
/// qualifies. Host stalls that spoil up to three quarters of the windows
/// move a few per-window values, not the statistic; a slowdown in nearly
/// every window moves it.
double windowed_percentile(
    std::span<const std::pair<std::uint64_t, double>> series,
    std::uint64_t window_ns, double p, std::size_t min_count);

}  // namespace perfbench
