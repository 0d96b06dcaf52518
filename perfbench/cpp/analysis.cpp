#include "analysis.hpp"

#include "common/stats.hpp"

namespace perfbench {

std::vector<std::uint32_t> events_to_frames(
    std::span<const std::uint32_t> events_per_frame) {
  std::vector<std::uint32_t> out;
  for (std::size_t f = 0; f < events_per_frame.size(); ++f) {
    out.insert(out.end(), events_per_frame[f], static_cast<std::uint32_t>(f));
  }
  return out;
}

double latency_drift(std::span<const double> series) {
  const std::size_t third = series.size() / 3;
  if (third == 0) return 0.0;
  const double first = ptrack::stats::median(series.first(third));
  const double last = ptrack::stats::median(series.last(third));
  return first > 0.0 ? last / first : 0.0;
}

double windowed_percentile(
    std::span<const std::pair<std::uint64_t, double>> series,
    std::uint64_t window_ns, double p, std::size_t min_count) {
  std::vector<double> per_window;
  std::vector<double> window;
  std::size_t i = 0;
  while (i < series.size()) {
    const std::uint64_t end = series[i].first + window_ns;
    window.clear();
    for (; i < series.size() && series[i].first < end; ++i) {
      window.push_back(series[i].second);
    }
    if (window.size() >= min_count) {
      per_window.push_back(ptrack::stats::percentile(window, p));
    }
  }
  return per_window.empty() ? 0.0 : ptrack::stats::percentile(per_window, 25.0);
}

}  // namespace perfbench
