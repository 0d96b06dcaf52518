#include "dsp/peaks.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/simd.hpp"

namespace ptrack::dsp {

namespace {

// Raw local maxima appended to `out`, plateau-aware: for a flat top, report
// the center.
void raw_maxima_into(std::span<const double> xs, std::vector<std::size_t>& out) {
  out.clear();
  const std::size_t n = xs.size();
  if (n < 3) return;
  std::size_t i = 1;
  while (i + 1 < n) {
    if (xs[i] > xs[i - 1]) {
      // Scan a possible plateau [i, j].
      std::size_t j = i;
      while (j + 1 < n && xs[j + 1] == xs[i]) ++j;
      if (j + 1 < n && xs[j + 1] < xs[i]) {
        // ptrack-lint: allow(alloc) grows caller scratch; steady capacity
        out.push_back((i + j) / 2);
      }
      i = j + 1;
    } else {
      ++i;
    }
  }
}

double prominence_of(std::span<const double> xs, std::size_t peak) {
  const double h = xs[peak];
  // Walk left until a sample higher than the peak (or the edge); track the
  // minimum on the way. Same to the right. Prominence = h - max(minL, minR).
  // min is exact, so the blockwise SIMD scans match the scalar walks bit
  // for bit.
  const double left_min = simd::min_until_greater_bwd(xs.first(peak), h);
  const double right_min = simd::min_until_greater_fwd(
      xs.subspan(peak + 1), h);
  return h - std::max(left_min, right_min);
}

/// The min-distance choice, greedy by height: keep taller peaks, drop any
/// neighbour closer than `min_distance` to an already kept one. `peaks` is
/// ascending and height(k) is the height of peaks[k]; on return keep[k] is
/// 1 for the survivors. Sorting positions (not the indices themselves)
/// makes the sort's comparisons depend only on the heights in index order,
/// so find_peaks and PeakTracker break ties the same way.
template <typename Height>
void choose_min_distance(std::span<const std::size_t> peaks,
                         std::size_t min_distance, Height height,
                         std::vector<std::size_t>& by_height,
                         std::vector<unsigned char>& keep) {
  const std::size_t n = peaks.size();
  // ptrack-lint: push-allow(alloc) caller scratch; steady capacity
  by_height.resize(n);
  keep.assign(n, 1);
  // ptrack-lint: pop-allow(alloc)
  for (std::size_t k = 0; k < n; ++k) by_height[k] = k;
  if (min_distance <= 1 || n < 2) return;
  std::sort(by_height.begin(), by_height.end(),
            [&](std::size_t a, std::size_t b) { return height(a) > height(b); });
  for (const std::size_t p : by_height) {
    if (keep[p] == 0) continue;
    // Drop shorter neighbors within min_distance.
    for (std::size_t q = p; q-- > 0;) {
      if (peaks[p] - peaks[q] >= min_distance) break;
      keep[q] = 0;
    }
    for (std::size_t q = p + 1; q < n; ++q) {
      if (peaks[q] - peaks[p] >= min_distance) break;
      keep[q] = 0;
    }
  }
}

void enforce_min_distance(std::span<const double> xs,
                          std::vector<std::size_t>& peaks,
                          std::size_t min_distance) {
  if (min_distance <= 1 || peaks.size() < 2) return;
  // Scratch is thread-local so steady-state callers stop paying per-call
  // allocations once the high-water capacity is reached.
  thread_local std::vector<std::size_t> by_height;
  thread_local std::vector<unsigned char> keep;
  choose_min_distance(
      peaks, min_distance, [&](std::size_t k) { return xs[peaks[k]]; },
      by_height, keep);
  // In-place compaction of the survivors (stable).
  std::size_t w = 0;
  for (std::size_t i = 0; i < peaks.size(); ++i)
    if (keep[i] != 0) peaks[w++] = peaks[i];
  // ptrack-lint: allow(alloc) shrinks in place; resize never grows here
  peaks.resize(w);
}

}  // namespace

void find_peaks_into(std::span<const double> xs, const PeakOptions& opt,
                     std::vector<std::size_t>& out) {
  raw_maxima_into(xs, out);

  if (opt.min_height > -1e300) {
    std::erase_if(out, [&](std::size_t i) { return xs[i] < opt.min_height; });
  }
  if (opt.min_prominence > 0.0) {
    std::erase_if(out, [&](std::size_t i) {
      return prominence_of(xs, i) < opt.min_prominence;
    });
  }
  enforce_min_distance(xs, out, opt.min_distance);
}

std::vector<std::size_t> find_peaks(std::span<const double> xs,
                                    const PeakOptions& opt) {
  std::vector<std::size_t> peaks;
  find_peaks_into(xs, opt, peaks);
  return peaks;
}

void find_valleys_into(std::span<const double> xs, const PeakOptions& opt,
                       std::vector<std::size_t>& out) {
  thread_local std::vector<double> neg;
  // ptrack-lint: allow(alloc) per-thread scratch; steady capacity
  neg.resize(xs.size());
  simd::negate(xs, neg);
  find_peaks_into(neg, opt, out);
}

std::vector<std::size_t> find_valleys(std::span<const double> xs,
                                      const PeakOptions& opt) {
  std::vector<std::size_t> valleys;
  find_valleys_into(xs, opt, valleys);
  return valleys;
}

void zero_crossings_into(std::span<const double> xs, double hysteresis,
                         std::vector<std::size_t>& out) {
  out.clear();
  if (xs.empty()) return;
  // State: +1 after confirmed positive excursion, -1 after negative,
  // 0 unknown. The hysteresis only *gates* a crossing; the reported index
  // is the actual sign-change sample, found by backtracking — otherwise
  // crossings would be reported systematically late by the confirmation
  // delay, which matters for critical-point matching.
  int state = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double v = xs[i];
    const int side = v > hysteresis ? 1 : v < -hysteresis ? -1 : 0;
    if (side == 0 || side == state) continue;
    if (state != 0) {
      std::size_t cross = i;
      while (cross > 0 &&
             (side > 0 ? xs[cross - 1] >= 0.0 : xs[cross - 1] <= 0.0)) {
        --cross;
      }
      // ptrack-lint: allow(alloc) grows caller scratch; steady capacity
      out.push_back(cross);
    }
    state = side;
  }
}

std::vector<std::size_t> zero_crossings(std::span<const double> xs,
                                        double hysteresis) {
  std::vector<std::size_t> out;
  zero_crossings_into(xs, hysteresis, out);
  return out;
}

double peak_prominence(std::span<const double> xs, std::size_t peak) {
  return prominence_of(xs, peak);
}

void find_extrema_into(std::span<const double> xs, const PeakOptions& opt,
                       std::vector<Extremum>& out) {
  thread_local std::vector<std::size_t> maxima;
  thread_local std::vector<std::size_t> minima;
  find_peaks_into(xs, opt, maxima);
  find_valleys_into(xs, opt, minima);
  out.clear();
  // ptrack-lint: push-allow(alloc) grows caller scratch; steady capacity
  out.reserve(maxima.size() + minima.size());
  for (std::size_t i : maxima) out.push_back({i, true, xs[i]});
  for (std::size_t i : minima) out.push_back({i, false, xs[i]});
  // ptrack-lint: pop-allow(alloc)
  std::sort(out.begin(), out.end(),
            [](const Extremum& a, const Extremum& b) { return a.index < b.index; });
}

std::vector<Extremum> find_extrema(std::span<const double> xs,
                                   const PeakOptions& opt) {
  std::vector<Extremum> out;
  find_extrema_into(xs, opt, out);
  return out;
}


PeakTracker::PeakTracker(const PeakOptions& opt) : opt_(opt) {
  // A streaming hop holds a few seconds of pending maxima; 256 entries
  // clear that with headroom, so steady-state hops never reallocate.
  pending_.reserve(256);
  contest_.reserve(256);
  contest_heights_.reserve(256);
  by_height_.reserve(256);
  keep_.reserve(256);
}

void PeakTracker::walk_right(Pending& p, std::span<const double> xs,
                             std::size_t origin) const {
  const std::size_t end = origin + xs.size();
  double m = p.right_min;
  std::size_t k = p.walk;
  for (; k < end; ++k) {
    const double v = xs[k - origin];
    m = std::min(m, v);
    if (v > p.height) {
      p.closed = true;
      ++k;
      break;
    }
  }
  p.walk = k;
  p.right_min = m;
  const double prominence = p.height - std::max(p.left_min, m);
  p.prominent = opt_.min_prominence <= 0.0 ||
                !(prominence < opt_.min_prominence);
}

void PeakTracker::advance(std::span<const double> xs, std::size_t origin,
                          std::size_t accept_to,
                          std::vector<std::size_t>& out) {
  const std::size_t end = origin + xs.size();
  const auto at = [&](std::size_t i) { return xs[i - origin]; };
  // Maxima behind the origin left the caller's retention; a scan position
  // there restarts at the origin, as a fresh find_peaks over xs would.
  std::erase_if(pending_, [&](const Pending& p) { return p.index < origin; });
  if (!started_ || next_ < origin + 1) {
    next_ = origin + 1;
    started_ = true;
  }

  // Raw maxima in the new tail (raw_maxima_into, resumable): a plateau
  // that reaches the signal end waits for the sample that closes it.
  std::size_t i = next_;
  while (i + 1 < end) {
    if (at(i) > at(i - 1)) {
      std::size_t j = i;
      while (j + 1 < end && at(j + 1) == at(i)) ++j;
      if (j + 1 == end) break;
      const std::size_t peak = (i + j) / 2;
      const double h = at(peak);
      const bool tall_enough =
          !(opt_.min_height > -1e300 && h < opt_.min_height);
      if (at(j + 1) < at(i) && tall_enough) {
        Pending p;
        p.index = peak;
        p.height = h;
        p.left_min = simd::min_until_greater_bwd(xs.first(peak - origin), h);
        p.right_min = h;
        p.walk = peak + 1;
        // ptrack-lint: allow(alloc) bounded by the ctor's reserve(256)
        pending_.push_back(p);
      }
      i = j + 1;
    } else {
      ++i;
    }
  }
  next_ = i;

  for (Pending& p : pending_) {
    if (!p.prominent && !p.closed) walk_right(p, xs, origin);
  }
  std::erase_if(pending_,
                [](const Pending& p) { return p.closed && !p.prominent; });

  // The min-distance choice among the last finalized peak (it can no
  // longer lose its place, but a taller newcomer still beats it) and the
  // prominent pending maxima.
  contest_.clear();
  contest_heights_.clear();
  // ptrack-lint: push-allow(alloc) bounded by the ctor's reserve(256)
  if (have_last_) {
    contest_.push_back(last_index_);
    contest_heights_.push_back(last_height_);
  }
  for (const Pending& p : pending_) {
    if (!p.prominent) continue;
    contest_.push_back(p.index);
    contest_heights_.push_back(p.height);
  }
  // ptrack-lint: pop-allow(alloc)
  choose_min_distance(
      contest_, opt_.min_distance,
      [&](std::size_t k) { return contest_heights_[k]; }, by_height_, keep_);

  for (std::size_t k = have_last_ ? 1 : 0; k < contest_.size(); ++k) {
    if (contest_[k] >= accept_to) break;
    if (keep_[k] == 0) continue;
    // ptrack-lint: allow(alloc) caller-owned peak list, steady capacity
    out.push_back(contest_[k]);
    last_index_ = contest_[k];
    last_height_ = contest_heights_[k];
    have_last_ = true;
  }
  if (have_last_) {
    std::erase_if(pending_,
                  [&](const Pending& p) { return p.index <= last_index_; });
  }
}

}  // namespace ptrack::dsp
