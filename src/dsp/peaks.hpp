// Peak / valley / zero-crossing detection.
//
// These are the primitives behind (a) the classic peak-detection step
// counters PTrack builds on (low-pass -> peaks) and (b) PTrack's
// critical-point extraction (turning points = extrema, crossing points =
// extremum on one axis aligned with a zero on the other).

#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ptrack::dsp {

/// Options for find_peaks().
struct PeakOptions {
  /// Minimum number of samples between two accepted peaks. When two peaks
  /// are closer, the larger one wins.
  std::size_t min_distance = 1;
  /// Absolute height a sample must reach to qualify (-inf disables).
  double min_height = -1e300;
  /// Minimal prominence: height above the higher of the two bounding
  /// valleys within the search range (0 disables).
  double min_prominence = 0.0;
};

/// Indices of local maxima of xs, honoring the options; ascending order.
/// Plateaus report their center sample.
std::vector<std::size_t> find_peaks(std::span<const double> xs,
                                    const PeakOptions& opt = {});

/// Reuse-friendly form: clears and refills `out`. Once `out` (and the
/// thread-local scratch behind the distance filter) has reached its
/// high-water capacity, repeated calls stop touching the heap — this is the
/// variant the steady-state streaming stages use.
void find_peaks_into(std::span<const double> xs, const PeakOptions& opt,
                     std::vector<std::size_t>& out);

/// Indices of local minima (peaks of the negated signal).
std::vector<std::size_t> find_valleys(std::span<const double> xs,
                                      const PeakOptions& opt = {});

/// Reuse-friendly form of find_valleys(); same steady-state contract as
/// find_peaks_into().
void find_valleys_into(std::span<const double> xs, const PeakOptions& opt,
                       std::vector<std::size_t>& out);

/// Indices where the signal crosses zero (sample after the sign change).
/// `hysteresis` requires the excursion on each side to exceed the given
/// magnitude before a new crossing is reported, suppressing noise chatter.
std::vector<std::size_t> zero_crossings(std::span<const double> xs,
                                        double hysteresis = 0.0);

/// Reuse-friendly form of zero_crossings(): clears and refills `out`;
/// allocation-free once `out` has warmed up.
void zero_crossings_into(std::span<const double> xs, double hysteresis,
                         std::vector<std::size_t>& out);

/// One extremum with its kind, used by critical-point analysis.
struct Extremum {
  std::size_t index = 0;
  bool is_max = true;
  double value = 0.0;
};

/// All alternating extrema (maxima and minima interleaved) with prominence
/// and spacing filtering applied per kind.
std::vector<Extremum> find_extrema(std::span<const double> xs,
                                   const PeakOptions& opt = {});

/// Reuse-friendly form of find_extrema(); same steady-state contract as
/// find_peaks_into().
void find_extrema_into(std::span<const double> xs, const PeakOptions& opt,
                       std::vector<Extremum>& out);

/// Prominence of the local maximum at `peak` (see PeakOptions); exposed for
/// counters that post-filter peaks against locally adaptive thresholds.
double peak_prominence(std::span<const double> xs, std::size_t peak);

/// find_peaks over a signal that grows at its right end, carrying its
/// decisions across calls so each call examines only what is new: raw
/// maxima past the last scan position, the prominence walks still open and
/// the min-distance choice among the peaks not yet finalized.
///
/// Indices are absolute. Each advance() sees the signal over
/// [origin, origin + xs.size()); the origin may move right between calls
/// (the caller's retention floor) but the right end never shrinks.
/// Prominence walks stop at the origin on the left, as find_peaks stops at
/// its span's start. A maximum's prominence is final once it reaches
/// min_prominence or its right walk meets a taller sample; until then it
/// counts as not prominent. advance() finalizes the peaks left of
/// `accept_to` that win the min-distance choice among the last finalized
/// peak and the prominent pending ones; pending maxima at or before the
/// last finalized peak are dropped, so finalized output never changes.
///
/// One advance over a whole signal with accept_to = its end returns
/// exactly find_peaks(xs, opt), ties included: the pending list is the
/// same prominent maxima in the same order, and the min-distance choice is
/// the same sort over it.
class PeakTracker {
 public:
  explicit PeakTracker(const PeakOptions& opt);

  /// Scans the signal's new tail and appends the newly finalized peaks
  /// (ascending, each exactly once) to `out`.
  void advance(std::span<const double> xs, std::size_t origin,
               std::size_t accept_to, std::vector<std::size_t>& out);

 private:
  struct Pending {
    std::size_t index = 0;
    double height = 0.0;
    double left_min = 0.0;   ///< left walk's minimum (final at discovery)
    double right_min = 0.0;  ///< right walk's minimum so far
    std::size_t walk = 0;    ///< next sample of the open right walk
    bool prominent = false;  ///< prominence reached; walk closed
    bool closed = false;     ///< right walk met a taller sample
  };

  /// Extends p's right walk to the signal end; settles `prominent`.
  void walk_right(Pending& p, std::span<const double> xs,
                  std::size_t origin) const;

  PeakOptions opt_;
  std::size_t next_ = 0;  ///< where the raw-maxima scan resumes
  bool started_ = false;
  std::vector<Pending> pending_;  ///< undecided or prominent, by index
  bool have_last_ = false;
  std::size_t last_index_ = 0;  ///< last finalized peak
  double last_height_ = 0.0;
  // Min-distance choice scratch (kept across calls for its capacity).
  std::vector<std::size_t> contest_;
  std::vector<double> contest_heights_;
  std::vector<std::size_t> by_height_;
  std::vector<unsigned char> keep_;
};

}  // namespace ptrack::dsp
