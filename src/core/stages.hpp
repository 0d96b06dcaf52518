// Incremental stage graph: the shared zero-copy core behind batch and
// streaming PTrack.
//
// The pipeline of Fig. 2 is decomposed into three stateful stages that
// carry their state across push/advance hops instead of recomputing the
// whole window:
//
//   imu::SampleRing --(spans)--> ProjectionStage --> SegmentationStage
//                                      |                   |
//                                  projected rings     CycleCandidates
//                                      |                   v
//                                      +----------> EventAssembler --> events
//
// Every stage reads its input through `std::span` views over rings
// addressed by *absolute* sample indices (imu::SampleRing, Ring<double>)
// and carries its state across hops, so a hop touches only the new samples
// plus a bounded finalization margin — no per-hop window materialization,
// no O(window) recompute.
//
// Batch-oracle contract: driving a fresh StagePipeline with one push of
// the whole trace and a single advance(flush = true) degenerates every
// stage to exactly the batch computation (one projection of the whole
// trace through one forward and one reverse filter pass, one peak scan,
// the same pairing / classification / stride / fill / median sequence over
// complete data). The batch facade (PTrack::process) runs this way, so
// batch results are bit-stable by construction and the streaming mode's
// hop-wise results are validated against them
// (tests/test_streaming_equivalence.cpp).
//
// Incremental finalization: zero-phase filtering and prominence-based peak
// detection are non-causal, so each stage keeps a margin between the data
// frontier and what it finalizes:
//   - ProjectionStage projects each hop's new raw samples once, with that
//     hop's pinned axes, and carries the low-pass cascade's forward state
//     over them. Only the reverse pass needs right context: it runs from
//     the odd-reflection pad past the raw frontier (filtered forward from a
//     copy of the carried state) back to the finalized frontier, and
//     finalizes output `kProjectionMarginS` behind the newest sample (the
//     reverse pass's settling distance);
//   - SegmentationStage carries a dsp::PeakTracker (raw-maxima scan
//     position, open prominence walks, pending min-distance choice) and
//     accepts new peaks only `kSegmentationMarginS` behind the projected
//     frontier (covers the min-distance suppression window and prominence
//     walks); walks reach back at most `kSegmentationLookbackS` before the
//     accept frontier;
//   - EventAssembler withholds cycles in an open stepping streak
//     (<= streak-1) and events whose median-smoothing window is still
//     open (<= smooth_window/2 future events).
// Finalized output is never retracted.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/ring.hpp"
#include "core/frontend.hpp"
#include "core/gait_id.hpp"
#include "core/segmentation.hpp"
#include "core/stride_estimator.hpp"
#include "core/types.hpp"
#include "dsp/aligned.hpp"
#include "dsp/attitude.hpp"
#include "dsp/filtfilt.hpp"
#include "dsp/peaks.hpp"
#include "dsp/simd.hpp"
#include "dsp/workspace.hpp"
#include "imu/sample_ring.hpp"

namespace ptrack::core {

/// Finalization margins (s). See the header comment for what each covers.
inline constexpr double kProjectionMarginS = 2.5;
/// Trailing raw-history window (s) the projection estimates its up /
/// anterior axes over when advancing incrementally. Axes fit only to one
/// hop's samples would wander with local gestures (and flip borderline
/// offset tests); 20 s matches the legacy recompute window, so the
/// incremental mode's axis stability is no worse than the sliding window
/// it replaced. A hop pins the axes with dsp::AxisEstimator's closed form,
/// O(window) dot and moment sums over the history with no filtering
/// (DESIGN.md §14). A batch flush projects the whole trace at once, never
/// pins, and takes the batch estimate exactly.
inline constexpr double kProjectionAxisWindowS = 20.0;
inline constexpr double kSegmentationLookbackS = 5.0;
inline constexpr double kSegmentationMarginS = 1.8;

/// Cumulative per-stage wall-clock cost (µs); zeros when obs is disabled.
struct StageStats {
  double project_us = 0.0;   ///< projection + filtering
  double segment_us = 0.0;   ///< peak tracking + cycle pairing
  double classify_us = 0.0;  ///< cycle analysis + gait classification
  double count_us = 0.0;     ///< segment_us + classify_us
  double stride_us = 0.0;    ///< stride estimation, fill and smoothing
  std::size_t advances = 0;  ///< pipeline hops driven
};

/// Projects the raw stream into band-limited vertical/anterior channels,
/// finalizing samples `kProjectionMarginS` behind the raw frontier. The
/// finalized channels accumulate in absolute-indexed rings aligned with the
/// raw ring's index space.
class ProjectionStage {
 public:
  ProjectionStage(const StepCounterConfig& cfg, double fs, dsp::Workspace* ws);

  /// Advances the projected frontier over `ring`; flush finalizes up to the
  /// raw frontier. Appends only — previously finalized samples never change.
  void advance(const imu::SampleRing& ring, bool flush);

  [[nodiscard]] const Ring<double>& vertical() const { return vert_; }
  [[nodiscard]] const Ring<double>& anterior() const { return ant_; }
  /// One past the newest finalized projected sample (absolute).
  [[nodiscard]] std::size_t frontier() const { return vert_.end(); }
  /// Earliest *raw* absolute index the next advance will read.
  [[nodiscard]] std::size_t min_required() const;
  /// Drops projected samples below `new_base` (downstream consumers done).
  void trim_projected(std::size_t new_base);

  [[nodiscard]] double fs() const { return fs_; }

 private:
  /// Projects raw [projected_, end) and appends it to `work`, the open
  /// region's forward output, through the forward cascade.
  void project_new(const imu::SampleRing& ring, std::size_t end,
                   dsp::AlignedVector<double>& work);
  /// Right pad + reverse pass over `work`; finalizes [vert_.end(), target)
  /// and carries the forward output behind `target` to the next hop.
  void finalize(std::size_t target, dsp::AlignedVector<double>& work);
  /// Appends `fresh` to `tail`, keeping its last pad_ + 1 values.
  void keep_tail(std::vector<double>& tail,
                 std::span<const double> fresh) const;
  /// The hop's axes, fit to the trailing raw history ending at `end`: the
  /// closed-form estimate, or in attitude mode the up track's mean; the
  /// windowed anterior mode fits its direction to the last window only.
  dsp::WindowAxes pin_axes(const imu::SampleRing& ring, std::size_t end);

  StepCounterConfig cfg_;
  double fs_;
  dsp::Workspace* ws_;
  std::size_t margin_;       ///< finalization margin (samples)
  std::size_t axis_window_;  ///< axis-estimation history (samples)

  Ring<double> vert_;
  Ring<double> ant_;
  ProjectionSeam seam_{};
  dsp::AxisEstimator axes_;  ///< closed-form pinned axes over axis_window_

  // Carried low-pass state. The first projection fixes the reflection pad
  // (kProjectionFilterPad, clamped to its length - 1, as in the batch
  // filter) and runs the left pad through the forward cascade.
  dsp::ZeroPhaseLanes lowpass_;
  dsp::simd::CascadeState forward_{};
  std::size_t pad_ = 0;
  std::size_t projected_ = 0;  ///< raw samples projected (absolute end)
  bool started_ = false;
  // The last pad_ + 1 unfiltered samples, for the right pad's reflection.
  std::vector<double> tail_vert_;
  std::vector<double> tail_ant_;
  // Forward-filtered [frontier(), projected_) between hops,
  // kIirLanes-interleaved (lane 0 vertical, 1 anterior).
  dsp::AlignedVector<double> carry_;

  // Attitude-filter mode: per-sample up track, fed causally.
  Ring<Vec3> ups_;
  dsp::AttitudeEstimator attitude_{};
};

/// Finds step peaks over the finalized projected vertical channel and pairs
/// them into candidate cycles, carrying the peak list and the pairing index
/// across hops. Candidates are emitted exactly once, in order.
class SegmentationStage {
 public:
  SegmentationStage(const StepCounterConfig& cfg, double fs);

  /// Scans newly finalized projected samples; appends newly finalized
  /// candidate cycles to `out` (absolute indices).
  void advance(const Ring<double>& vertical, bool flush,
               std::vector<CycleCandidate>& out);

  /// Earliest projected absolute index the next advance will read.
  [[nodiscard]] std::size_t min_required() const;

 private:
  StepCounterConfig cfg_;
  double fs_;
  std::size_t lookback_;  ///< prominence-walk reach behind the accept frontier
  std::size_t margin_;    ///< peak finalization margin (samples)

  dsp::PeakTracker tracker_;
  std::vector<std::size_t> peaks_;  ///< finalized peaks awaiting pairing
  std::size_t pair_index_ = 0;      ///< batch pairing loop index into peaks_
  std::size_t scan_floor_ = 0;  ///< monotone lower bound of the scan region
};

/// Classifies candidate cycles, confirms withheld stepping streaks,
/// estimates per-step strides and finalizes events once their median
/// smoothing window closes. Mirrors the batch StepCounter + PTrack stride
/// fill exactly (same classification state machine, same fill and
/// moving-median arithmetic).
class EventAssembler {
 public:
  EventAssembler(const StepCounterConfig& counter_cfg,
                 const StrideConfig& stride_cfg, double fs);

  void set_profile(const StrideProfile& profile);

  /// Consumes newly finalized candidates; `vertical`/`anterior` are the
  /// projection stage's rings, `raw` supplies per-sample quality flags.
  /// Per-stage costs are accumulated into `stats` (classify vs stride).
  void advance(std::span<const CycleCandidate> fresh,
               const Ring<double>& vertical, const Ring<double>& anterior,
               const imu::SampleRing& raw, bool flush, StageStats* stats);

  /// Drains finalized events (chronological; each exactly once).
  std::vector<StepEvent> take_events();
  /// Drains finalized cycle records (candidate order; each exactly once).
  std::vector<CycleRecord> take_cycles();

  /// Appends finalized events to `out` and clears the internal buffer
  /// *keeping its capacity* — the steady-state form (take_events hands the
  /// buffer away, so the next hop re-grows it from nothing).
  void drain_events(std::vector<StepEvent>& out);
  /// Discards finalized cycle records, keeping the buffer capacity (for
  /// consumers that only want events).
  void discard_cycles() { cycles_out_.clear(); }

  /// Earliest absolute index still needed (withheld cycles' channel spans
  /// and quality flags); SIZE_MAX when nothing is pending.
  [[nodiscard]] std::size_t min_required() const;

 private:
  void resolve_withheld_interference();
  void confirm(CycleRecord record, const Ring<double>& vertical,
               const Ring<double>& anterior, const imu::SampleRing& raw);
  void finalize_events(bool flush);
  [[nodiscard]] double smoothed_stride(std::size_t i,
                                       std::size_t n_total) const;

  StepCounterConfig ccfg_;
  StrideConfig scfg_;
  double fs_;
  GaitIdentifier identifier_;
  StrideEstimator estimator_;

  // Candidate bookkeeping (mirrors StepCounter::process_projected).
  std::size_t prev_end_ = 0;
  bool have_prev_ = false;
  std::vector<CycleRecord> withheld_;  ///< open streak, <= streak-1 entries

  // Pending events: created at confirmation, finalized when their stride
  // fill and smoothing window are stable. Both rings are indexed by
  // absolute event number (one stride per event, = the batch post-fill
  // sequence); pending_events_ retains [events_final_, events_created_).
  Ring<StepEvent> pending_events_;
  Ring<double> fills_;
  std::size_t events_created_ = 0;
  std::size_t events_final_ = 0;
  bool seen_positive_ = false;
  double last_positive_ = 0.0;
  std::size_t eff_window_;  ///< effective (odd) median window, 1 = off
  std::size_t half_;

  std::vector<StepEvent> events_out_;
  std::vector<CycleRecord> cycles_out_;
  mutable std::vector<double> median_scratch_;  ///< smoothing window reuse
};

/// The three stages wired together over one raw ring. One instance serves
/// either a whole batch trace (single flush advance) or a live stream
/// (hop-wise advances); see the header comment for the equivalence
/// contract.
class StagePipeline {
 public:
  StagePipeline(const StepCounterConfig& counter_cfg,
                const StrideConfig& stride_cfg, double fs, dsp::Workspace* ws);

  void set_profile(const StrideProfile& profile);

  /// Runs every stage over the ring's new tail. With flush, finalizes all
  /// margins (stream end or batch completion; streaming may continue
  /// afterwards).
  void advance(const imu::SampleRing& ring, bool flush);

  std::vector<StepEvent> take_events() { return assembler_.take_events(); }
  std::vector<CycleRecord> take_cycles() { return assembler_.take_cycles(); }

  /// Capacity-preserving drains (see EventAssembler): the streaming hot
  /// path uses these so a hop never hands buffer capacity away.
  void drain_events(std::vector<StepEvent>& out) {
    assembler_.drain_events(out);
  }
  void discard_cycles() { assembler_.discard_cycles(); }

  /// Earliest raw absolute index any stage will still read: the caller may
  /// trim_to() its SampleRing to this after draining.
  [[nodiscard]] std::size_t min_required_index() const;

  [[nodiscard]] const StageStats& stats() const { return stats_; }
  [[nodiscard]] double fs() const { return projection_.fs(); }

 private:
  ProjectionStage projection_;
  SegmentationStage segmentation_;
  EventAssembler assembler_;
  StageStats stats_;
  std::vector<CycleCandidate> fresh_;  ///< per-advance scratch
};

}  // namespace ptrack::core
