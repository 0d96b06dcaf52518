#include "core/streaming.hpp"

#include <algorithm>
#include <cmath>

#include "common/alloc_hooks.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ptrack::core {

namespace {

// Validated before any member that consumes fs is constructed (the stage
// pipeline is built in the member-init list).
double validated_fs(double fs, const StreamingConfig& config) {
  expects(fs > 0.0, "StreamingTracker: fs > 0");
  expects(config.hop_s > 0.0, "StreamingTracker: hop_s > 0");
  expects(config.guard_s > 0.0, "StreamingTracker: guard_s > 0");
  expects(config.window_s > 2.0 * config.guard_s,
          "StreamingTracker: window_s > 2 * guard_s");
  return fs;
}

}  // namespace

// ptrack-lint: allow(entry-check) fs validated by validated_fs() below
StreamingTracker::StreamingTracker(double fs, StreamingConfig config)
    : fs_(validated_fs(fs, config)),
      config_(config),
      pipe_(config.pipeline.counter, config.pipeline.stride, fs, &workspace_),
      hop_samples_(std::max<std::size_t>(
          1, static_cast<std::size_t>(config.hop_s * fs))),
      pipeline_(config.pipeline) {
  if (config_.mode == StreamingConfig::Mode::kIncremental &&
      config_.pipeline.quality.enabled) {
    quality_.emplace(fs_, config_.pipeline.quality);
    repair_buf_.reserve(quality_->latency_bound() + 1);
  }
}

void StreamingTracker::push(const imu::Sample& sample) {
  PTRACK_CHECK_MSG(samples_since_hop_ < hop_samples_,
                   "StreamingTracker::push: hop cadence invariant");
  imu::Sample s = sample;
  s.t = next_t_;
  next_t_ += 1.0 / fs_;
  ++samples_pushed_;

  if (config_.mode == StreamingConfig::Mode::kRecompute) {
    push_recompute(s);
    return;
  }

  // Incremental: route through the online quality stage (which holds a
  // bounded tail back until each sample's fate is decided) into the ring.
  if (quality_) {
    repair_buf_.clear();
    quality_->push(s, repair_buf_);
    for (const imu::RepairedSample& r : repair_buf_) {
      ring_.push(r.sample, r.flags);
    }
  } else {
    ring_.push(s, 0);
  }

  if (++samples_since_hop_ >= hop_samples_) {
    samples_since_hop_ = 0;
    run_hop(/*flush=*/false);
  }
}

void StreamingTracker::push(const imu::Trace& trace) {
  expects(std::abs(trace.fs() - fs_) <= 1e-9 * fs_,
          "StreamingTracker::push: trace sample rate matches the tracker "
          "(resample first)");
  for (const imu::Sample& s : trace.samples()) push(s);
}

void StreamingTracker::run_hop(bool flush) {
  PTRACK_CHECK_MSG(ring_.base() <= pipe_.min_required_index(),
                   "StreamingTracker::run_hop: pipeline context retained");
  PTRACK_OBS_SPAN("ptrack.streaming.window");
  ++windows_processed_;
  PTRACK_COUNT("ptrack.core.streaming.windows");

  // Steady-state allocation discipline: every incremental (non-flush) hop
  // after warm-up runs under a NoAllocScope. By default the scope only
  // counts (visible via alloc::thread_stats()); with enforce_no_alloc and
  // checks enabled, a stray allocation throws at its call site.
  const auto mode = (!flush && warmed_up_ && config_.enforce_no_alloc)
                        ? alloc::NoAllocScope::Mode::kEnforce
                        : alloc::NoAllocScope::Mode::kCount;
  [[maybe_unused]] obs::StageTimer timer;  // unread when obs is compiled out
  {
    alloc::NoAllocScope guard("StreamingTracker::run_hop", mode);
    pipe_.advance(ring_, flush);

    // The assembler finalizes events chronologically and never retracts, so
    // the drained batch appends to ready_ already sorted — no per-hop sort
    // (and no re-sort of everything already pending, as the recompute path
    // once did). Capacity-preserving drains keep the hop allocation-free
    // once ready_ has warmed up.
    pipe_.drain_events(ready_);
    pipe_.discard_cycles();  // streaming exposes events only

    // Bounded memory: drop raw samples no stage will read again.
    ring_.trim_to(std::min(pipe_.min_required_index(), ring_.end()));
  }
  // Outside the no-alloc scope: the first observation registers the metric.
  PTRACK_HIST_US("ptrack.core.streaming.hop_us", timer.lap_us());
  if (flush) warmed_up_ = true;
}

void StreamingTracker::push_recompute(const imu::Sample& s) {
  PTRACK_CHECK_MSG(config_.mode == StreamingConfig::Mode::kRecompute,
                   "StreamingTracker::push_recompute: recompute-mode entry");
  window_.push_back(s);

  // Trim the sliding window.
  const double min_keep = next_t_ - config_.window_s;
  while (!window_.empty() && window_.front().t < min_keep &&
         window_.front().t < emit_frontier_ - config_.guard_s) {
    window_start_t_ = window_.front().t + 1.0 / fs_;
    window_.pop_front();
  }

  if (next_t_ - last_processed_t_ >= config_.hop_s) {
    process_window(next_t_ - config_.guard_s);
    last_processed_t_ = next_t_;
  }
}

void StreamingTracker::process_window(double horizon) {
  PTRACK_CHECK_MSG(std::isfinite(horizon),
                   "StreamingTracker::process_window: finite horizon");
  if (window_.size() < 32) return;
  PTRACK_OBS_SPAN("ptrack.streaming.window");
  ++windows_processed_;
  PTRACK_COUNT("ptrack.core.streaming.windows");

  // Materialize the window as a trace with window-relative timestamps.
  std::vector<imu::Sample> samples(window_.begin(), window_.end());
  const double t0 = samples.front().t;
  for (imu::Sample& s : samples) s.t -= t0;
  const imu::Trace trace(fs_, std::move(samples));

  const TrackResult result = pipeline_.process(trace);
  const std::size_t sorted_prefix = ready_.size();
  for (const StepEvent& e : result.events) {
    const double t_abs = e.t + t0;
    if (t_abs <= emit_frontier_ || t_abs > horizon) continue;
    StepEvent out = e;
    out.t = t_abs;
    ready_.push_back(out);
  }
  // Advance the frontier even when no events landed, so a re-run over the
  // same region cannot re-emit older events with slightly shifted stamps.
  if (horizon > emit_frontier_) emit_frontier_ = horizon;
  // The new events are chronological among themselves (batch order), so a
  // merge at the append boundary suffices — no full re-sort of ready_.
  std::inplace_merge(
      ready_.begin(),
      ready_.begin() + static_cast<std::ptrdiff_t>(sorted_prefix),
      ready_.end(),
      [](const StepEvent& a, const StepEvent& b) { return a.t < b.t; });
}

std::vector<StepEvent> StreamingTracker::poll() {
  std::vector<StepEvent> out;
  out.reserve(ready_.size());
  poll_into(out);
  return out;
}

// ptrack-lint: allow(entry-check) append-only drain; nothing to validate
void StreamingTracker::poll_into(std::vector<StepEvent>& out) {
  out.insert(out.end(), ready_.begin(), ready_.end());
  emitted_steps_ += ready_.size();
  PTRACK_COUNT_N("ptrack.core.streaming.events", ready_.size());
  for (const StepEvent& e : ready_) {
    emitted_distance_ += e.stride;
    emitted_degraded_ += e.degraded ? 1 : 0;
  }
  ready_.clear();
}

// ptrack-lint: allow(entry-check) terminal flush is legal in any state
std::vector<StepEvent> StreamingTracker::finish() {
  std::vector<StepEvent> out;
  out.reserve(ready_.size());
  drain_into(out);
  return out;
}

// ptrack-lint: allow(entry-check) terminal flush is legal in any state
void StreamingTracker::drain_into(std::vector<StepEvent>& out) {
  if (config_.mode == StreamingConfig::Mode::kRecompute) {
    process_window(next_t_ + 1.0);  // flush: no guard
    last_processed_t_ = next_t_;
    poll_into(out);
    return;
  }
  if (quality_) {
    repair_buf_.clear();
    quality_->flush(repair_buf_);
    for (const imu::RepairedSample& r : repair_buf_) {
      ring_.push(r.sample, r.flags);
    }
  }
  run_hop(/*flush=*/true);
  samples_since_hop_ = 0;
  poll_into(out);
}

}  // namespace ptrack::core
