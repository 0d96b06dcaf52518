#include "core/ptrack.hpp"

#include "common/error.hpp"
#include "core/stages.hpp"
#include "imu/sample_ring.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ptrack::core {

PTrack::PTrack(PTrackConfig cfg) : cfg_(cfg) {
  // Construct-and-discard to validate the configuration eagerly (streak,
  // delta, profile bounds), matching the pre-stage-graph behaviour where
  // the counter and estimator members were built here.
  (void)GaitIdentifier(cfg_.counter);
  (void)StrideEstimator(cfg_.stride);
}

void PTrack::set_profile(const StrideProfile& profile) {
  cfg_.stride.profile = profile;
}

TrackResult PTrack::process(const imu::Trace& trace) const {
  if (trace.size() < 16) return {};
  PTRACK_OBS_SPAN("ptrack.core.process");
  PTRACK_COUNT("ptrack.core.traces");
  obs::StageTimer timer;
  if (!cfg_.quality.enabled) return run_pipeline(trace, nullptr);

  const imu::QualityResult repaired =
      imu::assess_and_repair(trace, cfg_.quality);
  const double quality_us = timer.lap_us();
  if (!repaired.report.usable) {
    PTRACK_COUNT("ptrack.core.unusable_traces");
    throw Error("PTrack::process: trace unusable (" +
                std::to_string(repaired.report.nonfinite_samples) + " of " +
                std::to_string(trace.size()) +
                " samples non-finite or nonphysical)");
  }
  // The pipeline's assembler reads per-sample flags off the ring, so cycle
  // and event confidences come out already annotated (identical arithmetic
  // to QualityReport::fraction_flagged / fraction_masked).
  TrackResult result = run_pipeline(repaired.trace, &repaired.report.flags);

  const imu::QualityReport& report = repaired.report;
  result.quality.clean_fraction = report.clean_fraction;
  result.quality.repaired_fraction = report.repaired_fraction;
  result.quality.masked_fraction = report.masked_fraction;
  result.quality.dropout_samples = report.dropout_samples;
  result.quality.saturated_samples = report.saturated_samples;
  result.quality.spike_samples = report.spike_samples;
  result.quality.nonfinite_samples = report.nonfinite_samples;
  result.timing.quality_us = quality_us;
  result.timing.total_us = quality_us + timer.lap_us();
  return result;
}

TrackResult PTrack::run_pipeline(
    const imu::Trace& trace, const std::vector<std::uint8_t>* flags) const {
  if (trace.size() < 16) return {};
  check(flags == nullptr || flags->size() == trace.size(),
        "PTrack: one quality flag per sample");
  imu::SampleRing ring;
  const std::vector<imu::Sample>& samples = trace.samples();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ring.push(samples[i], flags ? (*flags)[i] : 0);
  }
  // One push + one flush over a fresh pipeline = the batch computation
  // (see core/stages.hpp for the equivalence contract).
  StagePipeline pipeline(cfg_.counter, cfg_.stride, trace.fs(), &workspace_);
  pipeline.advance(ring, /*flush=*/true);

  TrackResult result;
  result.events = pipeline.take_events();
  result.cycles = pipeline.take_cycles();
  result.steps = result.events.size();
  const StageStats& stats = pipeline.stats();
  result.timing.project_us = stats.project_us;
  result.timing.segment_us = stats.segment_us;
  result.timing.classify_us = stats.classify_us;
  result.timing.count_us = stats.count_us;
  result.timing.stride_us = stats.stride_us;
  result.timing.total_us =
      stats.project_us + stats.count_us + stats.stride_us;
  return result;
}

PTrackCounterAdapter::PTrackCounterAdapter(PTrackConfig cfg)
    : tracker_(cfg) {}

models::StepDetection PTrackCounterAdapter::count_steps(
    const imu::Trace& trace) {
  expects(trace.fs() > 0.0, "count_steps: trace has a sample rate");
  const TrackResult result = tracker_.process(trace);
  models::StepDetection out;
  out.count = result.steps;
  out.step_times.reserve(result.events.size());
  for (const StepEvent& e : result.events) out.step_times.push_back(e.t);
  return out;
}

}  // namespace ptrack::core
