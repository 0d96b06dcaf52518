// Cohort-scale batch execution of the PTrack pipeline.
//
// Related wearable studies process thousands of independent wrist traces
// through one DSP front end (Urbanek et al.; Straczkiewicz et al.) — the
// workload this runner serves. Each executor owns a private core::PTrack
// instance (and therefore a private dsp::Workspace), traces are fanned out
// dynamically, and results come back in input order.
//
// Since the scheduler refactor (DESIGN.md §18) the runner is a thin
// deterministic wrapper over Scheduler::parallel_for on the THROUGHPUT
// lane: batch traces never delay latency-lane streaming hops sharing the
// same scheduler, and the claimer design re-checks the latency lane
// between consecutive traces.
//
// Fault isolation: one bad trace must not abort the other ten thousand.
// Every per-trace failure — a malformed file at load time, an exception
// out of the pipeline at process time — is captured as a value
// (Expected<TrackResult, TraceError>) attributed to its trace, and the
// batch completes. Worker-thread exceptions never escape the scheduler.
//
// Determinism: PTrack::process is a pure function of the input trace, and
// no state is shared between executors, so the result vector is
// bit-identical regardless of thread count or scheduling (validated by
// tests/test_runtime_batch and test_runtime_scheduler).

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/expected.hpp"
#include "core/ptrack.hpp"
#include "imu/trace.hpp"
#include "runtime/scheduler.hpp"

namespace ptrack::runtime {

/// One trace's failure, attributed to where it happened.
struct TraceError {
  enum class Stage {
    Load,     ///< the file could not be read or parsed
    Process,  ///< the pipeline rejected or crashed on the trace
  };
  Stage stage = Stage::Process;
  std::string trace;    ///< file name or batch index ("#7") of the trace
  std::string message;  ///< the underlying exception's message
};

[[nodiscard]] std::string_view to_string(TraceError::Stage s);

/// Per-trace outcome of a batch run.
using TraceResult = Expected<core::TrackResult, TraceError>;

struct BatchOptions {
  /// Worker threads; 0 = one per hardware thread. Ignored when
  /// `scheduler` is set.
  std::size_t threads = 0;

  /// Borrow an existing scheduler instead of owning one — the mixed-load
  /// configuration where batch sweeps and streaming hops share cores.
  /// Must outlive the BatchRunner; batch work goes to its throughput
  /// lane.
  Scheduler* scheduler = nullptr;

  /// When false, run() only dispatches and waits: the calling thread
  /// claims no traces itself (for control threads with other duties, e.g.
  /// a daemon looping rebuilds next to live ingest). Ignored when the
  /// scheduler has no workers — someone has to run the traces.
  bool caller_participates = true;
};

/// Fans independent traces across the scheduler's throughput lane through
/// the full PTrack pipeline.
class BatchRunner {
 public:
  explicit BatchRunner(core::PTrackConfig cfg = {}, BatchOptions opt = {});

  /// Executors a batch runs on: scheduler workers plus the calling thread.
  [[nodiscard]] std::size_t threads() const { return sched().workers() + 1; }
  [[nodiscard]] const core::PTrackConfig& config() const { return cfg_; }

  /// Processes every trace; results[i] corresponds to traces[i]. A trace
  /// whose processing throws yields a TraceError in its slot (stage
  /// Process, trace "#i"); the remaining traces still complete.
  std::vector<TraceResult> run(const std::vector<imu::Trace>& traces);

 private:
  [[nodiscard]] Scheduler& sched() const {
    return borrowed_ != nullptr ? *borrowed_ : *owned_;
  }

  core::PTrackConfig cfg_;
  std::unique_ptr<Scheduler> owned_;  ///< null when borrowing
  Scheduler* borrowed_ = nullptr;
  bool caller_participates_ = true;
};

/// A trace tagged with the file it came from.
struct NamedTrace {
  std::string name;  ///< file name without directory
  imu::Trace trace;
};

/// Outcome of loading a trace directory: the traces that parsed, plus one
/// TraceError (stage Load) per file that did not.
struct TraceDirListing {
  std::vector<NamedTrace> traces;
  std::vector<TraceError> errors;
};

/// Loads every `.csv` file in `dir` (imu::load_csv format), sorted by file
/// name so batch runs are reproducible across platforms. Unreadable or
/// malformed files are collected into `errors` instead of aborting the
/// batch. Throws ptrack::Error only when the directory itself cannot be
/// read.
///
/// Files are parsed in parallel on min(`threads`, files) executors, the
/// calling thread included (`threads` as in BatchOptions: 0 = one per
/// hardware thread). The listing is the same at every thread count.
TraceDirListing load_trace_dir(const std::string& dir,
                               std::size_t threads = 0);

/// load_trace_dir on the throughput lane of `sched`, whose executors and
/// the calling thread parse the files. A process that loads repeatedly
/// (or loads and then runs a BatchRunner borrowing `sched`) starts no
/// threads per call, so with obs on no new span rings pile up either.
TraceDirListing load_trace_dir(const std::string& dir, Scheduler& sched);

/// Samples load_trace_dir reserves for the file at `path`: one per line
/// (newlines + 1), but never more than its bytes could hold as rows of
/// "0,0,0,0,0,0,0\n" or than the trace layer accepts, so a hostile file
/// cannot make the reservation outgrow 4x its own size. Reads the file once
/// and counts newlines with dsp::simd::count_byte; an unreadable file gets
/// none, and its load reports why.
[[nodiscard]] std::size_t sample_reservation(const std::string& path);

}  // namespace ptrack::runtime
