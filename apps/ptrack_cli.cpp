// ptrack_cli — run the PTrack pipeline over recorded traces.
//
// Single-trace mode:
//   ptrack_cli --input trace.csv --arm 0.72 --leg 0.93 [--json out.json]
//              [--events out.csv] [--self-train-distance 140]
//
// Streaming replay mode:
//   ptrack_cli --input trace.csv --streaming [--hop 2.0]
//
// --streaming replays the trace sample-by-sample through the incremental
// core::StreamingTracker (the smartwatch operating mode) instead of the
// batch facade: events print as they are confirmed, with their emission
// latency behind the simulated stream clock. Same events, same oracle —
// see DESIGN.md "Incremental pipeline architecture".
//
// Batch mode (cohort-scale processing):
//   ptrack_cli --batch traces_dir [--threads 4] [--json out.json] [--strict]
//
// --batch processes every .csv file in the directory (sorted by file name)
// through the multi-threaded runtime::BatchRunner and prints one summary
// line per trace; --threads picks the thread count for loading the files
// and for processing them (0 = one per hardware thread). Results are
// deterministic and independent of the thread count.
// With --json the per-trace summaries (name, steps, distance, quality) are
// written as a JSON object with "traces" and "errors" arrays.
//
// Fault isolation: a trace that fails to load (malformed CSV) or fails in
// the pipeline is skipped and reported; the rest of the batch completes.
// By default the exit code stays 0 and the failures are listed on stderr
// and in the JSON "errors" array. With --strict any per-trace failure
// makes the run exit 2 (after still processing everything), for pipelines
// that must not silently drop subjects.
//
// Observability (both modes): --metrics-out FILE writes a JSON snapshot of
// every pipeline counter/gauge/histogram; --trace-out FILE writes the
// recorded stage spans as Chrome trace_event JSON (open in chrome://tracing
// or Perfetto). With -DPTRACK_OBS=OFF both flags still work but produce
// empty documents. See DESIGN.md "Observability".
//
// The input is the CSV interchange format of imu::save_csv (header
// t,ax,ay,az,gx,gy,gz with a leading metadata row carrying the sample
// rate). With --self-train-distance the arm/leg options are ignored and
// the profile is learned from the trace itself (which must contain gait
// and is treated as a calibration walk of the given length in metres;
// single-trace mode only).

#include <fstream>
#include <iostream>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "core/ptrack.hpp"
#include "core/self_training.hpp"
#include "core/streaming.hpp"
#include "imu/trace_io.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/batch_runner.hpp"

using namespace ptrack;

namespace {

/// Writes the observability outputs requested on the command line: a
/// metrics snapshot (--metrics-out) and a Chrome trace_event document
/// (--trace-out). Called once, after all pipeline work has finished, so no
/// spans are open and the worker threads are quiescent.
void write_obs_outputs(const cli::Args& args) {
  if (args.has("metrics-out")) {
    const std::string path = args.get_string("metrics-out");
    std::ofstream out(path);
    if (!out) throw Error("cannot open " + path);
    obs::write_metrics_document(out);
  }
  if (args.has("trace-out")) {
    const std::string path = args.get_string("trace-out");
    std::ofstream out(path);
    if (!out) throw Error("cannot open " + path);
    obs::write_chrome_trace(out);
    out << '\n';
  }
}

/// Emits a TrackResult's per-stage wall-clock block (all zeros when the
/// observability layer is off). Telemetry, not payload: these are the one
/// run-dependent part of the batch JSON, excluded from the thread-count
/// determinism contract.
void write_timing(json::Writer& w, const core::StageTiming& t) {
  w.key("timing").begin_object();
  w.key("quality_us").value(t.quality_us);
  w.key("project_us").value(t.project_us);
  w.key("count_us").value(t.count_us);
  w.key("stride_us").value(t.stride_us);
  w.key("total_us").value(t.total_us);
  w.end_object();
}

int run_streaming(const cli::Args& args, const core::PTrackConfig& config,
                  const imu::Trace& trace) {
  core::StreamingConfig scfg;
  scfg.pipeline = config;
  scfg.hop_s = args.get_double("hop");
  core::StreamingTracker stream(trace.fs(), scfg);

  const bool quiet = args.get_bool("quiet");
  std::vector<core::StepEvent> events;
  const auto drain = [&](double now) {
    for (const core::StepEvent& e : stream.poll()) {
      if (!quiet) {
        std::cout << "t=" << e.t << " s  " << core::to_string(e.type)
                  << " step, stride " << e.stride << " m (latency "
                  << now - e.t << " s)\n";
      }
      events.push_back(e);
    }
  };
  // Replay sample-by-sample, polling once per simulated second.
  const auto poll_every = static_cast<std::size_t>(trace.fs());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    stream.push(trace[i]);
    if (poll_every > 0 && (i + 1) % poll_every == 0) {
      drain(static_cast<double>(i + 1) / trace.fs());
    }
  }
  for (const core::StepEvent& e : stream.finish()) events.push_back(e);

  const core::StreamingStats stats = stream.stats();
  if (!quiet) {
    std::cout << "streamed: " << trace.duration() << " s @ " << trace.fs()
              << " Hz, " << stats.windows_processed << " hops of "
              << scfg.hop_s << " s\n";
    std::cout << "steps:    " << stream.steps() << "\n";
    std::cout << "distance: " << stream.distance() << " m\n";
    if (stream.degraded_steps() > 0) {
      std::cout << "degraded: " << stream.degraded_steps() << " steps\n";
    }
  }

  if (args.has("events")) {
    std::vector<std::vector<double>> rows;
    rows.reserve(events.size());
    for (const core::StepEvent& e : events) {
      rows.push_back({e.t, e.stride,
                      static_cast<double>(static_cast<int>(e.type))});
    }
    csv::write(args.get_string("events"), {"t", "stride", "type"}, rows);
  }

  if (args.has("json")) {
    std::ofstream out(args.get_string("json"));
    if (!out) throw Error("cannot open " + args.get_string("json"));
    json::Writer w(out);
    w.begin_object();
    w.key("mode").value(std::string("streaming"));
    w.key("hop_s").value(scfg.hop_s);
    w.key("steps").value(stream.steps());
    w.key("distance_m").value(stream.distance());
    w.key("degraded_steps").value(stream.degraded_steps());
    w.key("hops").value(stats.windows_processed);
    w.key("events").begin_array();
    for (const core::StepEvent& e : events) {
      w.begin_object();
      w.key("t").value(e.t);
      w.key("stride").value(e.stride);
      w.key("type").value(std::string(core::to_string(e.type)));
      w.end_object();
    }
    w.end_array();
    w.end_object();
    check(w.complete(), "ptrack_cli: complete JSON document");
    out << '\n';
  }
  write_obs_outputs(args);
  return 0;
}

int run_batch(const cli::Args& args, const core::PTrackConfig& config) {
  const std::string dir = args.get_string("batch");
  const auto threads = static_cast<std::size_t>(args.get_int("threads"));
  // One scheduler loads the files and then runs the batch: its executors
  // (and, with obs on, their span rings) serve both phases.
  runtime::SchedulerOptions so;
  so.workers = runtime::resolve_threads(threads) - 1;
  runtime::Scheduler sched(so);
  runtime::TraceDirListing listing = runtime::load_trace_dir(dir, sched);
  if (listing.traces.empty() && listing.errors.empty()) {
    std::cerr << "ptrack_cli: no .csv traces in " << dir << "\n";
    write_obs_outputs(args);
    return 1;
  }

  std::vector<imu::Trace> traces;
  traces.reserve(listing.traces.size());
  for (auto& nt : listing.traces) traces.push_back(std::move(nt.trace));

  runtime::BatchOptions opt;
  opt.scheduler = &sched;
  runtime::BatchRunner runner(config, opt);
  const auto results = runner.run(traces);

  // Collect every per-trace failure — load-stage errors keep the file name
  // BatchRunner never saw; process-stage errors get theirs attached here.
  std::vector<runtime::TraceError> errors = listing.errors;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].has_value()) continue;
    runtime::TraceError err = results[i].error();
    err.trace = listing.traces[i].name;
    errors.push_back(std::move(err));
  }

  if (!args.get_bool("quiet")) {
    std::cout << "batch:    " << listing.traces.size() << " traces, "
              << runner.threads() << " worker thread(s)\n";
    for (std::size_t i = 0; i < listing.traces.size(); ++i) {
      if (!results[i].has_value()) continue;
      const core::TrackResult& r = *results[i];
      std::cout << listing.traces[i].name << ": " << r.steps << " steps, "
                << r.distance() << " m";
      if (r.quality.degraded()) {
        std::cout << " (degraded: " << r.quality.clean_fraction * 100.0
                  << "% clean, " << r.degraded_steps() << " masked steps)";
      }
      std::cout << "\n";
    }
  }
  for (const runtime::TraceError& err : errors) {
    std::cerr << "ptrack_cli: " << err.trace << ": "
              << runtime::to_string(err.stage) << " error: " << err.message
              << "\n";
  }
  if (!errors.empty()) {
    std::cerr << "ptrack_cli: " << errors.size() << " of "
              << (listing.traces.size() + listing.errors.size())
              << " trace(s) failed"
              << (args.get_bool("strict") ? "" : " (skipped)") << "\n";
  }

  if (args.has("json")) {
    std::ofstream out(args.get_string("json"));
    if (!out) throw Error("cannot open " + args.get_string("json"));
    json::Writer w(out);
    w.begin_object();
    w.key("traces").begin_array();
    for (std::size_t i = 0; i < listing.traces.size(); ++i) {
      if (!results[i].has_value()) continue;
      const core::TrackResult& r = *results[i];
      w.begin_object();
      w.key("trace").value(listing.traces[i].name);
      w.key("steps").value(r.steps);
      w.key("distance_m").value(r.distance());
      w.key("clean_fraction").value(r.quality.clean_fraction);
      w.key("repaired_fraction").value(r.quality.repaired_fraction);
      w.key("masked_fraction").value(r.quality.masked_fraction);
      w.key("degraded_steps").value(r.degraded_steps());
      write_timing(w, r.timing);
      w.end_object();
    }
    w.end_array();
    w.key("errors").begin_array();
    for (const runtime::TraceError& err : errors) {
      w.begin_object();
      w.key("trace").value(err.trace);
      w.key("stage").value(std::string(runtime::to_string(err.stage)));
      w.key("message").value(err.message);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    check(w.complete(), "ptrack_cli: complete JSON document");
    out << '\n';
  }
  write_obs_outputs(args);
  if (!errors.empty() && args.get_bool("strict")) return 2;
  return 0;
}

int run(int argc, char** argv) {
  cli::Args args(argc, argv,
                 {{"input", "trace CSV (imu::save_csv format)", "", false},
                  {"batch",
                   "process every .csv in this directory instead of --input",
                   "", false},
                  {"threads",
                   "threads that load and process a batch (0 = one per "
                   "hardware thread)",
                   "0", false},
                  {"arm", "arm length m in metres", "0.70", false},
                  {"leg", "leg length l in metres", "0.90", false},
                  {"k", "Eq. (2) calibration factor", "2.0", false},
                  {"self-train-distance",
                   "treat the trace as a calibration walk of this many "
                   "metres and learn arm/leg from it",
                   "", false},
                  {"json", "write the full result as JSON to this file", "",
                   false},
                  {"events", "write per-step events as CSV to this file", "",
                   false},
                  {"metrics-out",
                   "write an observability metrics snapshot (JSON) to this "
                   "file",
                   "", false},
                  {"trace-out",
                   "write pipeline stage spans as Chrome trace_event JSON "
                   "(chrome://tracing, Perfetto) to this file",
                   "", false},
                  {"streaming",
                   "replay the input through the incremental streaming "
                   "tracker instead of the batch pipeline",
                   "", true},
                  {"hop",
                   "streaming mode: advance the pipeline every this many "
                   "seconds of samples",
                   "2.0", false},
                  {"strict",
                   "batch mode: exit 2 when any trace fails (default: skip "
                   "failed traces and report them)",
                   "", true},
                  {"quiet", "suppress the console summary", "", true}});
  if (args.help_requested()) {
    std::cout << args.usage("ptrack_cli");
    return 0;
  }

  core::PTrackConfig config;
  config.stride.profile.arm_length = args.get_double("arm");
  config.stride.profile.leg_length = args.get_double("leg");
  config.stride.profile.k = args.get_double("k");

  if (args.has("batch")) return run_batch(args, config);

  const imu::Trace trace = imu::load_csv(args.get_string("input"));

  core::SelfTrainingResult trained{};
  const bool self_trained = args.has("self-train-distance");
  if (self_trained) {
    trained = core::self_train(trace, args.get_double("self-train-distance"));
    config.stride.profile.arm_length = trained.arm_length;
    config.stride.profile.leg_length = trained.leg_length;
  }

  if (args.get_bool("streaming")) return run_streaming(args, config, trace);

  core::PTrack tracker(config);
  const core::TrackResult result = tracker.process(trace);

  if (!args.get_bool("quiet")) {
    std::cout << "trace:    " << trace.duration() << " s @ " << trace.fs()
              << " Hz (" << trace.size() << " samples)\n";
    if (self_trained) {
      std::cout << "profile:  self-trained arm=" << trained.arm_length
                << " m leg=" << trained.leg_length << " m\n";
    } else {
      std::cout << "profile:  arm=" << config.stride.profile.arm_length
                << " m leg=" << config.stride.profile.leg_length << " m\n";
    }
    std::cout << "steps:    " << result.steps << "\n";
    std::cout << "distance: " << result.distance() << " m\n";
    std::size_t walking = 0;
    std::size_t stepping = 0;
    std::size_t others = 0;
    for (const core::CycleRecord& c : result.cycles) {
      switch (c.type) {
        case core::GaitType::Walking: ++walking; break;
        case core::GaitType::Stepping: ++stepping; break;
        case core::GaitType::Interference: ++others; break;
      }
    }
    std::cout << "cycles:   " << walking << " walking, " << stepping
              << " stepping, " << others << " excluded\n";
  }

  if (args.has("events")) {
    std::vector<std::vector<double>> rows;
    rows.reserve(result.events.size());
    for (const core::StepEvent& e : result.events) {
      rows.push_back({e.t, e.stride,
                      static_cast<double>(static_cast<int>(e.type))});
    }
    csv::write(args.get_string("events"), {"t", "stride", "type"}, rows);
  }

  if (args.has("json")) {
    std::ofstream out(args.get_string("json"));
    if (!out) throw Error("cannot open " + args.get_string("json"));
    json::Writer w(out);
    w.begin_object();
    w.key("steps").value(result.steps);
    w.key("distance_m").value(result.distance());
    w.key("profile").begin_object();
    w.key("arm_length").value(config.stride.profile.arm_length);
    w.key("leg_length").value(config.stride.profile.leg_length);
    w.key("self_trained").value(self_trained);
    w.end_object();
    w.key("events").begin_array();
    for (const core::StepEvent& e : result.events) {
      w.begin_object();
      w.key("t").value(e.t);
      w.key("stride").value(e.stride);
      w.key("type").value(std::string(core::to_string(e.type)));
      w.end_object();
    }
    w.end_array();
    write_timing(w, result.timing);
    w.end_object();
    check(w.complete(), "ptrack_cli: complete JSON document");
    out << '\n';
  }
  write_obs_outputs(args);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const Error& e) {
    std::cerr << "ptrack_cli: " << e.what() << "\n";
    return 1;
  }
}
