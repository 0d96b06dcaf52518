#include "runtime/batch_runner.hpp"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <new>

#include "common/check.hpp"
#include "common/error.hpp"
#include "dsp/simd.hpp"
#include "imu/trace_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ptrack::runtime {

std::string_view to_string(TraceError::Stage s) {
  switch (s) {
    case TraceError::Stage::Load:
      return "load";
    case TraceError::Stage::Process:
      return "process";
  }
  return "unknown";
}

namespace {

std::unique_ptr<Scheduler> make_owned_scheduler(const BatchOptions& opt) {
  if (opt.scheduler != nullptr) return nullptr;
  SchedulerOptions so;
  // `threads` counts the calling thread, the scheduler only its workers.
  so.workers = resolve_threads(opt.threads) - 1;
  // ptrack-lint: allow(alloc) runner construction, amortized over every batch it runs
  return std::make_unique<Scheduler>(so);
}

}  // namespace

BatchRunner::BatchRunner(core::PTrackConfig cfg, BatchOptions opt)
    : cfg_(cfg),
      owned_(make_owned_scheduler(opt)),
      borrowed_(opt.scheduler),
      caller_participates_(opt.caller_participates) {}

std::vector<TraceResult> BatchRunner::run(
    const std::vector<imu::Trace>& traces) {
  std::vector<TraceResult> results(traces.size());
  if (traces.empty()) return results;

  PTRACK_OBS_SPAN("ptrack.runtime.batch");
  PTRACK_COUNT("ptrack.runtime.batch.runs");
  // The obs decision is latched once per batch so a mid-run toggle cannot
  // produce half-measured tasks, and the disabled path never reads clocks.
  const bool obs_on = obs::enabled();
  const std::uint64_t batch_start_ns = obs_on ? obs::now_ns() : 0;

  const std::size_t executors = threads();

  /// Per-executor busy-time accumulator, padded so executors on adjacent
  /// entries do not share a cache line.
  struct alignas(64) WorkerBusy {
    std::uint64_t ns = 0;
  };
  std::vector<WorkerBusy> busy(executors);

  // One pipeline (and thus one scratch workspace) per executor: no sharing,
  // no locks, and buffer capacities amortize across that executor's traces.
  // Executor ids are dense — scheduler workers [0, W) plus the calling
  // thread at W — so they index these vectors directly.
  std::vector<core::PTrack> trackers(executors, core::PTrack(cfg_));
  sched().parallel_for(
      Lane::kThroughput, traces.size(),
      [&](std::size_t task, std::size_t executor) {
        PTRACK_CHECK_MSG(task < results.size() && executor < trackers.size(),
                         "BatchRunner: task and executor indices in range");
        PTRACK_OBS_SPAN("ptrack.runtime.task");
        const std::uint64_t task_start_ns = obs_on ? obs::now_ns() : 0;
        // Exceptions are converted to values here, inside the task, so one
        // bad trace cannot poison the batch (parallel_for rethrows escaped
        // exceptions after the drain, which would abort the whole batch).
        try {
          results[task] = trackers[executor].process(traces[task]);
        } catch (const std::exception& e) {
          results[task] = make_unexpected(
              TraceError{TraceError::Stage::Process,
                         "#" + std::to_string(task), e.what()});
        } catch (...) {
          results[task] = make_unexpected(
              TraceError{TraceError::Stage::Process,
                         "#" + std::to_string(task), "unknown exception"});
        }
        if (obs_on) {
          const std::uint64_t task_end_ns = obs::now_ns();
          // "Queue wait" at batch granularity: how long the trace sat
          // behind earlier traces before an executor picked it up. The
          // scheduler's own per-lane queue_wait histograms time the
          // individual claimer hops.
          PTRACK_HIST_US("ptrack.runtime.batch.queue_wait_us",
                         static_cast<double>(task_start_ns - batch_start_ns) /
                             1000.0);
          PTRACK_HIST_US("ptrack.runtime.batch.exec_us",
                         static_cast<double>(task_end_ns - task_start_ns) /
                             1000.0);
          busy[executor].ns += task_end_ns - task_start_ns;
        }
      },
      caller_participates_);
  if (obs_on) {
    const std::uint64_t batch_ns =
        std::max<std::uint64_t>(obs::now_ns() - batch_start_ns, 1);
    std::size_t ok = 0;
    for (const TraceResult& r : results) ok += r.has_value() ? 1 : 0;
    PTRACK_COUNT_N("ptrack.runtime.batch.traces_ok", ok);
    PTRACK_COUNT_N("ptrack.runtime.batch.traces_failed", results.size() - ok);
    auto& reg = obs::Registry::instance();
    reg.gauge("ptrack.runtime.batch.workers")
        .set(static_cast<double>(executors));
    for (std::size_t w = 0; w < busy.size(); ++w) {
      reg.gauge("ptrack.runtime.worker." + std::to_string(w) + ".utilization")
          .set(static_cast<double>(busy[w].ns) /
               static_cast<double>(batch_ns));
    }
  }
  // Deterministic batch contract: results come back positionally, slot i
  // holding trace i's result regardless of which executor ran it.
  PTRACK_CHECK_MSG(results.size() == traces.size(),
                   "BatchRunner: one result per input trace, in input order");
  return results;
}

// ptrack-lint: push-allow(alloc) directory loading is IO-bound batch setup, not a steady-state path
namespace {

/// The shortest valid sample row, "0,0,0,0,0,0,0\n": a file of B bytes
/// holds fewer than B / kMinSampleRowBytes samples.
constexpr std::size_t kMinSampleRowBytes = 14;

namespace fs = std::filesystem;

/// The `.csv` files in `dir`, sorted by path.
std::vector<std::string> list_trace_files(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    throw Error("load_trace_dir: not a directory: " + dir);
  }
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".csv") {
      paths.push_back(entry.path().string());
    }
  }
  if (ec) throw Error("load_trace_dir: cannot read " + dir + ": " + ec.message());
  // Directory iteration order is filesystem-dependent; sorting is what
  // makes batch runs reproducible across machines.
  std::sort(paths.begin(), paths.end());
  return paths;
}

TraceDirListing load_trace_files(const std::vector<std::string>& paths,
                                 Scheduler& sched) {
  const std::size_t n = paths.size();
  if (n == 0) return {};
  // Phase 1: size every file.
  std::vector<std::size_t> reservation(n);
  sched.parallel_for(Lane::kThroughput, n, [&](std::size_t i, std::size_t) {
    reservation[i] = sample_reservation(paths[i]);
  });

  // The calling thread allocates every trace's samples: blocks a worker
  // allocated would come from that thread's malloc arena, and glibc keeps
  // freed memory in per-thread arenas, which inflates the resident set.
  std::vector<Expected<imu::Trace, std::string>> loaded(n);
  std::vector<std::vector<imu::Sample>> storage(n);
  for (std::size_t i = 0; i < n; ++i) {
    try {
      storage[i].reserve(reservation[i]);
    } catch (const std::bad_alloc& e) {
      loaded[i] = make_unexpected(std::string(e.what()));
    }
  }

  // Phase 2: parse every file into its storage.
  sched.parallel_for(Lane::kThroughput, n, [&](std::size_t i, std::size_t) {
    if (!loaded[i].has_value()) return;
    try {
      loaded[i] = imu::load_csv(paths[i], std::move(storage[i]));
    } catch (const std::exception& e) {
      loaded[i] = make_unexpected(std::string(e.what()));
    }
  });

  TraceDirListing out;
  out.traces.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string name = fs::path(paths[i]).filename().string();
    if (loaded[i].has_value()) {
      out.traces.push_back({std::move(name), std::move(loaded[i]).value()});
    } else {
      PTRACK_COUNT("ptrack.imu.load.errors");
      out.errors.push_back(
          {TraceError::Stage::Load, std::move(name), loaded[i].error()});
    }
  }
  PTRACK_CHECK_MSG(std::is_sorted(out.traces.begin(), out.traces.end(),
                                  [](const NamedTrace& a, const NamedTrace& b) {
                                    return a.name < b.name;
                                  }),
                   "load_trace_dir: traces ordered by filename");
  return out;
}

}  // namespace

std::size_t sample_reservation(const std::string& path) {
  std::ifstream in;
  in.rdbuf()->pubsetbuf(nullptr, 0);  // unbuffered: reads land in `buf`
  in.open(path, std::ios::binary);
  if (!in) return 0;
  std::size_t bytes = 0;
  std::size_t newlines = 0;
  char buf[64 * 1024];
  do {
    in.read(buf, sizeof buf);
    const auto got = static_cast<std::size_t>(in.gcount());
    bytes += got;
    newlines += dsp::simd::count_byte({buf, got}, '\n');
  } while (in);
  return std::min(
      {newlines + 1, bytes / kMinSampleRowBytes, imu::kMaxTraceSamples});
}

TraceDirListing load_trace_dir(const std::string& dir, std::size_t threads) {
  const std::vector<std::string> paths = list_trace_files(dir);
  if (paths.empty()) return {};
  SchedulerOptions so;
  so.workers = std::min(resolve_threads(threads), paths.size()) - 1;
  Scheduler sched(so);
  return load_trace_files(paths, sched);
}

TraceDirListing load_trace_dir(const std::string& dir, Scheduler& sched) {
  return load_trace_files(list_trace_files(dir), sched);
}
// ptrack-lint: pop-allow(alloc)

}  // namespace ptrack::runtime
