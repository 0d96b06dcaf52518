// batch_csv: an analyst re-scores a cohort of wrist traces stored as CSV
// files, the `ptrack_cli --batch` path. Each pass is load_trace_dir plus
// BatchRunner::run on nproc executors (the caller and nproc - 1 workers).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "analysis.hpp"
#include "common/csv.hpp"
#include "common/stats.hpp"
#include "core/ptrack.hpp"
#include "imu/quality.hpp"
#include "imu/trace_io.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "runtime/batch_runner.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using ptrack::core::TrackResult;

namespace {

/// Cohort size and trace length. Sixteen five-minute traces make a pass of
/// about a second, so a run of BENCHMARK.json's 20 seconds holds well over
/// ten passes to take the median of.
constexpr std::size_t kCohort = 16;
constexpr double kTraceSeconds = 300.0;
constexpr int kSetupReps = 5;
constexpr int kMinPasses = 3;

bool same_result(const TrackResult& a, const TrackResult& b) {
  if (a.steps != b.steps || a.events.size() != b.events.size() ||
      a.cycles.size() != b.cycles.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const auto& x = a.events[i];
    const auto& y = b.events[i];
    if (!same_bits(x.t, y.t) || !same_bits(x.stride, y.stride) ||
        x.type != y.type || !same_bits(x.quality, y.quality) ||
        x.degraded != y.degraded) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.cycles.size(); ++i) {
    const auto& x = a.cycles[i];
    const auto& y = b.cycles[i];
    if (x.begin != y.begin || x.mid != y.mid || x.end != y.end ||
        x.type != y.type || !same_bits(x.offset, y.offset) ||
        !same_bits(x.half_cycle_corr, y.half_cycle_corr) ||
        x.phase_ok != y.phase_ok || !same_bits(x.quality, y.quality)) {
      return false;
    }
  }
  return same_bits(a.quality.clean_fraction, b.quality.clean_fraction) &&
         same_bits(a.quality.repaired_fraction, b.quality.repaired_fraction) &&
         same_bits(a.quality.masked_fraction, b.quality.masked_fraction);
}

std::uint64_t file_digest(const fs::path& p, std::uint64_t h) {
  std::ifstream in(p, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  return fnv1a({reinterpret_cast<const std::uint8_t*>(bytes.data()),
                bytes.size()},
               h);
}

struct Cohort {
  std::string dir;
  std::vector<Input> inputs;
  std::size_t samples = 0;
  std::vector<TrackResult> reference;  ///< single-threaded, at setup
};

/// Timed passes over the CSV directory until `budget_s` has elapsed (and
/// at least kMinPasses ran). Every pass is checked against the reference.
///
/// A pass's normalized wall is its serial load at the host probe's
/// reference speed plus its BatchRunner run as measured: the load is
/// text-to-double parsing, the work host_probe_s() times, and other
/// tenants swing its speed by up to 2x between runs, while the run's
/// core work is steadier. The scaling holds only while the load is that
/// kind of work; a loader that stops parsing text needs another probe.
struct Passes {
  std::vector<double> walls_s;       ///< as measured
  std::vector<double> norm_walls_s;  ///< load at the probe's reference speed
  std::vector<double> event_latency_us;  ///< normalized; one per event
};

Passes run_passes(const Cohort& c, ptrack::runtime::BatchRunner& runner,
                  double budget_s, SpanRecorder* rec, Result& res) {
  Passes out;
  const std::uint32_t n_pass = rec ? rec->name_id("batch.pass") : 0;
  const std::uint32_t n_load =
      rec ? rec->name_id("runtime.load_trace_dir") : 0;
  const std::uint32_t n_run = rec ? rec->name_id("runtime.batch.run") : 0;
  const std::uint64_t start = now_ns();
  double probe = host_probe_s();
  for (std::size_t pass = 0;
       out.walls_s.size() < static_cast<std::size_t>(kMinPasses) ||
       elapsed_s(start) < budget_s;
       ++pass) {
    const std::uint64_t t0 = now_ns();
    std::uint64_t loaded = 0;
    std::vector<ptrack::runtime::TraceResult> results;
    ptrack::runtime::TraceDirListing listing;
    {
      ScopedSpan sp(rec, n_pass, pass);
      {
        ScopedSpan l(rec, n_load, pass, sp.id());
        listing = ptrack::runtime::load_trace_dir(c.dir);
      }
      std::vector<ptrack::imu::Trace> traces;
      traces.reserve(listing.traces.size());
      for (auto& nt : listing.traces) traces.push_back(std::move(nt.trace));
      loaded = now_ns();
      ScopedSpan r(rec, n_run, pass, sp.id());
      results = runner.run(traces);
    }
    const double wall = elapsed_s(t0);
    const double load_s = static_cast<double>(loaded - t0) * 1e-9;
    const double probe_after = host_probe_s();
    const double norm = load_s * kProbeReferenceS / (0.5 * (probe + probe_after)) +
                        (wall - load_s);
    probe = probe_after;
    out.walls_s.push_back(wall);
    out.norm_walls_s.push_back(norm);

    res.attempted += kCohort;
    std::size_t bad = listing.errors.size();
    std::size_t events = 0;
    if (results.size() + listing.errors.size() != kCohort) {
      bad = kCohort;
    } else {
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i].has_value() ||
            !same_result(*results[i], c.reference[i])) {
          ++bad;
        } else {
          events += (*results[i]).events.size();
        }
      }
    }
    if (bad > 0) {
      res.failed += bad;
      res.fail("batch_csv: a pass disagreed with the single-threaded "
               "reference or lost traces");
    }
    out.event_latency_us.insert(out.event_latency_us.end(), events,
                                norm * 1e6);
  }
  return out;
}

/// Samples per second of the median pass, normalized (see Passes).
double rate(const Cohort& c, const Passes& p) {
  return static_cast<double>(c.samples) / ptrack::stats::median(p.norm_walls_s);
}

/// The same as measured, for the report.
double measured_rate(const Cohort& c, const Passes& p) {
  return static_cast<double>(c.samples) / ptrack::stats::median(p.walls_s);
}

/// The single-threaded per-layer pass: each trace's file is read, converted
/// and processed under its own spans, with the pipeline stages the result's
/// timing reports laid in as children of core.process.
/// Returns the index of the pass's root span.
std::size_t layer_pass(const Cohort& c, SpanRecorder& rec, Result& res) {
  const std::uint32_t n_pass = rec.name_id("batch.serial_pass");
  const std::uint32_t n_trace = rec.name_id("batch.trace");
  const std::uint32_t n_read = rec.name_id("common.csv.read");
  const std::uint32_t n_doc = rec.name_id("imu.trace_from_document");
  const std::uint32_t n_proc = rec.name_id("core.process");
  const std::uint32_t n_stage[] = {
      rec.name_id("core.quality"), rec.name_id("core.project"),
      rec.name_id("core.count"), rec.name_id("core.stride")};
  ptrack::core::PTrack tracker;
  ScopedSpan sp(&rec, n_pass, 0);
  for (std::size_t i = 0; i < kCohort; ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "/trace_%03zu.csv", i);
    const std::string path = c.dir + name;
    ScopedSpan tr(&rec, n_trace, i, sp.id());
    ptrack::csv::Document doc;
    {
      ScopedSpan s(&rec, n_read, i, tr.id());
      doc = ptrack::csv::read(path);
    }
    ptrack::imu::Trace trace;
    {
      ScopedSpan s(&rec, n_doc, i, tr.id());
      trace = ptrack::imu::trace_from_document(doc, path);
    }
    const std::uint64_t p0 = now_ns();
    const TrackResult r = tracker.process(trace);
    const std::uint64_t p1 = now_ns();
    const std::int32_t proc = rec.add(n_proc, i, tr.id(), p0, p1);
    const double stage_us[] = {r.timing.quality_us, r.timing.project_us,
                               r.timing.count_us, r.timing.stride_us};
    std::uint64_t cursor = p0;
    for (std::size_t k = 0; k < 4; ++k) {
      const auto d = static_cast<std::uint64_t>(std::llround(stage_us[k] * 1e3));
      const std::uint64_t end = std::min(cursor + d, p1);
      rec.add(n_stage[k], i, proc, cursor, end);
      cursor = end;
    }
    if (!same_result(r, c.reference[i])) {
      res.fail("batch_csv: traced pass disagreed with the reference");
    }
  }
  return static_cast<std::size_t>(sp.id());
}

void traced_layers(const Cohort& c, const Options& opt,
                   ptrack::runtime::BatchRunner& runner, double untraced_rate,
                   double budget_s, Result& res) {
  SpanRecorder rec;
  ptrack::obs::set_enabled(true);

  // End-to-end passes with obs on and spans around the two public calls.
  const Passes traced = run_passes(c, runner, budget_s, &rec, res);
  res.set("obs.overhead_frac", untraced_rate / rate(c, traced) - 1.0, "ratio");

  // Single-threaded layer pass. Its spans form one tree of sequential
  // children inside their parents (the stage spans are clipped to
  // core.process), so their self times add up to the pass's wall by
  // construction; the check is kept as an assertion on the span
  // arithmetic, and the harness's own share is reported as
  // batch.remainder_share rather than hidden.
  const std::size_t root = layer_pass(c, rec, res);
  const Span& pass = rec.spans()[root];
  const double wall_ns = static_cast<double>(pass.end_ns - pass.start_ns);
  const std::vector<NameTotals> by_name = totals_by_name(rec, root);
  double self_sum = 0.0;
  for (const NameTotals& t : by_name) self_sum += t.self_ns;
  if (self_sum != wall_ns) {
    res.fail("batch_csv: span self times do not sum to the traced wall");
  }
  const auto total = [&](const char* n) {
    return by_name[rec.name_id(n)].total_ns;
  };
  const double samples = static_cast<double>(c.samples);
  const double proc = total("core.process");
  res.set("common.csv.read_ns_per_sample", total("common.csv.read") / samples,
          "ns");
  res.set("imu.trace_from_document_ns_per_sample",
          total("imu.trace_from_document") / samples, "ns");
  res.set("imu.load.share",
          (total("common.csv.read") + total("imu.trace_from_document")) /
              wall_ns,
          "ratio");
  res.set("core.process.ns_per_sample", proc / samples, "ns");
  for (const char* stage : {"quality", "project", "count", "stride"}) {
    const std::string n = std::string("core.") + stage;
    res.set(n + ".share", total(n.c_str()) / proc, "ratio");
  }
  res.set("core.process.residual_share",
          by_name[rec.name_id("core.process")].self_ns / proc, "ratio");
  res.set("batch.remainder_share",
          (by_name[rec.name_id("batch.serial_pass")].self_ns +
           by_name[rec.name_id("batch.trace")].self_ns) /
              wall_ns,
          "ratio");

  // The cohort as the CSV files hold it (the CSV text rounds the
  // synthesized values, so the in-memory traces would give other results).
  std::vector<ptrack::imu::Trace> loaded;
  for (auto& nt : ptrack::runtime::load_trace_dir(c.dir).traces) {
    loaded.push_back(std::move(nt.trace));
  }
  if (loaded.size() != kCohort) {
    res.fail("batch_csv: the cohort directory did not load cleanly");
    return;
  }

  // Quality layer on its own, over the loaded cohort.
  const std::uint32_t n_q = rec.name_id("imu.assess_and_repair");
  double q_ns = 0.0;
  for (std::size_t i = 0; i < kCohort; ++i) {
    const std::uint64_t t0 = now_ns();
    const ptrack::imu::QualityResult q =
        ptrack::imu::assess_and_repair(loaded[i]);
    const std::uint64_t t1 = now_ns();
    rec.add(n_q, i, -1, t0, t1);
    q_ns += static_cast<double>(t1 - t0);
    if (q.trace.size() != loaded[i].size()) {
      res.fail("batch_csv: quality pass changed the trace length");
    }
  }
  res.set("imu.quality.ns_per_sample", q_ns / samples, "ns");

  // Runtime layer: one executor against nproc over the loaded traces,
  // alternating, with the batch queue-wait histogram from the nproc runs.
  ptrack::runtime::BatchRunner one({}, {1});
  ptrack::obs::Registry::instance().reset();
  const std::uint32_t n_run1 = rec.name_id("runtime.batch.run_1");
  const std::uint32_t n_runn = rec.name_id("runtime.batch.run_nproc");
  std::vector<double> w1;
  std::vector<double> wn;
  for (std::uint64_t k = 0; k < 3; ++k) {
    for (int which = 0; which < 2; ++which) {
      const std::uint64_t t0 = now_ns();
      const auto results = which == 0 ? one.run(loaded) : runner.run(loaded);
      const std::uint64_t t1 = now_ns();
      rec.add(which == 0 ? n_run1 : n_runn, k, -1, t0, t1);
      (which == 0 ? w1 : wn).push_back(static_cast<double>(t1 - t0));
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i].has_value() ||
            !same_result(*results[i], c.reference[i])) {
          res.fail("batch_csv: runtime pass disagreed with the reference");
        }
      }
    }
  }
  res.set("runtime.batch.speedup",
          ptrack::stats::median(w1) / ptrack::stats::median(wn), "ratio");
  double queue_p99 = 0.0;
  for (const auto& [name, h] :
       ptrack::obs::Registry::instance().histogram_values()) {
    if (name == "ptrack.runtime.batch.queue_wait_us") {
      queue_p99 = ptrack::obs::quantile_from_buckets(h.bounds, h.counts, 0.99);
    }
  }
  res.set("runtime.batch.queue_wait_us_p99", queue_p99, "us");
  ptrack::obs::set_enabled(false);

  fs::create_directories(opt.work_dir);
  rec.write_csv(opt.work_dir + "/spans-batch_csv-seed" +
                std::to_string(opt.seed) + ".csv");
}

}  // namespace

Result run_batch(const Options& opt) {
  Result res;
  Cohort c;
  c.dir = opt.work_dir + "/cohort";
  const SetupTime setup = timed_setup(kSetupReps, [&] {
    c.inputs = synthesize_inputs(opt.seed, kCohort, kTraceSeconds, Mix::kCohort);
    fs::remove_all(c.dir);
    fs::create_directories(c.dir);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < kCohort; ++i) {
      char name[32];
      std::snprintf(name, sizeof name, "/trace_%03zu.csv", i);
      ptrack::imu::save_csv(c.inputs[i].trace, c.dir + name);
      h = file_digest(c.dir + name, h);
    }
    return h;
  }, /*normalize=*/true, res);
  for (const Input& in : c.inputs) c.samples += in.trace.size();

  // Single-threaded reference over the files as written, and accuracy
  // against the synthesizer's ground truth.
  ptrack::obs::set_enabled(false);
  {
    ptrack::runtime::TraceDirListing listing =
        ptrack::runtime::load_trace_dir(c.dir);
    if (!listing.errors.empty() || listing.traces.size() != kCohort) {
      res.fail("batch_csv: the cohort directory did not load cleanly");
      return res;
    }
    ptrack::core::PTrack tracker;
    for (const auto& nt : listing.traces) {
      c.reference.push_back(tracker.process(nt.trace));
    }
  }
  double step_err = 0.0;
  double dist_err = 0.0;
  for (std::size_t i = 0; i < kCohort; ++i) {
    const Input& in = c.inputs[i];
    const double truth = static_cast<double>(in.true_steps);
    step_err += std::abs(static_cast<double>(c.reference[i].steps) - truth) / truth;
    dist_err += std::abs(c.reference[i].distance() - in.true_distance) /
                in.true_distance;
  }
  step_err /= static_cast<double>(kCohort);
  dist_err /= static_cast<double>(kCohort);

  ptrack::runtime::BatchRunner runner({}, {opt.nproc});
  const double budget = opt.trace ? opt.seconds / 3.0 : opt.seconds;
  const Passes p = run_passes(c, runner, budget, nullptr, res);
  const double samples_per_s = rate(c, p);

  if (opt.trace) {
    traced_layers(c, opt, runner, samples_per_s, budget, res);
    res.set("serve.latency_drift", latency_drift(p.norm_walls_s), "ratio");
  } else {
    res.set("setup_s", setup.normalized_s, "s");
    res.set("setup_s_as_measured", setup.measured_s, "s");
    res.set("samples_per_s", samples_per_s, "samples/s");
    res.set("samples_per_s_as_measured", measured_rate(c, p), "samples/s");
    res.set("event_latency_p50_us",
            percentile_or_zero(p.event_latency_us, 50.0), "us");
    res.set("event_latency_p99_us",
            percentile_or_zero(p.event_latency_us, 99.0), "us");
    res.set("step_accuracy", 1.0 - step_err, "ratio");
    res.set("distance_accuracy", 1.0 - dist_err, "ratio");
  }
  res.set("step_error", step_err, "ratio");
  res.set("distance_error", dist_err, "ratio");
  fs::remove_all(c.dir);
  return res;
}

}  // namespace perfbench
