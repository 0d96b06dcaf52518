// Streaming hot-path microbenchmark: per-hop latency and steady-state
// capacity of the incremental stage graph vs. the legacy full-window
// recompute wrapper — the measurement behind the refactor's claim that a
// hop costs O(new samples), independent of any analysis-window length.
//
// Method: one synthetic walking trace is replayed sample-by-sample through
// a core::StreamingTracker per configuration (incremental and recompute,
// each at window_s in {10, 20, 40}; window/guard only bind in recompute
// mode, but the incremental arms sweep them anyway to demonstrate the
// independence). Every push is timed individually; a push is attributed to
// the per-hop distribution when the tracker's windows_processed counter
// advanced during it, yielding a per-hop latency distribution (p50/p90/p99)
// per arm. Steady-state
// streams-per-core = stream duration / total CPU time spent pushing — how
// many live 100 Hz streams one core sustains.
//
// Flags:
//   --reduced     shorter trace, fewer repeats (the CI smoke configuration)
//   --gate        fail (exit 1) unless BOTH hold:
//                   1. incremental mean per-hop cost < recompute mean
//                      per-hop cost at the 40 s window (strictly);
//                   2. incremental mean per-hop at "40 s window" <= 1.5x
//                      incremental at "10 s window" (hop cost does not
//                      scale with the configured window).
//   --json PATH   write {"bench":"micro_streaming","metrics":{...}} (also
//                 via the PTRACK_BENCH_JSON environment variable)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/json.hpp"
#include "core/streaming.hpp"
#include "dsp/simd.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

namespace {

struct ArmResult {
  std::string name;
  double hop_p50_us = 0.0;
  double hop_p90_us = 0.0;
  double hop_p99_us = 0.0;
  double hop_mean_us = 0.0;
  double streams_per_core = 0.0;
  std::size_t steps = 0;
};

/// Replays the trace through one tracker configuration `repeats` times,
/// timing every hop-triggering push; keeps the per-hop distribution of the
/// fastest repeat (by total time) to shed scheduler noise.
ArmResult run_arm(const std::string& name, const imu::Trace& trace,
                  const core::StreamingConfig& cfg, std::size_t repeats) {
  using clock = std::chrono::steady_clock;
  const auto hop_every = static_cast<std::size_t>(cfg.hop_s * trace.fs());

  ArmResult best;
  double best_total = 0.0;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    core::StreamingTracker stream(trace.fs(), cfg);
    std::vector<double> hop_us;
    hop_us.reserve(trace.size() / std::max<std::size_t>(1, hop_every) + 1);
    double total_s = 0.0;
    std::size_t hops_seen = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const auto t0 = clock::now();
      stream.push(trace[i]);
      const double dt = std::chrono::duration<double>(clock::now() - t0)
                            .count();
      total_s += dt;
      const std::size_t hops_now = stream.stats().windows_processed;
      if (hops_now != hops_seen) {
        hops_seen = hops_now;
        hop_us.push_back(1e6 * dt);
      }
    }
    stream.finish();
    if (rep == 0 || total_s < best_total) {
      best_total = total_s;
      ArmResult r;
      r.name = name;
      double sum = 0.0;
      for (const double us : hop_us) sum += us;
      r.hop_mean_us = hop_us.empty()
                          ? 0.0
                          : sum / static_cast<double>(hop_us.size());
      if (!hop_us.empty()) {
        r.hop_p50_us = stats::percentile(hop_us, 50.0);
        r.hop_p90_us = stats::percentile(hop_us, 90.0);
        r.hop_p99_us = stats::percentile(hop_us, 99.0);
      }
      r.streams_per_core = trace.duration() / total_s;
      r.steps = stream.steps();
      best = r;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    cli::Args args(
        argc, argv,
        {{"reduced", "shorter trace and fewer repeats (CI smoke)", "", true},
         {"gate",
          "fail unless incremental beats recompute at the 40 s window and "
          "its hop cost is window-independent",
          "", true},
         {"json", "output JSON path (overrides PTRACK_BENCH_JSON)", "",
          false}});
    if (args.help_requested()) {
      std::cout << args.usage("micro_streaming");
      return 0;
    }
    const bool reduced = args.get_bool("reduced");
    const bool gate = args.get_bool("gate");
    const double seconds = reduced ? 60.0 : 180.0;
    const std::size_t repeats = reduced ? 3 : 5;

    Rng rng(bench::kBenchSeed ^ 0x57e);
    const auto user = bench::make_users(1).front();
    const imu::Trace trace =
        synth::synthesize(synth::Scenario::pure_walking(seconds), user,
                          bench::standard_options(), rng)
            .trace;

    const double windows[] = {10.0, 20.0, 40.0};
    std::vector<ArmResult> arms;
    for (const bool incremental : {true, false}) {
      for (const double w : windows) {
        core::StreamingConfig cfg;
        cfg.pipeline.stride.profile = {user.arm_length, user.leg_length, 2.0};
        cfg.mode = incremental ? core::StreamingConfig::Mode::kIncremental
                               : core::StreamingConfig::Mode::kRecompute;
        cfg.hop_s = 2.0;
        cfg.window_s = w;
        cfg.guard_s = w / 4.0;
        const std::string name =
            std::string(incremental ? "inc" : "rec") + "_w" +
            std::to_string(static_cast<int>(w));
        arms.push_back(run_arm(name, trace, cfg, repeats));
      }
    }

    // SIMD-off arm at the 20 s window: the per-PR record of what the
    // vector kernels buy on the incremental hot path (simd on = the
    // inc_w20 arm above).
    {
      core::StreamingConfig cfg;
      cfg.pipeline.stride.profile = {user.arm_length, user.leg_length, 2.0};
      cfg.mode = core::StreamingConfig::Mode::kIncremental;
      cfg.hop_s = 2.0;
      cfg.window_s = 20.0;
      cfg.guard_s = 5.0;
      dsp::simd::force_isa(dsp::simd::Isa::kScalar);
      arms.push_back(run_arm("inc_scalar_w20", trace, cfg, repeats));
      dsp::simd::force_isa(dsp::simd::detected());
    }

    std::printf(
        "micro_streaming: %.0f s walking trace @ %.0f Hz, hop 2 s, best of "
        "%zu repeats\n",
        seconds, trace.fs(), repeats);
    std::printf("  %-8s %10s %10s %10s %10s %14s %6s\n", "arm", "p50 us",
                "p90 us", "p99 us", "mean us", "streams/core", "steps");
    for (const ArmResult& a : arms) {
      std::printf("  %-8s %10.1f %10.1f %10.1f %10.1f %14.1f %6zu\n",
                  a.name.c_str(), a.hop_p50_us, a.hop_p90_us, a.hop_p99_us,
                  a.hop_mean_us, a.streams_per_core, a.steps);
    }

    const auto find = [&](const std::string& name) -> const ArmResult& {
      for (const ArmResult& a : arms) {
        if (a.name == name) return a;
      }
      throw Error("micro_streaming: missing arm " + name);
    };
    const ArmResult& inc10 = find("inc_w10");
    const ArmResult& inc20 = find("inc_w20");
    const ArmResult& inc40 = find("inc_w40");
    const ArmResult& rec40 = find("rec_w40");
    const ArmResult& inc_scalar = find("inc_scalar_w20");
    const bool beats_recompute = inc40.hop_mean_us < rec40.hop_mean_us;
    const bool window_independent =
        inc40.hop_mean_us <= 1.5 * inc10.hop_mean_us;
    std::printf("  inc_w40 vs rec_w40 mean: %.1f us vs %.1f us (%s)\n",
                inc40.hop_mean_us, rec40.hop_mean_us,
                beats_recompute ? "ok" : "VIOLATION");
    std::printf("  inc_w40 vs 1.5 * inc_w10 mean: %.1f us vs %.1f us (%s)\n",
                inc40.hop_mean_us, 1.5 * inc10.hop_mean_us,
                window_independent ? "ok" : "VIOLATION");
    const double simd_speedup =
        inc20.hop_mean_us > 0.0 ? inc_scalar.hop_mean_us / inc20.hop_mean_us
                                : 0.0;
    std::printf("  simd %s: scalar %.1f us -> vector %.1f us (%.2fx)\n",
                dsp::simd::isa_name(dsp::simd::detected()),
                inc_scalar.hop_mean_us, inc20.hop_mean_us, simd_speedup);

    std::string path = "BENCH_streaming.json";
    if (args.has("json")) {
      path = args.get_string("json");
    } else if (const char* env = std::getenv("PTRACK_BENCH_JSON")) {
      path = env;
    }
    {
      std::ofstream out(path);
      if (!out) throw Error("micro_streaming: cannot open " + path);
      json::Writer w(out);
      w.begin_object();
      w.key("bench").value(std::string("micro_streaming"));
      w.key("metrics").begin_object();
      w.key("reduced").value(reduced);
      w.key("trace_s").value(seconds);
      w.key("hop_s").value(2.0);
      for (const ArmResult& a : arms) {
        w.key(a.name + "_hop_p50_us").value(a.hop_p50_us);
        w.key(a.name + "_hop_p90_us").value(a.hop_p90_us);
        w.key(a.name + "_hop_p99_us").value(a.hop_p99_us);
        w.key(a.name + "_hop_mean_us").value(a.hop_mean_us);
        w.key(a.name + "_streams_per_core").value(a.streams_per_core);
        w.key(a.name + "_steps").value(a.steps);
      }
      w.key("inc_beats_recompute").value(beats_recompute);
      w.key("window_independent").value(window_independent);
      w.key("simd_isa").value(
          std::string(dsp::simd::isa_name(dsp::simd::detected())));
      w.key("simd_hop_speedup").value(simd_speedup);
      w.end_object();
      w.end_object();
      out << '\n';
    }
    std::printf("wrote %s\n", path.c_str());

    if (gate && !(beats_recompute && window_independent)) {
      std::printf("STREAMING GATE VIOLATION\n");
      return 1;
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "micro_streaming: " << e.what() << "\n";
    return 1;
  }
}
