// The repository benchmark's measuring program. perfbench/run.py builds and
// runs it; it can also be run directly:
//
//   perfbench --workload batch_csv|serve_flood --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//             [--git-sha SHA] [--source-digest HEX]
//
// It prints one JSON line: correct, attempted, failed, every metric it
// measured with its unit, the errors that made a run incorrect, and the
// run's provenance. Untraced runs (--trace 0) measure with the library's
// obs layer switched off; traced runs (--trace 1) switch it on, record
// spans around the library calls and report per-layer metrics, with 0 for
// a layer the workload does not call.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "dsp/simd.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

/// Every per-layer metric with its unit. A traced run reports each of them;
/// the ones its workload does not exercise stay 0.
constexpr const char* kLayerMetrics[][2] = {
    {"common.csv.read_ns_per_sample", "ns"},
    {"imu.trace_from_document_ns_per_sample", "ns"},
    {"imu.load.share", "ratio"},
    {"imu.quality.ns_per_sample", "ns"},
    {"imu.incremental_quality.ns_per_sample", "ns"},
    {"core.process.ns_per_sample", "ns"},
    {"core.quality.share", "ratio"},
    {"core.project.share", "ratio"},
    {"core.count.share", "ratio"},
    {"core.stride.share", "ratio"},
    {"core.process.residual_share", "ratio"},
    {"batch.remainder_share", "ratio"},
    {"core.streaming.push_ns_per_sample", "ns"},
    {"core.streaming.hop_us_p50", "us"},
    {"core.streaming.hop_us_p99", "us"},
    {"runtime.batch.speedup", "ratio"},
    {"runtime.batch.queue_wait_us_p99", "us"},
    {"net.wire.decode_ns_per_frame", "ns"},
    {"net.wire.encode_ns_per_event", "ns"},
    {"net.session.us_per_frame", "us"},
    {"net.session.self_us_per_frame", "us"},
    {"net.server.reactor_busy", "ratio"},
    {"net.server.cpu_us_per_frame", "us"},
    {"net.server.residual_us_per_frame", "us"},
    {"net.server.frames_rejected", "count"},
    {"net.server.evictions", "count"},
    {"net.client.write_stalls", "count"},
    {"serve.latency_drift", "ratio"},
    {"obs.overhead_frac", "ratio"},
};

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  std::string trace_arg = "0";
  if (argc % 2 == 0) {
    std::fprintf(stderr, "perfbench: every option takes one value\n");
    return 2;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") opt.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") trace_arg = v;
    else if (k == "--work-dir") opt.work_dir = v;
    else if (k == "--git-sha") git_sha = v;
    else if (k == "--source-digest") source_digest = v;
    else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  opt.trace = trace_arg == "1";
  opt.nproc = online_cpus();
  if (opt.work_dir.empty() || opt.seconds <= 0.0 ||
      (trace_arg != "0" && trace_arg != "1")) {
    std::fprintf(stderr, "perfbench: need --workload, --seed, --seconds > 0, "
                         "--trace 0|1 and --work-dir\n");
    return 2;
  }

  Result res;
  std::string offered;
  try {
    if (opt.workload == "batch_csv") {
      res = perfbench::run_batch(opt);
      offered = "closed loop: 16 five-minute CSV traces per pass, " +
                std::to_string(opt.nproc) + " executors";
    } else if (opt.workload == "serve_flood") {
      res = perfbench::run_serve(opt);
      offered = "closed loop: 4 sessions of 1024-sample frames";
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (opt.trace) {
    // Fill in the layers this workload does not call.
    Result all;
    for (const auto& m : kLayerMetrics) all.set(m[0], 0.0, m[1]);
    for (const auto& m : res.metrics) all.set(m.name, m.value, m.unit);
    res.metrics = all.metrics;
  }
  res.set("rss_peak_mb", perfbench::rss_peak_mb(), "MiB");
  if (res.attempted > 0) {
    res.set("fail_frac",
            static_cast<double>(res.failed) / static_cast<double>(res.attempted),
            "ratio");
  }

#ifdef PTRACK_ENABLE_CHECKS
  const bool checks = true;
#else
  const bool checks = false;
#endif
  std::string out = "{\"correct\": ";
  out += res.correct && res.attempted > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const auto& m = res.metrics[i];
    out += (i ? ", " : "") + quoted(m.name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + quoted(m.unit) + "}";
  }
  out += "}, \"errors\": [";
  for (std::size_t i = 0; i < res.errors.size(); ++i) {
    out += (i ? ", " : "") + quoted(res.errors[i]);
  }
  out += "], \"provenance\": {";
  out += "\"git_sha\": " + quoted(git_sha);
  out += ", \"source_digest\": " + quoted(source_digest);
  out += ", \"compiler\": " + quoted(PERFBENCH_COMPILER);
  out += ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE);
  out += std::string(", \"checks_compiled\": ") + (checks ? "true" : "false");
  out += std::string(", \"obs_compiled\": ") + (PTRACK_OBS_ENABLED ? "true" : "false");
  out += ", \"simd_isa\": " + quoted(ptrack::dsp::simd::isa_name(
                                  ptrack::dsp::simd::detected()));
  out += ", \"nproc\": " + std::to_string(opt.nproc);
  out += ", \"cpu_model\": " + quoted(cpu_model());
  out += ", \"workload\": " + quoted(opt.workload);
  out += ", \"seed\": " + std::to_string(opt.seed);
  out += ", \"seconds\": " + number(opt.seconds);
  out += std::string(", \"traced\": ") + (opt.trace ? "true" : "false");
  out += ", \"offered_load\": " + quoted(offered);
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
