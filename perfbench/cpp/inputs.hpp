// What every workload shares: options, seeded input synthesis, the result
// record and small process probes.

#pragma once

#include <cstdint>
#include <ctime>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "imu/trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch directory inside the checkout
  unsigned nproc = 1;
};

/// One synthesized trace and its ground truth.
struct Input {
  ptrack::imu::Trace trace;
  std::size_t true_steps = 0;
  double true_distance = 0.0;
  /// Completion time and stride of every true step (for partial replays).
  std::vector<std::pair<double, double>> steps;
};

/// Activity mix of a synthesized trace.
enum class Mix {
  /// The paper's evaluation mix: walking, stepping, eating, poker, photo,
  /// gaming and a spoofing rocker, in a seeded order with seeded durations.
  kCohort,
  /// A wearable's day: mostly walking, some stepping and one interfering
  /// activity, taken in turn from eating, poker, photo, gaming and the
  /// spoofing rocker by trace index.
  kDevice,
};

/// `n` traces of `seconds` each at 100 Hz, trimmed to exactly
/// seconds * 100 samples. Users, scripts and sensor noise all derive from
/// `seed`; the same seed gives bit-identical traces.
std::vector<Input> synthesize_inputs(std::uint64_t seed, std::size_t n,
                                     double seconds, Mix mix);

/// FNV-1a over bytes, chained through `h`.
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void set(const std::string& name, double value, const std::string& unit);
  /// Marks the run incorrect and records why.
  void fail(const std::string& why);
};

/// Median seconds of a setup repeated several times.
struct SetupTime {
  double normalized_s = 0.0;  ///< at the probe's reference speed
  double measured_s = 0.0;
};

/// Runs `setup` `reps` times and returns the median of its wall times. With
/// `normalize`, each repetition is also bracketed by host probes and scaled
/// by the mean of the two (see host_probe_s), for a setup whose work is the
/// probe's kind; otherwise normalized_s is the measured median. Each run
/// returns a digest of the inputs it made; a digest that differs from the
/// first run's fails `res` (the same seed must regenerate the same inputs).
SetupTime timed_setup(int reps, const std::function<std::uint64_t()>& setup,
                      bool normalize, Result& res);

/// Wall seconds of one host-speed probe: a fixed amount of libc
/// text-to-double work (snprintf and strtod), the same kind of work as CSV
/// loading but none of the program's code, so no change to the program can
/// move it. On a shared machine, other tenants slow this kind of code by up
/// to 2x for tenths of a second to seconds at a time; dividing a pass's CSV
/// load time by the probes around it takes that swing out.
double host_probe_s();

/// A fixed reference time for host_probe_s(), about its slowest reading on
/// the 4-vCPU Xeon reference machine; probe-normalized times are expressed
/// at that speed.
inline constexpr double kProbeReferenceS = 0.150;

/// Peak resident set size of this process (VmHWM), in MiB.
double rss_peak_mb();

/// CPU time consumed so far by the thread behind `clock` (seconds).
double thread_cpu_s(clockid_t clock);

double elapsed_s(std::uint64_t since_ns);

/// stats::percentile, or 0 for an empty input (a run whose checks failed).
double percentile_or_zero(const std::vector<double>& v, double p);

/// bit_cast equality, so -0.0 != 0.0 and NaN payloads count.
bool same_bits(double a, double b);

}  // namespace perfbench
