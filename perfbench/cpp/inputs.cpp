#include "inputs.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "spans.hpp"
#include "synth/synthesizer.hpp"

namespace perfbench {

using ptrack::Rng;
using ptrack::synth::ActivityKind;
using ptrack::synth::Posture;

namespace {

constexpr double kFs = 100.0;

struct Part {
  ActivityKind kind;
  double share;
};

ptrack::synth::Scenario script(Mix mix, double seconds, std::size_t index,
                               Rng& rng) {
  static constexpr ActivityKind kInterference[] = {
      ActivityKind::Eating, ActivityKind::Poker, ActivityKind::Photo,
      ActivityKind::Gaming, ActivityKind::Spoofer};
  std::vector<Part> parts;
  if (mix == Mix::kCohort) {
    parts = {{ActivityKind::Walking, 0.20}, {ActivityKind::Walking, 0.20},
             {ActivityKind::Stepping, 0.15}};
    for (const ActivityKind k : kInterference) parts.push_back({k, 0.09});
  } else {
    parts = {{ActivityKind::Walking, 0.45},
             {ActivityKind::Walking, 0.25},
             {ActivityKind::Stepping, 0.15},
             {kInterference[index % std::size(kInterference)], 0.15}};
  }
  double total = 0.0;
  for (Part& p : parts) {
    p.share *= rng.uniform(0.7, 1.3);
    total += p.share;
  }
  for (std::size_t i = parts.size(); i > 1; --i) {
    std::swap(parts[i - 1],
              parts[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<int>(i) - 1))]);
  }
  ptrack::synth::Scenario s;
  // One second of margin so trimming to an exact sample count never runs
  // short of synthesized samples.
  const double scale = (seconds + 1.0) / total;
  for (const Part& p : parts) {
    const double d = p.share * scale;
    if (p.kind == ActivityKind::Walking) {
      s.walk(d);
    } else if (p.kind == ActivityKind::Stepping) {
      s.step(d);
    } else {
      const bool seated = p.kind != ActivityKind::Spoofer && rng.chance(0.5);
      s.activity(p.kind, d, seated ? Posture::Seated : Posture::Standing);
    }
  }
  return s;
}

}  // namespace

std::vector<Input> synthesize_inputs(std::uint64_t seed, std::size_t n,
                                     double seconds, Mix mix) {
  Rng master(seed * 0x9e3779b97f4a7c15ULL + (mix == Mix::kCohort ? 1 : 2));
  ptrack::synth::SynthOptions opt;
  opt.device_fs = kFs;
  opt.internal_fs = 400.0;
  const auto samples = static_cast<std::size_t>(seconds * kFs);
  std::vector<Input> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Rng rng = master.fork();
    const ptrack::synth::UserProfile user = ptrack::synth::random_user(rng);
    const ptrack::synth::Scenario sc = script(mix, seconds, i, rng);
    ptrack::synth::SynthResult r = ptrack::synth::synthesize(sc, user, opt, rng);
    if (r.trace.size() < samples) {
      throw ptrack::Error("perfbench: synthesized trace is too short");
    }
    Input in;
    in.trace = r.trace.slice(0, samples);
    const double end_t = static_cast<double>(samples) / kFs;
    for (const auto& st : r.truth.steps) {
      if (st.t >= end_t) continue;
      in.steps.emplace_back(st.t, st.stride);
      ++in.true_steps;
      in.true_distance += st.stride;
    }
    out.push_back(std::move(in));
  }
  return out;
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes, std::uint64_t h) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Result::fail(const std::string& why) {
  correct = false;
  if (errors.size() < 20) errors.push_back(why);
}

SetupTime timed_setup(int reps, const std::function<std::uint64_t()>& setup,
                      bool normalize, Result& res) {
  std::vector<double> walls;
  std::vector<double> norm_walls;
  std::uint64_t first = 0;
  double probe = normalize ? host_probe_s() : 0.0;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    const std::uint64_t d = setup();
    const double wall = elapsed_s(t0);
    walls.push_back(wall);
    if (normalize) {
      const double probe_after = host_probe_s();
      norm_walls.push_back(wall * kProbeReferenceS / (0.5 * (probe + probe_after)));
      probe = probe_after;
    }
    if (r == 0) {
      first = d;
    } else if (d != first) {
      res.fail("setup: the same seed regenerated different inputs");
    }
  }
  const double measured = ptrack::stats::median(walls);
  return {normalize ? ptrack::stats::median(norm_walls) : measured, measured};
}

double host_probe_s() {
  const std::uint64_t t0 = now_ns();
  char buf[32];
  double sink = 0.0;
  for (int i = 0; i < 250000; ++i) {
    std::snprintf(buf, sizeof buf, "%.6f", static_cast<double>(i) * 1e-3);
    sink += std::strtod(buf, nullptr);
  }
  const double s = elapsed_s(t0);
  // The sum is always positive; testing it keeps the loop from being
  // optimized away.
  return sink > 0.0 ? s : -s;
}

double rss_peak_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ss(line.substr(6));
      double kb = 0.0;
      ss >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double thread_cpu_s(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double elapsed_s(std::uint64_t since_ns) {
  return static_cast<double>(now_ns() - since_ns) * 1e-9;
}

double percentile_or_zero(const std::vector<double>& v, double p) {
  return v.empty() ? 0.0 : ptrack::stats::percentile(v, p);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace perfbench
