// The five synthesized streams the streaming equivalence suites share:
// walking, stepping, mixed gait, interference (the batch oracle emits
// almost nothing) and a walk with injected dropouts and clipping.

#pragma once

#include <string>
#include <utility>
#include <vector>

#include "imu/faults.hpp"
#include "imu/trace.hpp"
#include "synth/synthesizer.hpp"

namespace ptrack::testing_support {

struct NamedTrace {
  std::string name;
  imu::Trace trace;
  bool expect_quiet = false;  ///< interference: the oracle emits ~nothing
};

inline std::vector<NamedTrace> streaming_scenarios() {
  synth::UserProfile user;
  const auto make = [&](const synth::Scenario& sc, std::uint64_t seed) {
    Rng rng(seed);
    return synth::synthesize(sc, user, synth::SynthOptions{}, rng).trace;
  };
  std::vector<NamedTrace> out;
  out.push_back({"walking", make(synth::Scenario::pure_walking(45.0), 701)});
  out.push_back({"stepping", make(synth::Scenario::pure_stepping(45.0), 702)});
  out.push_back({"mixed", make(synth::Scenario::mixed_gait(60.0), 703)});
  out.push_back({"interference",
                 make(synth::Scenario::interference(synth::ActivityKind::Gaming,
                                                    45.0,
                                                    synth::Posture::Standing),
                      704),
                 /*expect_quiet=*/true});
  {
    imu::Trace faulty = make(synth::Scenario::pure_walking(45.0), 705);
    Rng rng(706);
    faulty = imu::inject_dropouts(faulty, 4.0, 10, 60, rng);
    faulty = imu::clip_acceleration(faulty, 25.0);
    out.push_back({"faulted", std::move(faulty)});
  }
  return out;
}

}  // namespace ptrack::testing_support
