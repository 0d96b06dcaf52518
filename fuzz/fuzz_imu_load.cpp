// Fuzz target: the full trace-ingest path, csv::parse + trace_from_document.
// imu::load_csv runs the same scanner and the same trace checks, feeding
// rows to the checks without a Document; tests/test_runtime_batch.cpp
// replays this corpus through both and requires identical outcomes.
//
// Exercises the hostile-input hardening of imu::trace_from_document:
// non-finite / non-positive / implausible fs, non-monotonic timestamps and
// absurd sample counts must all surface as ptrack::Error, and any trace
// that survives must satisfy the Trace invariants (fs > 0, ordered times).

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "imu/trace_io.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data), size));
  try {
    const ptrack::csv::Document doc = ptrack::csv::parse(in, "fuzz-input");
    const ptrack::imu::Trace trace =
        ptrack::imu::trace_from_document(doc, "fuzz-input");
    if (trace.fs() <= 0.0) __builtin_trap();
    for (std::size_t i = 1; i < trace.size(); ++i) {
      if (trace[i].t < trace[i - 1].t) __builtin_trap();
    }
  } catch (const ptrack::Error&) {
    // Rejecting malformed input is the expected behavior.
  }
  return 0;
}
