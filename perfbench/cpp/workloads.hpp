// The benchmark's workloads. Each one makes its inputs from the seed,
// measures for Options::seconds, checks every output and fills a Result:
// end-to-end metrics when untraced, per-layer metrics when traced.

#pragma once

#include "inputs.hpp"

namespace perfbench {

/// Cohort re-scoring: CSV directory -> load_trace_dir -> BatchRunner::run.
Result run_batch(const Options& opt);

/// Devices uploading their backlogs to an in-process net::Server over a
/// Unix socket: a closed-loop flood of full-size frames.
Result run_serve(const Options& opt);

}  // namespace perfbench
