// CSV persistence for IMU traces so experiments can be exported, inspected
// offline, and re-imported (including real device recordings with the same
// column layout: t,ax,ay,az,gx,gy,gz).

#pragma once

#include <string>
#include <vector>

#include "common/csv.hpp"
#include "imu/trace.hpp"

namespace ptrack::imu {

/// Upper bound on accepted trace length (samples). Two days of 1 kHz data;
/// anything larger is a corrupted or hostile file, not a recording.
inline constexpr std::size_t kMaxTraceSamples = 200'000'000;

/// Writes the trace as CSV with header t,ax,ay,az,gx,gy,gz plus a leading
/// pseudo-row carrying fs. Throws ptrack::Error on I/O failure.
void save_csv(const Trace& trace, const std::string& path);

/// Validates and converts an already-parsed CSV document into a Trace.
/// `name` labels the source in error messages. Throws ptrack::Error on a
/// wrong header, missing metadata row, non-finite / non-positive / absurd
/// fs, non-monotonic timestamps, or absurd sample counts — hostile input
/// must fail here, at the boundary, not deep inside the pipeline.
Trace trace_from_document(const csv::Document& doc, const std::string& name);

/// Reads a trace written by save_csv(), scanning rows straight into the
/// trace's samples: the same Trace, or the same ptrack::Error message, as
/// trace_from_document(csv::read(path), path). The samples are stored in
/// `storage` (its contents are discarded, its capacity kept), so a caller
/// can size the allocation on a thread of its choosing.
Trace load_csv(const std::string& path, std::vector<Sample> storage = {});

}  // namespace ptrack::imu
