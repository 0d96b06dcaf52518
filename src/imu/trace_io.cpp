#include "imu/trace_io.hpp"

#include <cmath>
#include <span>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ptrack::imu {

namespace {

const std::vector<std::string> kHeader = {"t",  "ax", "ay", "az",
                                          "gx", "gy", "gz"};

// Sampling rates outside this band are either metadata corruption or an
// attempt to drive the resampler/FFT into absurd allocation sizes. Real
// wearable IMUs sit in [10, 1000] Hz; the band is deliberately wider.
constexpr double kMinFs = 1e-3;
constexpr double kMaxFs = 1e6;

// The trace checks, fed one row at a time: the header, then the metadata
// row carrying fs, then one row per sample. A failed check is recorded,
// not thrown, so that when the rows come from the csv scanner a csv error
// later in the file still takes precedence, exactly as when the whole
// Document is parsed first. finish() reports in the order the checks have
// always run: header, metadata row, fs, sample count, then the first bad
// sample. Row numbers count non-blank data rows, the metadata row being 1.
class TraceAssembler final : public csv::RowSink {
 public:
  TraceAssembler(const std::string& name, std::vector<Sample> storage)
      : name_(name), samples_(std::move(storage)) {
    samples_.clear();
  }

  void header(std::vector<std::string> cells) override {
    if (cells != kHeader) {
      setup_error_ = "trace_from_document: unexpected header in " + name_;
    }
  }

  void row(std::span<const double> r) override {
    ++rows_;
    if (!setup_error_.empty() || !sample_error_.empty()) return;
    if (rows_ == 1) {
      fs_ = r[0];
      // csv::parse already rejects non-finite cells; re-check here so
      // documents built programmatically get the same boundary validation.
      if (!std::isfinite(fs_) || fs_ <= 0.0) {
        setup_error_ =
            "trace_from_document: non-finite or non-positive fs in " + name_;
      } else if (fs_ < kMinFs || fs_ > kMaxFs) {
        setup_error_ = "trace_from_document: implausible fs " +
                       std::to_string(fs_) + " Hz in " + name_;
      }
      return;
    }
    // Past the cap finish() rejects the count; stop storing samples.
    if (samples_.size() == kMaxTraceSamples) return;
    Sample s;
    s.t = r[0];
    if (!std::isfinite(s.t)) {
      sample_error_ = "trace_from_document: non-finite timestamp in row " +
                      std::to_string(rows_) + " of " + name_;
      return;
    }
    if (!samples_.empty() && s.t < samples_.back().t) {
      sample_error_ = "trace_from_document: non-monotonic timestamp in row " +
                      std::to_string(rows_) + " of " + name_;
      return;
    }
    s.accel = {r[1], r[2], r[3]};
    s.gyro = {r[4], r[5], r[6]};
    samples_.push_back(s);
  }

  Trace finish() {
    if (!setup_error_.empty()) throw Error(setup_error_);
    if (rows_ == 0) {
      throw Error("trace_from_document: missing metadata row in " + name_);
    }
    if (rows_ - 1 > kMaxTraceSamples) {
      throw Error("trace_from_document: absurd sample count in " + name_);
    }
    if (!sample_error_.empty()) throw Error(sample_error_);
    Trace trace(fs_, std::move(samples_));
    PTRACK_CHECK_MSG(trace.size() + 1 == rows_,
                     "trace_from_document: one sample per data row");
    return trace;
  }

 private:
  const std::string& name_;
  std::vector<Sample> samples_;
  std::size_t rows_ = 0;
  double fs_ = 0.0;
  std::string setup_error_;   ///< header or fs
  std::string sample_error_;  ///< first bad sample row
};

}  // namespace

void save_csv(const Trace& trace, const std::string& path) {
  std::vector<std::vector<double>> rows;
  rows.reserve(trace.size() + 1);
  // First row is metadata: fs in the "t" column, the rest zero.
  rows.push_back({trace.fs(), 0, 0, 0, 0, 0, 0});
  for (const Sample& s : trace.samples()) {
    rows.push_back({s.t, s.accel.x, s.accel.y, s.accel.z, s.gyro.x, s.gyro.y,
                    s.gyro.z});
  }
  csv::write(path, kHeader, rows);
}

Trace trace_from_document(const csv::Document& doc, const std::string& name) {
  std::vector<Sample> storage;
  if (!doc.rows.empty() && doc.rows.size() - 1 <= kMaxTraceSamples) {
    storage.reserve(doc.rows.size() - 1);
  }
  TraceAssembler assembler(name, std::move(storage));
  assembler.header(doc.header);
  for (const std::vector<double>& r : doc.rows) assembler.row(r);
  return assembler.finish();
}

Trace load_csv(const std::string& path, std::vector<Sample> storage) {
  PTRACK_OBS_SPAN("ptrack.imu.load_csv");
  TraceAssembler assembler(path, std::move(storage));
  csv::read(path, assembler);
  Trace trace = assembler.finish();
  PTRACK_COUNT("ptrack.imu.load.traces");
  return trace;
}

}  // namespace ptrack::imu
