// Minimal CSV reader/writer used for trace I/O and bench exports.
// Handles plain numeric CSV (no quoting/escapes — traces never need them).
//
// The reader is deliberately strict: it is the trust boundary between
// on-disk data (possibly truncated, corrupted, or hostile) and the numeric
// pipeline, so every malformed shape is rejected with a ptrack::Error
// instead of propagating garbage values downstream. The fuzz harnesses in
// fuzz/ drive parse() directly with arbitrary bytes.
//
// parse() is a single-pass scanner: it reads the stream in fixed
// kReadChunkBytes chunks, splits lines and cells in place and converts
// cells with std::from_chars, so memory stays at the Document plus one
// chunk (and the longest line). The scanner hands each row to a RowSink:
// parse() and read() are the sink that keeps every row as a Document, and
// a caller that converts rows as they arrive (imu::load_csv) passes its
// own to read(path, sink).

#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace ptrack::csv {

/// One parsed CSV document: a header row plus data rows of doubles.
struct Document {
  std::vector<std::string> header;
  std::vector<std::vector<double>> rows;
};

/// Hard limits on accepted documents. Generous for every legitimate trace
/// (days of 100 Hz data), small enough to reject absurd or adversarial
/// inputs before they allocate unbounded memory.
inline constexpr std::size_t kMaxColumns = 4096;
inline constexpr std::size_t kMaxRows = 50'000'000;
inline constexpr std::size_t kMaxCellChars = 64;

/// parse() reads its stream in chunks of this many bytes; a line that
/// straddles two chunks is carried over to the next one.
inline constexpr std::size_t kReadChunkBytes = 64 * 1024;

/// Receives a document from the scanner: the header once, then every
/// non-blank data row in order. A sink that throws aborts the scan with
/// its exception.
class RowSink {
 public:
  /// The header cells; called once, before any row.
  virtual void header(std::vector<std::string> cells) = 0;
  /// One data row of exactly header-width finite cells. The span is valid
  /// only during the call.
  virtual void row(std::span<const double> cells) = 0;

 protected:
  ~RowSink() = default;
};

/// Writes rows of doubles with a header line. Throws ptrack::Error on I/O
/// failure.
void write(const std::string& path, const std::vector<std::string>& header,
           const std::vector<std::vector<double>>& rows);

/// Parses CSV from a stream. `name` labels the source in error messages.
/// Throws ptrack::Error on malformed input: empty document, ragged rows,
/// non-numeric or non-finite cells, oversized cells, or documents exceeding
/// kMaxColumns / kMaxRows.
Document parse(std::istream& in, const std::string& name);

/// Reads a CSV file via parse(); throws ptrack::Error on I/O or parse
/// failure.
Document read(const std::string& path);

/// read() into `sink`: the same checks and messages, without a Document.
void read(const std::string& path, RowSink& sink);

}  // namespace ptrack::csv
