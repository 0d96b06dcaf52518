#include "common/csv.hpp"

#include <algorithm>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <string_view>

#include "common/check.hpp"
#include "common/error.hpp"

namespace ptrack::csv {

namespace {

// A cell is accepted when std::stod consumes all of it and yields a finite
// value. That is strtod's grammar: optional leading whitespace and sign,
// decimal (".5", "5.", "00.5", "1e+5") or hex ("0x1p3") digits. Trailing
// characters (including the '\r' of a CRLF line) are "trailing junk";
// inf/nan spellings are "non-finite"; anything stod cannot convert or
// reports out of range (overflow, and underflow to a subnormal or zero) is
// "non-numeric". tests/test_malformed_inputs.cpp pins this cell by cell.
//
// This is the reference decision. The scanner only calls it for cells the
// from_chars fast path below does not settle.
double parse_cell(std::string_view text, std::size_t row,
                  const std::string& name) {
  if (text.empty() || text.size() > kMaxCellChars) {
    throw Error("csv: empty or oversized cell in row " + std::to_string(row) +
                " of " + name);
  }
  const std::string cell(text);
  double value = 0.0;
  std::size_t consumed = 0;
  try {
    value = std::stod(cell, &consumed);
  } catch (const std::exception&) {
    throw Error("csv: non-numeric cell '" + cell + "' in row " +
                std::to_string(row) + " of " + name);
  }
  if (consumed != cell.size()) {
    throw Error("csv: trailing junk in cell '" + cell + "' in row " +
                std::to_string(row) + " of " + name);
  }
  if (!std::isfinite(value)) {
    throw Error("csv: non-finite cell '" + cell + "' in row " +
                std::to_string(row) + " of " + name);
  }
  return value;
}

// Fast path: true when from_chars parsed [first, last) to `value` and stod
// is known to return the same double without a range error. Both convert
// correctly rounded, so that holds for a normal result strictly inside
// (DBL_MIN, DBL_MAX) and for a literal zero; results at or past either end,
// subnormals and inf/nan go to parse_cell. A zero counts as literal only
// without a nonzero mantissa digit: libstdc++ reports underflow to zero as
// out of range, but the standard leaves that to the implementation.
bool plain_value(const char* first, const char* last, double value) {
  const double mag = std::fabs(value);
  if (mag > DBL_MIN && mag < DBL_MAX) return true;
  if (value != 0.0) return false;
  for (; first != last && *first != 'e' && *first != 'E'; ++first) {
    if (*first >= '1' && *first <= '9') return false;
  }
  return true;
}

// Hands out the '\n'-separated lines of a stream as views into one buffer.
// The stream is read in kReadChunkBytes chunks; the unfinished line at the
// end of a chunk moves to the front of the buffer before the next chunk is
// appended, so the buffer holds one chunk plus the longest line.
class LineScanner {
 public:
  explicit LineScanner(std::istream& in) : in_(in) {}

  // The next line without its '\n'; false once the input is exhausted. A
  // final line without '\n' is still a line, but a '\n' at the very end
  // does not start an empty one. The view is valid until the next call.
  bool next(std::string_view& line) {
    std::size_t from = begin_;
    for (;;) {
      const char* data = buf_.data();
      const void* nl =
          end_ > from ? std::memchr(data + from, '\n', end_ - from) : nullptr;
      if (nl != nullptr) {
        const auto stop =
            static_cast<std::size_t>(static_cast<const char*>(nl) - data);
        line = {data + begin_, stop - begin_};
        begin_ = stop + 1;
        return true;
      }
      if (eof_) {
        if (begin_ == end_) return false;
        line = {data + begin_, end_ - begin_};
        begin_ = end_;
        return true;
      }
      from = refill();
    }
  }

 private:
  // Moves the unfinished line to the front, appends the next chunk and
  // returns where the newline search resumes.
  std::size_t refill() {
    const std::size_t carry = end_ - begin_;
    if (begin_ > 0 && carry > 0) {
      std::memmove(buf_.data(), buf_.data() + begin_, carry);
    }
    begin_ = 0;
    end_ = carry;
    if (buf_.size() < carry + kReadChunkBytes) {
      buf_.resize(std::max(2 * buf_.size(), carry + kReadChunkBytes));
    }
    in_.read(buf_.data() + end_,
             static_cast<std::streamsize>(kReadChunkBytes));
    const auto got = static_cast<std::size_t>(in_.gcount());
    end_ += got;
    // read() comes back short only at the end of input (or on an error).
    eof_ = got < kReadChunkBytes;
    return carry;
  }

  std::istream& in_;
  std::vector<char> buf_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  bool eof_ = false;
};

// Cells are split at ',' like std::getline(ss, cell, ',') splits a line: a
// comma at the very end of a line does not open a final empty cell (the
// ragged-row check catches that trailing comma instead).
std::vector<std::string> parse_header(std::string_view line,
                                      const std::string& name) {
  std::vector<std::string> header;
  const char* p = line.data();
  const char* const end = p + line.size();
  while (p != end) {
    const char* comma = std::find(p, end, ',');
    if (header.size() >= kMaxColumns) {
      throw Error("csv: too many columns in " + name);
    }
    header.emplace_back(p, comma);
    if (comma == end) break;
    p = comma + 1;
  }
  return header;
}

Error ragged_row(std::size_t row_number, const std::string& name,
                 std::size_t width) {
  return Error("csv: ragged row " + std::to_string(row_number) + " in " +
               name + " (expected " + std::to_string(width) + " cells)");
}

// Parses one non-empty data line into `row`. Cells are decided left to
// right and the first bad one throws; a cell past the header's width is
// not decided at all, the row is ragged.
void parse_row(std::string_view line, std::size_t width,
               std::size_t row_number, const std::string& name,
               std::vector<double>& row) {
  const char* p = line.data();
  const char* const end = p + line.size();
  for (;;) {
    if (row.size() == width) throw ragged_row(row_number, name, width);
    double value = 0.0;
    const auto [parsed, ec] = std::from_chars(p, end, value);
    const char* cell_end = parsed;
    if (ec != std::errc() || (parsed != end && *parsed != ',') ||
        static_cast<std::size_t>(parsed - p) > kMaxCellChars ||
        !plain_value(p, parsed, value)) {
      cell_end = std::find(p, end, ',');
      value = parse_cell({p, static_cast<std::size_t>(cell_end - p)},
                         row_number, name);
    }
    row.push_back(value);
    if (cell_end == end || cell_end + 1 == end) break;
    p = cell_end + 1;
  }
  if (row.size() != width || line.back() == ',') {
    throw ragged_row(row_number, name, width);
  }
}

// The scanner behind parse() and read(): every check and message, with the
// rows going to `sink`.
void scan(std::istream& in, const std::string& name, RowSink& sink) {
  LineScanner scanner(in);
  std::string_view line;
  if (!scanner.next(line)) throw Error("csv: empty document " + name);
  std::vector<std::string> header = parse_header(line, name);
  if (header.empty()) throw Error("csv: empty header in " + name);
  const std::size_t width = header.size();
  sink.header(std::move(header));

  // One row buffer for the whole scan: rows reach the sink as views.
  std::vector<double> row;
  row.reserve(width);
  std::size_t rows = 0;
  std::size_t row_number = 1;
  while (scanner.next(line)) {
    ++row_number;
    if (line.empty()) continue;
    if (rows >= kMaxRows) throw Error("csv: too many rows in " + name);
    ++rows;
    row.clear();
    parse_row(line, width, row_number, name, row);
    sink.row(row);
  }
}

std::ifstream open(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("csv::read: cannot open " + path);
  return in;
}

}  // namespace

void write(const std::string& path, const std::vector<std::string>& header,
           const std::vector<std::vector<double>>& rows) {
  std::ofstream out(path);
  if (!out) throw Error("csv::write: cannot open " + path);
  std::string buf;
  buf.reserve(kReadChunkBytes + 4096);
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i) buf += ',';
    buf += header[i];
  }
  buf += '\n';
  // to_chars(general, 12) formats exactly as printf("%.12g"), which is what
  // an ostream with precision(12) prints.
  char cell[32];
  for (const auto& row : rows) {
    expects(row.size() == header.size(), "csv::write: row width == header");
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) buf += ',';
      const auto res = std::to_chars(cell, cell + sizeof cell, row[i],
                                     std::chars_format::general, 12);
      buf.append(cell, res.ptr);
    }
    buf += '\n';
    if (buf.size() >= kReadChunkBytes) {
      out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (!out) throw Error("csv::write: write failed for " + path);
}

Document parse(std::istream& in, const std::string& name) {
  struct DocumentSink final : RowSink {
    Document doc;
    void header(std::vector<std::string> cells) override {
      doc.header = std::move(cells);
    }
    void row(std::span<const double> cells) override {
      doc.rows.emplace_back(cells.begin(), cells.end());
    }
  } sink;
  scan(in, name, sink);
  Document& doc = sink.doc;

  // Parse postcondition relied on by every consumer: rectangular output.
  PTRACK_CHECK_MSG(
      std::all_of(doc.rows.begin(), doc.rows.end(),
                  [&](const std::vector<double>& r) {
                    return r.size() == doc.header.size();
                  }),
      "csv::parse: document is rectangular");
  return std::move(doc);
}

void read(const std::string& path, RowSink& sink) {
  std::ifstream in = open(path);
  scan(in, path, sink);
}

Document read(const std::string& path) {
  std::ifstream in = open(path);
  return parse(in, path);
}

}  // namespace ptrack::csv
