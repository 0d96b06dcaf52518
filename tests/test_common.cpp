// Unit tests for the common substrate: Vec3/Mat3, angles, stats, CDF, RNG,
// CSV and table rendering, error types.

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>

#include "common/angles.hpp"
#include "common/cdf.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/mat3.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/vec3.hpp"

using namespace ptrack;

TEST(Vec3, BasicArithmetic) {
  const Vec3 a{1, 2, 3};
  const Vec3 b{4, 5, 6};
  EXPECT_EQ(a + b, (Vec3{5, 7, 9}));
  EXPECT_EQ(b - a, (Vec3{3, 3, 3}));
  EXPECT_EQ(a * 2.0, (Vec3{2, 4, 6}));
  EXPECT_EQ(2.0 * a, a * 2.0);
  EXPECT_EQ(-a, (Vec3{-1, -2, -3}));
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
}

TEST(Vec3, CrossProductRightHanded) {
  EXPECT_EQ(kAnterior.cross(kLateral), kVertical);
  EXPECT_EQ(kLateral.cross(kVertical), kAnterior);
  EXPECT_EQ(kVertical.cross(kAnterior), kLateral);
}

TEST(Vec3, NormAndNormalize) {
  const Vec3 v{3, 4, 0};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.norm2(), 25.0);
  EXPECT_NEAR(v.normalized().norm(), 1.0, 1e-12);
  EXPECT_EQ((Vec3{}).normalized(), Vec3{});
}

TEST(Mat3, RotZQuarterTurn) {
  const Mat3 r = Mat3::rot_z(kPi / 2);
  const Vec3 v = r.apply({1, 0, 0});
  EXPECT_NEAR(v.x, 0.0, 1e-12);
  EXPECT_NEAR(v.y, 1.0, 1e-12);
}

TEST(Mat3, TransposeIsInverseForRotations) {
  const Mat3 r = Mat3::from_euler(0.3, -0.5, 1.1);
  const Vec3 v{0.2, -0.7, 1.5};
  const Vec3 roundtrip = r.transposed().apply(r.apply(v));
  EXPECT_NEAR(roundtrip.x, v.x, 1e-12);
  EXPECT_NEAR(roundtrip.y, v.y, 1e-12);
  EXPECT_NEAR(roundtrip.z, v.z, 1e-12);
}

TEST(Mat3, AxisAngleMatchesElementaryRotations) {
  const Mat3 a = Mat3::axis_angle({0, 0, 1}, 0.7);
  const Mat3 b = Mat3::rot_z(0.7);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) EXPECT_NEAR(a.m[i][j], b.m[i][j], 1e-12);
}

TEST(Mat3, AxisAnglePreservesAxis) {
  const Vec3 axis = Vec3{1, 2, -1}.normalized();
  const Mat3 r = Mat3::axis_angle(axis, 1.2345);
  const Vec3 rotated = r.apply(axis);
  EXPECT_NEAR(rotated.x, axis.x, 1e-12);
  EXPECT_NEAR(rotated.y, axis.y, 1e-12);
  EXPECT_NEAR(rotated.z, axis.z, 1e-12);
}

TEST(Angles, Conversions) {
  EXPECT_DOUBLE_EQ(deg2rad(180.0), kPi);
  EXPECT_DOUBLE_EQ(rad2deg(kPi / 2), 90.0);
}

TEST(Angles, WrapPi) {
  EXPECT_NEAR(wrap_pi(3 * kPi), kPi, 1e-12);
  EXPECT_NEAR(wrap_pi(-3 * kPi), kPi, 1e-12);
  EXPECT_NEAR(wrap_pi(0.5), 0.5, 1e-12);
}

TEST(Angles, Wrap2Pi) {
  EXPECT_NEAR(wrap_2pi(-0.1), kTwoPi - 0.1, 1e-12);
  EXPECT_NEAR(wrap_2pi(kTwoPi + 0.1), 0.1, 1e-12);
}

TEST(Angles, AngleDiff) {
  EXPECT_NEAR(angle_diff(0.1, kTwoPi - 0.1), 0.2, 1e-12);
  EXPECT_NEAR(angle_diff(-0.1, 0.1), -0.2, 1e-12);
}

TEST(Stats, MeanVarianceStddev) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(stats::mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(stats::variance(xs), 2.0);
  EXPECT_DOUBLE_EQ(stats::sample_variance(xs), 2.5);
  EXPECT_NEAR(stats::stddev(xs), std::sqrt(2.0), 1e-12);
}

TEST(Stats, MedianAndPercentile) {
  const std::vector<double> odd{5, 1, 3};
  EXPECT_DOUBLE_EQ(stats::median(odd), 3.0);
  const std::vector<double> even{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(stats::median(even), 2.5);
  EXPECT_DOUBLE_EQ(stats::percentile(even, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::percentile(even, 100.0), 4.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> a{1, 2, 3, 4};
  const std::vector<double> b{2, 4, 6, 8};
  EXPECT_NEAR(stats::pearson(a, b), 1.0, 1e-12);
  const std::vector<double> c{8, 6, 4, 2};
  EXPECT_NEAR(stats::pearson(a, c), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSignalIsZero) {
  const std::vector<double> a{1, 2, 3, 4};
  const std::vector<double> c{7, 7, 7, 7};
  EXPECT_DOUBLE_EQ(stats::pearson(a, c), 0.0);
}

TEST(Stats, DemeanedHasZeroMean) {
  const std::vector<double> xs{10, 20, 30};
  const auto d = stats::demeaned(xs);
  EXPECT_NEAR(stats::mean(d), 0.0, 1e-12);
}

TEST(Stats, PreconditionsThrow) {
  const std::vector<double> empty;
  EXPECT_THROW(stats::mean(empty), InvalidArgument);
  EXPECT_THROW(stats::percentile(std::vector<double>{1.0}, 120.0),
               InvalidArgument);
  EXPECT_THROW(stats::sample_variance(std::vector<double>{1.0}),
               InvalidArgument);
}

TEST(Stats, RunningMatchesBatch) {
  const std::vector<double> xs{0.5, -1.5, 2.0, 4.5, -3.0, 0.0};
  stats::Running r;
  for (double x : xs) r.add(x);
  EXPECT_EQ(r.count(), xs.size());
  EXPECT_NEAR(r.mean(), stats::mean(xs), 1e-12);
  EXPECT_NEAR(r.variance(), stats::variance(xs), 1e-12);
  EXPECT_DOUBLE_EQ(r.min(), -3.0);
  EXPECT_DOUBLE_EQ(r.max(), 4.5);
}

TEST(Stats, RunningEmptyThrows) {
  stats::Running r;
  EXPECT_THROW((void)r.mean(), InvalidArgument);
}

TEST(Cdf, QuantilesAndAt) {
  const std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const EmpiricalCdf cdf(xs);
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 10.0);
  EXPECT_DOUBLE_EQ(cdf.mean(), 5.5);
  EXPECT_DOUBLE_EQ(cdf.at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.at(5.0), 0.5);
  EXPECT_NEAR(cdf.quantile(0.5), 5.5, 1e-12);
}

TEST(Cdf, SeriesIsMonotone) {
  const std::vector<double> xs{3, 1, 4, 1, 5, 9, 2, 6};
  const EmpiricalCdf cdf(xs);
  const auto series = cdf.series(10);
  ASSERT_EQ(series.size(), 10u);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].second, series[i - 1].second);
    EXPECT_GE(series[i].first, series[i - 1].first);
  }
}

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(2);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalZeroStddevIsMean) {
  Rng rng(3);
  EXPECT_DOUBLE_EQ(rng.normal(5.0, 0.0), 5.0);
}

TEST(Rng, ForkDecouplesStreams) {
  Rng a(7);
  Rng fork = a.fork();
  // The fork and the parent produce different streams.
  EXPECT_NE(a.uniform(0, 1), fork.uniform(0, 1));
}

TEST(Csv, RoundTrip) {
  const std::string path = "/tmp/ptrack_test_roundtrip.csv";
  const std::vector<std::string> header{"a", "b"};
  const std::vector<std::vector<double>> rows{{1.5, 2.5}, {-3.25, 1e-6}};
  csv::write(path, header, rows);
  const csv::Document doc = csv::read(path);
  EXPECT_EQ(doc.header, header);
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(doc.rows[1][0], -3.25);
  EXPECT_DOUBLE_EQ(doc.rows[1][1], 1e-6);
  std::remove(path.c_str());
}

TEST(Csv, MissingFileThrows) {
  EXPECT_THROW(csv::read("/nonexistent/definitely/missing.csv"), Error);
}

namespace {

std::string temp_csv_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("ptrack_test_csv_" + tag + ".csv"))
      .string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Expects both documents to hold the same header and bit-identical rows.
void expect_same_document(const csv::Document& a, const csv::Document& b) {
  EXPECT_EQ(a.header, b.header);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    ASSERT_EQ(a.rows[i].size(), b.rows[i].size()) << "row " << i;
    EXPECT_EQ(std::memcmp(a.rows[i].data(), b.rows[i].data(),
                          a.rows[i].size() * sizeof(double)),
              0)
        << "row " << i;
  }
}

// Builds a CSV text of three columns whose data rows are recorded cell by
// cell, so a parse can be checked against std::stod of every cell's text.
class CsvText {
 public:
  CsvText() : text_("a,b,c\n") {}

  void row(const std::vector<std::string>& cells, bool newline = true) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i) text_ += ',';
      text_ += cells[i];
    }
    if (newline) text_ += '\n';
    cells_.push_back(cells);
  }

  void blank_line() { text_ += '\n'; }

  // Appends random rows, then one zero-padded row sized so that the text
  // ends exactly at byte `target`.
  void fill_to(std::size_t target, Rng& rng) {
    while (text_.size() + 100 < target) {
      std::vector<std::string> cells;
      for (int c = 0; c < 3; ++c) cells.push_back(random_cell(rng));
      row(cells);
    }
    ASSERT_GE(target, text_.size() + 6);
    const std::size_t digits = target - text_.size() - 3;  // 2 commas, '\n'
    ASSERT_LE(digits, 3 * csv::kMaxCellChars);
    std::vector<std::string> cells;
    for (std::size_t c = 0; c < 3; ++c) {
      const std::size_t n = digits / 3 + (c < digits % 3 ? 1 : 0);
      cells.push_back(std::string(n - 1, '0') + std::to_string(c + 1));
    }
    row(cells);
    ASSERT_EQ(text_.size(), target);
  }

  const std::string& text() const { return text_; }
  std::size_t size() const { return text_.size(); }

  void expect_values(const csv::Document& doc) const {
    ASSERT_EQ(doc.rows.size(), cells_.size());
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      for (std::size_t j = 0; j < 3; ++j) {
        const double want = std::stod(cells_[i][j]);
        ASSERT_EQ(std::memcmp(&doc.rows[i][j], &want, sizeof want), 0)
            << "row " << i << " cell '" << cells_[i][j] << "'";
      }
    }
  }

 private:
  static std::string random_cell(Rng& rng) {
    static const char* const kFormats[] = {"%.17g", "%.12g", "%.6f", "%.3e",
                                           "%g"};
    const double v = rng.uniform(-1.0, 1.0) *
                     std::pow(10.0, rng.uniform_int(-12, 12));
    char buf[64];
    std::snprintf(buf, sizeof buf, kFormats[rng.uniform_int(0, 4)], v);
    return buf;
  }

  std::string text_;
  std::vector<std::vector<std::string>> cells_;
};

}  // namespace

// parse() reads in kReadChunkBytes chunks. Rows, cells and blank lines are
// laid across the chunk boundaries; the stream and file readers must agree
// with each other and with std::stod of every cell.
TEST(Csv, ChunkBoundariesAreInvisible) {
  constexpr std::size_t kChunk = csv::kReadChunkBytes;
  Rng rng(11);
  CsvText doc;
  // Boundary 1 falls inside a cell.
  doc.fill_to(kChunk - 5, rng);
  doc.row({"123.456789", "-2.5e-3", "7"});
  // Boundary 2 falls just after a comma.
  doc.fill_to(2 * kChunk - 4, rng);
  doc.row({"1.5", "2.25", "3"});
  // Boundary 3: a chunk ends with a row's '\n' and the next one opens with a
  // blank line.
  doc.fill_to(3 * kChunk, rng);
  doc.blank_line();
  // Boundary 4: a blank line is the last byte of a chunk.
  doc.fill_to(4 * kChunk - 1, rng);
  doc.blank_line();
  // Boundary 5 falls inside the final line, which has no '\n'.
  doc.fill_to(5 * kChunk - 3, rng);
  doc.row({"0.000125", "42", "-0"}, /*newline=*/false);
  ASSERT_GT(doc.size(), 5 * kChunk);

  std::istringstream in(doc.text());
  const csv::Document parsed = csv::parse(in, "chunks");
  doc.expect_values(parsed);
  EXPECT_EQ(parsed.header, (std::vector<std::string>{"a", "b", "c"}));

  const std::string path = temp_csv_path("chunks");
  {
    std::ofstream out(path, std::ios::binary);
    out << doc.text();
  }
  expect_same_document(csv::read(path), parsed);
  std::remove(path.c_str());
}

// A line longer than a chunk (here the header and every row) is carried
// across several refills.
TEST(Csv, LinesLongerThanAChunk) {
  const std::size_t width = csv::kMaxColumns;
  std::string text;
  for (std::size_t c = 0; c < width; ++c) {
    text += (c ? ",column_number_" : "column_number_") + std::to_string(c);
  }
  text += '\n';
  for (int r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < width; ++c) {
      if (c) text += ',';
      text += std::to_string(r) + "." + std::to_string(c) +
              "00000000000000000001";
    }
    text += '\n';
  }
  ASSERT_GT(text.find('\n'), csv::kReadChunkBytes);  // the shortest line

  std::istringstream in(text);
  const csv::Document doc = csv::parse(in, "wide");
  ASSERT_EQ(doc.header.size(), width);
  EXPECT_EQ(doc.header.back(), "column_number_" + std::to_string(width - 1));
  ASSERT_EQ(doc.rows.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < width; ++c) {
      const std::string cell =
          std::to_string(r) + "." + std::to_string(c) + "00000000000000000001";
      ASSERT_EQ(doc.rows[static_cast<std::size_t>(r)][c], std::stod(cell));
    }
  }
}

// csv::write formats cells with std::to_chars; its bytes must equal what an
// ostream with precision(12) prints.
TEST(Csv, WriteMatchesOstreamPrecision12) {
  Rng rng(5);
  std::vector<double> values = {0.0,    -0.0,   1e-6,   100.0,  1e21,  -1e-300,
                                1e300,  0.1,    1.0 / 3, 123456789012345.0,
                                5e-324, 1e-5,   99999999999.95,
                                std::numeric_limits<double>::max()};
  while (values.size() < 3000) {
    values.push_back(rng.uniform(-1.0, 1.0) *
                     std::pow(10.0, rng.uniform_int(-300, 300)));
  }
  const std::vector<std::string> header{"x", "y", "z"};
  std::vector<std::vector<double>> rows;
  for (std::size_t i = 0; i + 3 <= values.size(); i += 3) {
    rows.push_back({values[i], values[i + 1], values[i + 2]});
  }

  std::ostringstream expected;
  expected << "x,y,z\n";
  expected.precision(12);
  for (const auto& row : rows) {
    expected << row[0] << ',' << row[1] << ',' << row[2] << '\n';
  }

  const std::string path = temp_csv_path("write_format");
  csv::write(path, header, rows);
  EXPECT_EQ(slurp(path), expected.str());
  std::remove(path.c_str());
}

namespace {

/// A cell's outcome by the reference rule: std::stod must consume the whole
/// cell without a range error and yield a finite value.
struct CellOutcome {
  bool accepted = false;
  double value = 0.0;
  std::string message;
};

CellOutcome reference_cell(const std::string& cell, const std::string& where) {
  CellOutcome out;
  if (cell.empty() || cell.size() > csv::kMaxCellChars) {
    out.message = "csv: empty or oversized cell in " + where;
    return out;
  }
  std::size_t consumed = 0;
  try {
    out.value = std::stod(cell, &consumed);
  } catch (const std::exception&) {
    out.message = "csv: non-numeric cell '" + cell + "' in " + where;
    return out;
  }
  if (consumed != cell.size()) {
    out.message = "csv: trailing junk in cell '" + cell + "' in " + where;
  } else if (!std::isfinite(out.value)) {
    out.message = "csv: non-finite cell '" + cell + "' in " + where;
  } else {
    out.accepted = true;
  }
  return out;
}

/// Parses `text` and returns the outcome of the cell at `column` of its
/// one data row.
CellOutcome parsed_cell(const std::string& text, std::size_t column) {
  CellOutcome out;
  std::istringstream in(text);
  try {
    const csv::Document doc = csv::parse(in, "cells");
    out.accepted = true;
    out.value = doc.rows.at(0).at(column);
  } catch (const Error& e) {
    out.message = e.what();
  }
  return out;
}

void expect_same_outcome(const CellOutcome& got, const CellOutcome& want,
                         const std::string& label) {
  ASSERT_EQ(got.accepted, want.accepted)
      << label << ": " << got.message << want.message;
  EXPECT_EQ(got.message, want.message) << label;
  if (!want.accepted) return;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value),
            std::bit_cast<std::uint64_t>(want.value))
      << label << ": " << got.value << " vs " << want.value;
}

std::string digit_string(Rng& rng, int digits) {
  std::string out;
  for (int i = 0; i < digits; ++i) {
    out += static_cast<char>('0' + rng.uniform_int(i == 0 ? 1 : 0, 9));
  }
  return out;
}

}  // namespace

// Every cell the exact-decimal tier could take, or nearly take, is decided
// as by the reference: accept or reject, message and value bits. Cells sit
// alone on a line (ending at the line's end) and first in a two-cell row
// (ending at ','); from_chars, where it parses the whole cell, agrees too.
TEST(Csv, ExactDecimalFastPathMatchesReference) {
  std::vector<std::string> cells = {
      // Mantissa bound: 2^53 takes the tier, 2^53 + 1 does not.
      "9007199254740992", "9007199254740993", "9007199254740991",
      "-9007199254740993", "9007199254740993e-3", "9007199254740993e7",
      "900719925474099.3", "9007199254740992e22", "9007199254740993e22",
      // 15 to 20 digits.
      "123456789012345", "1234567890123456", "12345678901234567",
      "123456789012345678", "1234567890123456789", "12345678901234567890",
      "0.1234567890123456789", "0.12345678901234567890", "9999999999999999999",
      // Exponent bound: 10^22 is exact, 10^23 is not.
      "1e22", "1e23", "1e-22", "1e-23", "123.456e-20", "123.456e-19",
      "4.5e21", "45e21", "0.5e-21", "0.5e-22",
      // Leading zeros, lone dots, signs and zeros.
      "000.5", "5.", ".5", "-.5", "-5.", "-0", "0", "0.000", "-0.000", "00",
      "0e5", ".", "-", "-.", "..5", "5..", "1.2.3", "--1", "-+1",
      // Exponent spellings: 3 and 4 digits, signs, missing digits.
      "1e010", "1e-010", "1e+010", "1E5", "1e0100", "1e-0005", "1e0001",
      "1e", "1e+", "1e-", "1ee5", "1e5.5", "1e1000", "1e-1000",
      // Other grammar that only strtod accepts, and junk.
      "+1", " 1", "\t1", "0x1p3", "0X10", "1 ", "1x", "inf", "nan", "1.5\r",
      "5\r", "1e5\r",
      // Tiny and huge values around the double range.
      "1e-310", "4.9e-324", "2.2250738585072014e-308", "1.7976931348623157e308",
      "1e308", "1e-300"};
  Rng rng(15);
  char buf[64];
  for (int i = 0; i < 4000; ++i) {
    const double v =
        rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform_int(-30, 40));
    for (const int precision : {6, 12, 17}) {
      const auto res = std::to_chars(buf, buf + sizeof buf, v,
                                     std::chars_format::general, precision);
      cells.emplace_back(buf, res.ptr);
    }
    const auto shortest = std::to_chars(buf, buf + sizeof buf, v);
    cells.emplace_back(buf, shortest.ptr);
    // Random mantissas of 1 to 21 digits, a dot anywhere and exponents on
    // both sides of the exact range: double rounding shows up here if the
    // tier's bounds were too wide.
    std::string m = digit_string(rng, rng.uniform_int(1, 21));
    if (rng.chance(0.7)) {
      m.insert(static_cast<std::size_t>(
                   rng.uniform_int(0, static_cast<int>(m.size()))),
               ".");
    }
    if (rng.chance(0.3)) m = "-" + m;
    if (rng.chance(0.6)) m += "e" + std::to_string(rng.uniform_int(-40, 40));
    cells.push_back(m);
  }

  for (const std::string& cell : cells) {
    const CellOutcome alone = parsed_cell("a\n" + cell + "\n", 0);
    expect_same_outcome(alone, reference_cell(cell, "row 2 of cells"),
                        "'" + cell + "'");
    const CellOutcome first = parsed_cell("a,b\n" + cell + ",1\n", 0);
    expect_same_outcome(first, reference_cell(cell, "row 2 of cells"),
                        "'" + cell + ",1'");
    const CellOutcome crlf = parsed_cell("a\n" + cell + "\r\n", 0);
    expect_same_outcome(crlf, reference_cell(cell + "\r", "row 2 of cells"),
                        "'" + cell + "\\r'");
    double fc = 0.0;
    const char* const end = cell.data() + cell.size();
    const auto [ptr, ec] = std::from_chars(cell.data(), end, fc);
    if (alone.accepted && ec == std::errc() && ptr == end) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(fc),
                std::bit_cast<std::uint64_t>(alone.value))
          << "'" << cell << "'";
    }
  }
}

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(static_cast<long long>(42)), "42");
  EXPECT_EQ(Table::pct(0.937, 1), "93.7%");
}

TEST(Error, CheckThrowsWithLocation) {
  try {
    check(false, "should fail");
    FAIL() << "check did not throw";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("should fail"), std::string::npos);
  }
}

TEST(Error, ExpectsThrowsInvalidArgument) {
  EXPECT_THROW(expects(false, "bad arg"), InvalidArgument);
  EXPECT_NO_THROW(expects(true, "fine"));
}
