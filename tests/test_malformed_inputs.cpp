// Table-driven coverage of the malformed-input paths at the parsing trust
// boundaries: csv::parse/read, imu::trace_from_document/load_csv, and
// cli::Args. Every `throw Error` site in src/common/csv.cpp and
// src/imu/trace_io.cpp is exercised; the same hostile shapes are committed
// as fuzz seeds under fuzz/corpus/.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "imu/trace_io.hpp"

namespace {

using namespace ptrack;

std::string write_temp(const std::string& tag, const std::string& content) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ptrack_malformed_" + tag + ".csv"))
          .string();
  std::ofstream out(path, std::ios::binary);
  out << content;
  return path;
}

// Expects `fn` to throw a ptrack::Error whose message contains `needle`.
template <typename Fn>
void expect_error_containing(const Fn& fn, const std::string& needle,
                             const std::string& context) {
  try {
    fn();
    FAIL() << context << ": expected ptrack::Error, nothing thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << context << ": message '" << e.what() << "' lacks '" << needle
        << "'";
  } catch (const std::exception& e) {
    FAIL() << context << ": wrong exception type: " << e.what();
  }
}

struct CsvCase {
  const char* tag;
  const char* content;
  const char* expect_substring;
};

TEST(MalformedCsv, ParseRejectsEveryHostileShape) {
  const std::vector<CsvCase> cases = {
      {"empty_file", "", "empty document"},
      {"empty_header", "\n1,2\n", "empty header"},
      {"ragged_long", "a,b\n1,2,3\n", "ragged row"},
      {"ragged_short", "a,b\n1\n", "ragged row"},
      {"trailing_comma", "a,b\n1,2,\n", "ragged row"},
      {"nonnumeric", "a,b\n1,x\n", "non-numeric cell"},
      {"empty_cell", "a,b\n1,\n2,3\n", "ragged row"},
      {"nan_cell", "a,b\nnan,2\n", "non-finite cell"},
      {"inf_cell", "a,b\n1,inf\n", "non-finite cell"},
      {"neg_inf_cell", "a,b\n-inf,0\n", "non-finite cell"},
      {"trailing_junk", "a,b\n1.5x,2\n", "trailing junk"},
      {"space_junk", "a,b\n1 2,3\n", "trailing junk"},
  };
  for (const CsvCase& c : cases) {
    std::istringstream in(c.content);
    expect_error_containing([&] { (void)csv::parse(in, c.tag); },
                            c.expect_substring, c.tag);
  }
}

TEST(MalformedCsv, OversizedCellRejected) {
  const std::string big(csv::kMaxCellChars + 1, '1');
  std::istringstream in("a\n" + big + "\n");
  expect_error_containing([&] { (void)csv::parse(in, "oversized"); },
                          "oversized cell", "oversized");
}

TEST(MalformedCsv, TooManyColumnsRejected) {
  std::string header = "c0";
  for (std::size_t i = 1; i <= csv::kMaxColumns; ++i) {
    header += ",c" + std::to_string(i);
  }
  std::istringstream in(header + "\n");
  expect_error_containing([&] { (void)csv::parse(in, "wide"); },
                          "too many columns", "wide");
}

TEST(MalformedCsv, ReadRejectsMissingFile) {
  expect_error_containing(
      [] { (void)csv::read("/nonexistent/definitely/missing.csv"); },
      "cannot open", "missing file");
}

TEST(MalformedCsv, WriteRejectsBadPathAndRaggedRows) {
  expect_error_containing(
      [] { csv::write("/nonexistent/dir/out.csv", {"a"}, {}); },
      "cannot open", "bad path");
  const std::string path = write_temp("write_ragged", "");
  EXPECT_THROW(csv::write(path, {"a", "b"}, {{1.0}}), InvalidArgument);
  std::remove(path.c_str());
}

// The accepted cell grammar, pinned cell by cell: a cell is accepted iff
// strtod's grammar (leading whitespace, an optional sign, decimal or hex
// digits, inf/nan spellings) consumes all of it, the value is finite, and
// strtod reports no range error (so inexact subnormals are rejected too).
TEST(MalformedCsv, CellGrammarAccepted) {
  const std::string long_cell =
      "0." + std::string(csv::kMaxCellChars - 3, '0') + "5";
  ASSERT_EQ(long_cell.size(), csv::kMaxCellChars);
  const std::vector<std::pair<std::string, double>> cases = {
      {"+1", 1.0},   {" 1.5", 1.5},  {"\t2", 2.0},   {"0x1p3", 8.0},
      {"-0", -0.0},  {".5", 0.5},    {"5.", 5.0},    {"00.5", 0.5},
      {"-.5", -0.5}, {"1e+5", 1e5},  {"1E-3", 1e-3}, {long_cell, 5e-62},
  };
  for (const auto& [cell, expected] : cases) {
    std::istringstream in("a\n" + cell + "\n");
    const csv::Document doc = csv::parse(in, "grammar");
    ASSERT_EQ(doc.rows.size(), 1u) << cell;
    const double got = doc.rows[0][0];
    EXPECT_EQ(got, expected) << "'" << cell << "'";
    EXPECT_EQ(std::signbit(got), std::signbit(expected))
        << "'" << cell << "'";
    EXPECT_EQ(got, std::stod(cell)) << "'" << cell << "'";
  }
}

TEST(MalformedCsv, CellGrammarRejectedWithExactMessages) {
  const std::string long_cell(csv::kMaxCellChars + 1, '1');
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"1e-310", "csv: non-numeric cell '1e-310' in row 2 of grammar"},
      {"1e-400", "csv: non-numeric cell '1e-400' in row 2 of grammar"},
      {"1e400", "csv: non-numeric cell '1e400' in row 2 of grammar"},
      {"-", "csv: non-numeric cell '-' in row 2 of grammar"},
      {".", "csv: non-numeric cell '.' in row 2 of grammar"},
      {"1e", "csv: trailing junk in cell '1e' in row 2 of grammar"},
      {"1.5\r", "csv: trailing junk in cell '1.5\r' in row 2 of grammar"},
      {"1 ", "csv: trailing junk in cell '1 ' in row 2 of grammar"},
      {"inf", "csv: non-finite cell 'inf' in row 2 of grammar"},
      {"-nan", "csv: non-finite cell '-nan' in row 2 of grammar"},
      {long_cell, "csv: empty or oversized cell in row 2 of grammar"},
  };
  for (const auto& [cell, message] : cases) {
    std::istringstream in("a\n" + cell + "\n");
    try {
      (void)csv::parse(in, "grammar");
      ADD_FAILURE() << "'" << cell << "' was accepted";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
  }
}

// Exact messages of the document-level throw sites.
TEST(MalformedCsv, DocumentErrorsHaveExactMessages) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"", "csv: empty document doc"},
      {"\n1\n", "csv: empty header in doc"},
      {"a,b\n1,2\n\n3\n", "csv: ragged row 4 in doc (expected 2 cells)"},
      {"a\n1,\n", "csv: ragged row 2 in doc (expected 1 cells)"},
      {"a\n,\n", "csv: empty or oversized cell in row 2 of doc"},
      {"a,b\n1,x,2\n", "csv: non-numeric cell 'x' in row 2 of doc"},
      {"a\n1,x\n", "csv: ragged row 2 in doc (expected 1 cells)"},
  };
  for (const auto& [content, message] : cases) {
    std::istringstream in(content);
    try {
      (void)csv::parse(in, "doc");
      ADD_FAILURE() << "accepted: " << content;
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
  }
}

TEST(MalformedCsv, BlankLinesAreSkippedNotRagged) {
  std::istringstream in("a,b\n\n1,2\n\n");
  const csv::Document doc = csv::parse(in, "blank-lines");
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_EQ(doc.rows[0], (std::vector<double>{1.0, 2.0}));
}

constexpr const char* kImuHeader = "t,ax,ay,az,gx,gy,gz\n";

struct TraceCase {
  const char* tag;
  std::string content;
  const char* expect_substring;
};

TEST(MalformedTrace, LoadCsvRejectsEveryHostileShape) {
  const std::vector<TraceCase> cases = {
      {"bad_header", "time,ax,ay,az,gx,gy,gz\n100,0,0,0,0,0,0\n",
       "unexpected header"},
      {"missing_metadata", std::string(kImuHeader), "missing metadata row"},
      {"negative_fs", std::string(kImuHeader) + "-50,0,0,0,0,0,0\n",
       "non-positive fs"},
      {"zero_fs", std::string(kImuHeader) + "0,0,0,0,0,0,0\n",
       "non-positive fs"},
      {"implausible_fs",
       std::string(kImuHeader) + "1e9,0,0,0,0,0,0\n0,0,0,9.8,0,0,0\n",
       "implausible fs"},
      {"nan_fs", std::string(kImuHeader) + "nan,0,0,0,0,0,0\n",
       "non-finite cell"},  // rejected one layer down, in csv::parse
      {"nonmonotonic_t",
       std::string(kImuHeader) +
           "100,0,0,0,0,0,0\n0.02,0,0,9.8,0,0,0\n0.01,0,0,9.8,0,0,0\n",
       "non-monotonic timestamp"},
      {"truncated_mid_row",
       std::string(kImuHeader) + "100,0,0,0,0,0,0\n0.01,0,0,9.8\n",
       "ragged row"},
  };
  for (const TraceCase& c : cases) {
    const std::string path = write_temp(c.tag, c.content);
    expect_error_containing([&] { (void)imu::load_csv(path); },
                            c.expect_substring, c.tag);
    std::remove(path.c_str());
  }
}

TEST(MalformedTrace, DocumentLevelValidation) {
  // Shapes csv::parse cannot produce but a programmatic caller can.
  csv::Document doc;
  doc.header = {"t", "ax", "ay", "az", "gx", "gy", "gz"};
  doc.rows = {{std::nan(""), 0, 0, 0, 0, 0, 0}};
  expect_error_containing(
      [&] { (void)imu::trace_from_document(doc, "prog"); },
      "non-finite or non-positive fs", "nan fs via document");

  doc.rows = {{100, 0, 0, 0, 0, 0, 0},
              {std::nan(""), 0, 0, 9.8, 0, 0, 0}};
  expect_error_containing(
      [&] { (void)imu::trace_from_document(doc, "prog"); },
      "non-finite timestamp", "nan timestamp via document");
}

TEST(MalformedTrace, ValidTraceRoundTrips) {
  const std::string path = write_temp(
      "valid", std::string(kImuHeader) +
                   "100,0,0,0,0,0,0\n0,0,0,9.8,0.1,0,0\n0.01,0.1,0,9.7,0,0,0\n");
  const imu::Trace t = imu::load_csv(path);
  EXPECT_DOUBLE_EQ(t.fs(), 100.0);
  EXPECT_EQ(t.size(), 2u);
  std::remove(path.c_str());
}

const std::vector<cli::OptionSpec> kSpecs = {
    {"input", "input path", "", false},
    {"scale", "scale factor", "1.0", false},
    {"count", "repeat count", "3", false},
    {"verbose", "chatty output", "", true},
};

cli::Args parse_cli(std::vector<std::string> tokens) {
  tokens.insert(tokens.begin(), "prog");
  std::vector<const char*> argv;
  argv.reserve(tokens.size());
  for (const std::string& t : tokens) argv.push_back(t.c_str());
  return cli::Args(static_cast<int>(argv.size()), argv.data(), kSpecs);
}

TEST(MalformedCli, RejectsEveryHostileShape) {
  EXPECT_THROW((void)parse_cli({"--nope"}), InvalidArgument);
  EXPECT_THROW((void)parse_cli({"stray-positional"}), InvalidArgument);
  EXPECT_THROW((void)parse_cli({"--input"}), InvalidArgument);
  EXPECT_THROW((void)parse_cli({"--verbose=1"}), InvalidArgument);
  EXPECT_THROW((void)parse_cli({"--scale", "abc"}).get_double("scale"),
               InvalidArgument);
  EXPECT_THROW((void)parse_cli({"--count",
                                "999999999999999999999999"})
                   .get_int("count"),
               InvalidArgument);
  EXPECT_THROW((void)parse_cli({}).get_string("input"), InvalidArgument);
}

}  // namespace
