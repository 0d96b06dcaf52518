// Runtime tests: BatchRunner is deterministic — the same batch produces
// bit-identical TrackResults at 1 and 8 worker threads, in input order,
// matching a direct single-threaded PTrack run. Fault isolation: a trace
// that throws in the pipeline or a CSV that fails to parse is reported in
// its own slot and the rest of the batch still completes. The parallel
// trace loader gives the same listing at every thread count, and
// imu::load_csv's row scanner agrees with the Document path file by file.
// Loads on a caller's scheduler run only on its threads, and the sizing
// pass reserves one sample per line.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_hooks.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "core/ptrack.hpp"
#include "imu/trace_io.hpp"
#include "obs/trace.hpp"
#include "runtime/batch_runner.hpp"
#include "synth/synthesizer.hpp"

using namespace ptrack;

namespace {

std::vector<imu::Trace> make_batch(std::size_t count) {
  std::vector<imu::Trace> traces;
  traces.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng(0x5eed + i);
    synth::UserProfile user;
    user.arm_length = 0.62 + 0.02 * static_cast<double>(i);
    user.leg_length = 0.85 + 0.015 * static_cast<double>(i);
    // Mix of activities and durations so trace lengths and content differ.
    const double dur = 20.0 + 5.0 * static_cast<double>(i % 3);
    const auto scenario = (i % 2 == 0) ? synth::Scenario::pure_walking(dur)
                                       : synth::Scenario::pure_stepping(dur);
    traces.push_back(
        synth::synthesize(scenario, user, synth::SynthOptions{}, rng).trace);
  }
  return traces;
}

void expect_identical(const core::TrackResult& a, const core::TrackResult& b) {
  EXPECT_EQ(a.steps, b.steps);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    // Bit-identical, not merely close: determinism is the contract.
    EXPECT_EQ(a.events[i].t, b.events[i].t);
    EXPECT_EQ(a.events[i].stride, b.events[i].stride);
    EXPECT_EQ(a.events[i].type, b.events[i].type);
  }
  ASSERT_EQ(a.cycles.size(), b.cycles.size());
  for (std::size_t i = 0; i < a.cycles.size(); ++i) {
    EXPECT_EQ(a.cycles[i].begin, b.cycles[i].begin);
    EXPECT_EQ(a.cycles[i].end, b.cycles[i].end);
    EXPECT_EQ(a.cycles[i].type, b.cycles[i].type);
    EXPECT_EQ(a.cycles[i].offset, b.cycles[i].offset);
    EXPECT_EQ(a.cycles[i].half_cycle_corr, b.cycles[i].half_cycle_corr);
  }
}

}  // namespace

TEST(ResolveThreads, ZeroMeansOnePerHardwareThread) {
  EXPECT_EQ(runtime::resolve_threads(3), 3u);
  EXPECT_GE(runtime::resolve_threads(0), 1u);
}

TEST(BatchRunner, MatchesDirectPipelineInInputOrder) {
  const auto traces = make_batch(5);
  runtime::BatchRunner runner({}, {.threads = 4});
  const auto results = runner.run(traces);
  ASSERT_EQ(results.size(), traces.size());

  for (std::size_t i = 0; i < traces.size(); ++i) {
    core::PTrack direct;
    const auto expected = direct.process(traces[i]);
    ASSERT_TRUE(results[i].has_value());
    expect_identical(expected, *results[i]);
  }
}

TEST(BatchRunner, ThreadCountDoesNotChangeResults) {
  const auto traces = make_batch(9);
  runtime::BatchRunner serial({}, {.threads = 1});
  runtime::BatchRunner wide({}, {.threads = 8});
  const auto r1 = serial.run(traces);
  const auto r8 = wide.run(traces);
  ASSERT_EQ(r1.size(), traces.size());
  ASSERT_EQ(r8.size(), traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    ASSERT_TRUE(r1[i].has_value());
    ASSERT_TRUE(r8[i].has_value());
    expect_identical(*r1[i], *r8[i]);
  }
  // A repeated run on a warm runner must also be identical (workspace reuse
  // must not leak state between batches).
  const auto r8_again = wide.run(traces);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    expect_identical(*r8[i], *r8_again[i]);
  }
}

// A trace the CSV layer accepts (all cells finite) but the pipeline rejects:
// nonphysical register-garbage magnitudes make the quality layer declare it
// unusable, and PTrack::process throws.
imu::Trace make_poison_trace() {
  std::vector<imu::Sample> samples(256);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i].t = static_cast<double>(i) / 100.0;
    samples[i].accel = {1.0e9, -1.0e9, 1.0e9};
    samples[i].gyro = {1.0e9, 1.0e9, -1.0e9};
  }
  return imu::Trace(100.0, std::move(samples));
}

TEST(BatchRunner, IsolatesThrowingTraceAndCompletesTheRest) {
  auto traces = make_batch(5);
  const std::size_t poison = 2;
  traces.insert(traces.begin() + static_cast<std::ptrdiff_t>(poison),
                make_poison_trace());

  runtime::BatchRunner runner({}, {.threads = 4});
  const auto results = runner.run(traces);
  ASSERT_EQ(results.size(), traces.size());

  ASSERT_FALSE(results[poison].has_value());
  EXPECT_EQ(results[poison].error().stage,
            runtime::TraceError::Stage::Process);
  EXPECT_EQ(results[poison].error().trace, "#2");
  EXPECT_FALSE(results[poison].error().message.empty());

  // Every other slot holds exactly the result a direct run produces, in
  // input order — the failure neither shifts nor corrupts its neighbors.
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (i == poison) continue;
    core::PTrack direct;
    ASSERT_TRUE(results[i].has_value()) << "slot " << i;
    expect_identical(direct.process(traces[i]), *results[i]);
  }

  // The runner (and its pool) must stay usable after a poisoned batch.
  const auto again = runner.run(make_batch(2));
  ASSERT_EQ(again.size(), 2u);
  EXPECT_TRUE(again[0].has_value());
  EXPECT_TRUE(again[1].has_value());
}

TEST(BatchRunner, EmptyBatchYieldsEmptyResults) {
  runtime::BatchRunner runner;
  EXPECT_TRUE(runner.run({}).empty());
}

TEST(LoadTraceDir, LoadsCsvFilesSortedByName) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "ptrack_test_batch_dir";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const auto traces = make_batch(3);
  // Intentionally created out of order; the loader must sort by file name.
  imu::save_csv(traces[2], (dir / "c_trace.csv").string());
  imu::save_csv(traces[0], (dir / "a_trace.csv").string());
  imu::save_csv(traces[1], (dir / "b_trace.csv").string());
  {  // Non-CSV clutter must be ignored.
    std::FILE* f = std::fopen((dir / "notes.txt").string().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("not a trace\n", f);
    std::fclose(f);
  }

  const auto listing = runtime::load_trace_dir(dir.string());
  EXPECT_TRUE(listing.errors.empty());
  const auto& named = listing.traces;
  ASSERT_EQ(named.size(), 3u);
  EXPECT_EQ(named[0].name, "a_trace.csv");
  EXPECT_EQ(named[1].name, "b_trace.csv");
  EXPECT_EQ(named[2].name, "c_trace.csv");
  EXPECT_EQ(named[0].trace.size(), traces[0].size());
  EXPECT_EQ(named[1].trace.size(), traces[1].size());
  EXPECT_EQ(named[2].trace.size(), traces[2].size());

  fs::remove_all(dir);
}

TEST(LoadTraceDir, CollectsCorruptFilesInsteadOfAborting) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "ptrack_test_mixed_dir";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const auto traces = make_batch(2);
  imu::save_csv(traces[0], (dir / "a_good.csv").string());
  imu::save_csv(traces[1], (dir / "d_good.csv").string());
  const auto write_text = [&](const char* name, const char* text) {
    std::FILE* f = std::fopen((dir / name).string().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(text, f);
    std::fclose(f);
  };
  // One file that is not a trace at all, one truncated mid-row.
  write_text("b_garbage.csv", "this,is,not\na,trace,file\n");
  write_text("c_truncated.csv",
             "t,ax,ay,az,gx,gy,gz\n100,0,0,0,0,0,0\n"
             "0,0,0,9.81,0,0,0\n0.01,0,0");

  const auto listing = runtime::load_trace_dir(dir.string());
  ASSERT_EQ(listing.traces.size(), 2u);
  EXPECT_EQ(listing.traces[0].name, "a_good.csv");
  EXPECT_EQ(listing.traces[1].name, "d_good.csv");
  ASSERT_EQ(listing.errors.size(), 2u);
  EXPECT_EQ(listing.errors[0].trace, "b_garbage.csv");
  EXPECT_EQ(listing.errors[1].trace, "c_truncated.csv");
  for (const auto& err : listing.errors) {
    EXPECT_EQ(err.stage, runtime::TraceError::Stage::Load);
    EXPECT_FALSE(err.message.empty());
  }

  fs::remove_all(dir);
}

TEST(LoadTraceDir, MissingDirectoryThrows) {
  EXPECT_THROW(runtime::load_trace_dir("/nonexistent/ptrack/dir"), Error);
}

namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const char* name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void write_file(const fs::path& path, const std::string& text) {
  std::FILE* f = std::fopen(path.string().c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
  std::fclose(f);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_trace(const imu::Trace& a, const imu::Trace& b,
                       const std::string& label) {
  EXPECT_TRUE(same_bits(a.fs(), b.fs())) << label;
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const imu::Sample& x = a[i];
    const imu::Sample& y = b[i];
    ASSERT_TRUE(same_bits(x.t, y.t) && same_bits(x.accel.x, y.accel.x) &&
                same_bits(x.accel.y, y.accel.y) &&
                same_bits(x.accel.z, y.accel.z) &&
                same_bits(x.gyro.x, y.gyro.x) &&
                same_bits(x.gyro.y, y.gyro.y) && same_bits(x.gyro.z, y.gyro.z))
        << label << " sample " << i;
  }
}

/// A load's outcome: the trace, or the message it failed with.
struct Outcome {
  imu::Trace trace;
  std::string error;
};

template <typename Load>
Outcome outcome_of(Load&& load) {
  Outcome out;
  try {
    out.trace = load();
  } catch (const Error& e) {
    out.error = e.what();
  }
  return out;
}

/// imu::load_csv must give the same Trace, or the same message, as the
/// Document path; also when handed storage that already holds samples.
void expect_load_paths_agree(const std::string& path) {
  const Outcome doc = outcome_of(
      [&] { return imu::trace_from_document(csv::read(path), path); });
  const Outcome scan = outcome_of([&] { return imu::load_csv(path); });
  EXPECT_EQ(scan.error, doc.error) << path;
  expect_same_trace(scan.trace, doc.trace, path);

  std::vector<imu::Sample> used(3);
  used[1].t = 42.0;
  const Outcome reused =
      outcome_of([&] { return imu::load_csv(path, std::move(used)); });
  EXPECT_EQ(reused.error, doc.error) << path;
  expect_same_trace(reused.trace, doc.trace, path);
}

}  // namespace

TEST(LoadTraceDir, ListingIsIdenticalAtOneAndFourThreads) {
  const fs::path dir = fresh_dir("ptrack_test_parallel_load_dir");
  // More files than executors, good ones mixed with the corrupt shapes of
  // CollectsCorruptFilesInsteadOfAborting and a trace-level failure.
  const auto traces = make_batch(7);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    imu::save_csv(traces[i],
                  (dir / ("g" + std::to_string(i) + "_good.csv")).string());
  }
  write_file(dir / "b_garbage.csv", "this,is,not\na,trace,file\n");
  write_file(dir / "c_truncated.csv",
             "t,ax,ay,az,gx,gy,gz\n100,0,0,0,0,0,0\n"
             "0,0,0,9.81,0,0,0\n0.01,0,0");
  write_file(dir / "e_empty.csv", "");
  write_file(dir / "f_backwards.csv",
             "t,ax,ay,az,gx,gy,gz\n100,0,0,0,0,0,0\n"
             "0.02,0,0,9.81,0,0,0\n\n0.01,0,0,9.81,0,0,0\n");

  const auto serial = runtime::load_trace_dir(dir.string(), 1);
  const auto wide = runtime::load_trace_dir(dir.string(), 4);
  ASSERT_EQ(serial.traces.size(), traces.size());
  ASSERT_EQ(wide.traces.size(), serial.traces.size());
  for (std::size_t i = 0; i < serial.traces.size(); ++i) {
    EXPECT_EQ(wide.traces[i].name, serial.traces[i].name);
    expect_same_trace(wide.traces[i].trace, serial.traces[i].trace,
                      serial.traces[i].name);
  }
  ASSERT_EQ(serial.errors.size(), 4u);
  ASSERT_EQ(wide.errors.size(), serial.errors.size());
  const char* const bad[] = {"b_garbage.csv", "c_truncated.csv",
                             "e_empty.csv", "f_backwards.csv"};
  for (std::size_t i = 0; i < serial.errors.size(); ++i) {
    EXPECT_EQ(serial.errors[i].trace, bad[i]);
    EXPECT_EQ(wide.errors[i].trace, serial.errors[i].trace);
    EXPECT_EQ(wide.errors[i].stage, runtime::TraceError::Stage::Load);
    EXPECT_EQ(wide.errors[i].message, serial.errors[i].message);
  }
  // Each file's outcome is the one a direct load gives.
  for (const auto& nt : wide.traces) {
    expect_same_trace(nt.trace, imu::load_csv((dir / nt.name).string()),
                      nt.name);
  }
  EXPECT_EQ(wide.errors[3].message,
            "trace_from_document: non-monotonic timestamp in row 3 of " +
                (dir / "f_backwards.csv").string());

  fs::remove_all(dir);
}

TEST(LoadCsv, MatchesDocumentPathOnEveryFuzzCorpusFile) {
  std::size_t files = 0;
  for (const char* sub : {"imu", "csv"}) {
    for (const auto& entry :
         fs::directory_iterator(fs::path(PTRACK_FUZZ_CORPUS_DIR) / sub)) {
      expect_load_paths_agree(entry.path().string());
      ++files;
    }
  }
  EXPECT_GE(files, 30u);
}

TEST(LoadCsv, KeepsDocumentRowNumbersAndErrorPrecedence) {
  const fs::path dir = fresh_dir("ptrack_test_load_csv_cases");
  const std::string header = "t,ax,ay,az,gx,gy,gz\n";
  const std::string meta = "100,0,0,0,0,0,0\n";
  struct Case {
    const char* file;
    std::string text;
    std::string message;  ///< prefix; the path follows
  };
  const std::vector<Case> cases = {
      // Blank lines do not count: the bad row is the third data row.
      {"blank_then_backwards.csv",
       header + meta + "\n\n0.02,0,0,9.8,0,0,0\n\n0.01,0,0,9.8,0,0,0\n",
       "trace_from_document: non-monotonic timestamp in row 3 of "},
      // A csv error later in the file wins over an earlier trace error.
      {"backwards_then_junk.csv",
       header + meta + "0.02,0,0,9.8,0,0,0\n0.01,0,0,9.8,0,0,0\nx,0,0,0,0,0,0\n",
       "csv: non-numeric cell 'x' in row 5 of "},
      {"bad_header_then_ragged.csv", "t,ax\n100,0\n1,2,3\n",
       "csv: ragged row 3 in "},
      // Among trace errors the header still comes first.
      {"bad_header_backwards.csv", "t,ax\n100,0\n2,0\n1,0\n",
       "trace_from_document: unexpected header in "},
  };
  for (const Case& c : cases) {
    const std::string path = (dir / c.file).string();
    write_file(path, c.text);
    expect_load_paths_agree(path);
    const Outcome scan = outcome_of([&] { return imu::load_csv(path); });
    EXPECT_EQ(scan.error.rfind(c.message + path, 0), 0u)
        << c.file << ": " << scan.error;
  }
  fs::remove_all(dir);
}

TEST(LoadTraceDir, HostileLineCountsCannotInflateTheReservation) {
  if (!alloc::hooks_enabled()) GTEST_SKIP() << "allocation hooks compiled out";
  constexpr std::size_t kBytes = 1 << 20;
  struct Case {
    const char* dir;
    std::string text;
    const char* message;  ///< prefix; the path follows
  };
  std::string ones;
  for (std::size_t i = 0; i < kBytes / 2; ++i) ones += "1\n";
  {  // One load first, so the calling thread's one-time setup (its obs
     // span ring) is not counted against the hostile files.
    const fs::path warm = fresh_dir("ptrack_test_reserve_warmup");
    imu::save_csv(make_poison_trace(), (warm / "warm.csv").string());
    ASSERT_EQ(runtime::load_trace_dir(warm.string()).traces.size(), 1u);
    fs::remove_all(warm);
  }
  const std::vector<Case> cases = {
      {"ptrack_test_reserve_newlines", std::string(kBytes, '\n'),
       "csv: empty header in "},
      {"ptrack_test_reserve_ones", ones,
       "trace_from_document: unexpected header in "},
  };
  for (const Case& c : cases) {
    ASSERT_EQ(c.text.size(), kBytes);
    const fs::path dir = fresh_dir(c.dir);
    const std::string path = (dir / "hostile.csv").string();
    write_file(path, c.text);

    const alloc::ThreadStats before = alloc::thread_stats();
    const auto listing = runtime::load_trace_dir(dir.string());
    const alloc::ThreadStats after = alloc::thread_stats();

    EXPECT_TRUE(listing.traces.empty());
    ASSERT_EQ(listing.errors.size(), 1u);
    EXPECT_EQ(listing.errors[0].message, c.message + path);
    expect_load_paths_agree(path);
    EXPECT_LE(after.bytes - before.bytes, 4 * kBytes + 256 * 1024) << c.dir;
    fs::remove_all(dir);
  }
}

TEST(LoadTraceDir, ReservationMatchesNewlineCount) {
  const fs::path dir = fresh_dir("ptrack_test_reservation");
  constexpr std::size_t kChunk = 64 * 1024;
  const auto expected = [](const std::string& text) {
    const auto newlines =
        static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
    return std::min({newlines + 1, text.size() / 14, imu::kMaxTraceSamples});
  };
  // Newlines every 40 bytes, plus on both sides of every 64 KiB read
  // boundary and in the last bytes (the vector kernels' scalar tail).
  std::string boundaries(4 * kChunk + 45, 'x');
  for (std::size_t i = 39; i < boundaries.size(); i += 40) boundaries[i] = '\n';
  for (std::size_t k = 1; k <= 4; ++k) {
    boundaries[k * kChunk - 1] = '\n';
    boundaries[k * kChunk] = '\n';
    boundaries[k * kChunk + 1] = '\n';
  }
  boundaries[boundaries.size() - 2] = '\n';
  std::string crlf = "t,ax,ay,az,gx,gy,gz\r\n100,0,0,0,0,0,0\r\n";
  for (int i = 0; i < 5000; ++i) crlf += "0.01,0.5,-0.25,9.81,0,0,0\r\n";
  const std::vector<std::pair<const char*, std::string>> cases = {
      {"empty.csv", ""},
      {"no_final_newline.csv",
       "t,ax,ay,az,gx,gy,gz\n100,0,0,0,0,0,0\n0,0,0,9.81,0,0,0"},
      {"crlf.csv", crlf},
      {"boundaries.csv", boundaries},
      {"one_chunk_of_newlines.csv", std::string(kChunk, '\n')},
      {"chunk_ends_in_newline.csv", std::string(kChunk - 1, 'x') + "\n"},
  };
  for (const auto& [name, text] : cases) {
    write_file(dir / name, text);
    EXPECT_EQ(runtime::sample_reservation((dir / name).string()),
              expected(text))
        << name;
  }
  EXPECT_EQ(runtime::sample_reservation((dir / "missing.csv").string()), 0u);
  fs::remove_all(dir);
}

namespace {

/// The tids of the closed spans named `name` in the exported Chrome trace.
std::set<double> span_tids(const std::string& name) {
  std::ostringstream os;
  obs::write_chrome_trace(os);
  const json::Value doc = json::parse(os.str());
  std::set<double> tids;
  for (const json::Value& e : doc.at("traceEvents").items()) {
    if (e.at("name").as_string() == name && e.at("ph").as_string() == "E") {
      tids.insert(e.at("tid").as_number());
    }
  }
  return tids;
}

}  // namespace

TEST(LoadTraceDir, RepeatedLoadsOnOneSchedulerStayOnItsThreads) {
  const fs::path dir = fresh_dir("ptrack_test_sched_load_dir");
  const auto traces = make_batch(6);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    imu::save_csv(traces[i],
                  (dir / ("g" + std::to_string(i) + ".csv")).string());
  }
  write_file(dir / "bad.csv", "this,is,not\na,trace,file\n");

  obs::set_enabled(true);
  obs::reset_trace();
  runtime::SchedulerOptions so;
  so.workers = 3;
  runtime::Scheduler sched(so);
  const std::size_t executors = sched.workers() + 1;
  // Each executor records one marker span, held open until every executor
  // holds one, so the markers' tids are exactly the scheduler's threads.
  std::atomic<std::size_t> arrived{0};
  sched.parallel_for(runtime::Lane::kThroughput, executors,
                     [&](std::size_t, std::size_t) {
                       PTRACK_OBS_SPAN("test.executor");
                       arrived.fetch_add(1);
                       const auto deadline = std::chrono::steady_clock::now() +
                                             std::chrono::seconds(10);
                       while (arrived.load() < executors &&
                              std::chrono::steady_clock::now() < deadline) {
                         std::this_thread::yield();
                       }
                     });
  ASSERT_EQ(arrived.load(), executors);

  const auto first = runtime::load_trace_dir(dir.string(), sched);
  ASSERT_EQ(first.traces.size(), traces.size());
  ASSERT_EQ(first.errors.size(), 1u);
  for (int rep = 0; rep < 4; ++rep) {
    const auto again = runtime::load_trace_dir(dir.string(), sched);
    ASSERT_EQ(again.traces.size(), first.traces.size());
    for (std::size_t i = 0; i < first.traces.size(); ++i) {
      EXPECT_EQ(again.traces[i].name, first.traces[i].name);
      expect_same_trace(again.traces[i].trace, first.traces[i].trace,
                        first.traces[i].name);
    }
    ASSERT_EQ(again.errors.size(), 1u);
    EXPECT_EQ(again.errors[0].trace, "bad.csv");
    EXPECT_EQ(again.errors[0].message, first.errors[0].message);
  }
#if PTRACK_OBS_ENABLED
  const std::set<double> threads = span_tids("test.executor");
  ASSERT_EQ(threads.size(), executors);
  const std::set<double> loaders = span_tids("ptrack.imu.load_csv");
  EXPECT_FALSE(loaders.empty());
  for (const double tid : loaders) {
    EXPECT_EQ(threads.count(tid), 1u) << "load_csv span on tid " << tid;
  }
#endif
  obs::reset_trace();
  fs::remove_all(dir);
}
