// In-memory span recorder for the traced benchmark run.
//
// Spans are opened and closed by the benchmark's own code around each call
// into a library layer; nothing inside the library is instrumented. Each
// span has a name, start, end, the span that caused it and the request it
// belongs to (a trace index, or a session and frame). The recorder only
// appends to vectors while the run is measured and writes its spans out
// once, at the end.

#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  std::uint32_t name = 0;   ///< index into SpanRecorder::names()
  std::int32_t parent = -1; ///< index of the causing span; -1 for a root
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class SpanRecorder {
 public:
  /// Id of `name`, registered on first use.
  std::uint32_t name_id(std::string_view name);

  /// Opens a span starting now; close it with end().
  std::int32_t begin(std::uint32_t name, std::uint64_t request,
                     std::int32_t parent = -1);
  void end(std::int32_t span);

  /// Records a span whose bounds were measured elsewhere.
  std::int32_t add(std::uint32_t name, std::uint64_t request,
                   std::int32_t parent, std::uint64_t start_ns,
                   std::uint64_t end_ns);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }

  /// Writes one CSV row per span: name,parent,request,start_ns,end_ns.
  void write_csv(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; does nothing
/// when `rec` is null, so untraced passes run the same code.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::uint32_t name, std::uint64_t request,
             std::int32_t parent = -1)
      : rec_(rec), id_(rec != nullptr ? rec->begin(name, request, parent) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  std::int32_t id_;
};

/// Self time of every span: its duration minus the part of its own interval
/// that the union of its children's intervals covers.
std::vector<std::uint64_t> self_times(std::span<const Span> spans);

/// Sums over all spans of one name.
struct NameTotals {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};

/// Totals indexed by name id, over the spans recorded from index `first`
/// on (which must not be children of earlier spans).
std::vector<NameTotals> totals_by_name(const SpanRecorder& rec,
                                       std::size_t first = 0);

}  // namespace perfbench
