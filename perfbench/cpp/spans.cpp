#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

#include "common/error.hpp"

namespace perfbench {

std::uint32_t SpanRecorder::name_id(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int32_t SpanRecorder::begin(std::uint32_t name, std::uint64_t request,
                                 std::int32_t parent) {
  spans_.push_back({name, parent, request, now_ns(), 0});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanRecorder::end(std::int32_t span) {
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
}

std::int32_t SpanRecorder::add(std::uint32_t name, std::uint64_t request,
                               std::int32_t parent, std::uint64_t start_ns,
                               std::uint64_t end_ns) {
  spans_.push_back({name, parent, request, start_ns, end_ns});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanRecorder::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw ptrack::Error("perfbench: cannot write " + path);
  out << "name,parent,request,start_ns,end_ns\n";
  for (const Span& s : spans_) {
    out << names_[s.name] << ',' << s.parent << ',' << s.request << ','
        << s.start_ns << ',' << s.end_ns << '\n';
  }
}

std::vector<std::uint64_t> self_times(std::span<const Span> spans) {
  // Children's intervals, clipped to their parent, grouped by parent.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::uint64_t lo = std::max(s.start_ns, p.start_ns);
    const std::uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) kids[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::uint64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t run_lo = 0;
    std::uint64_t run_hi = 0;
    for (const auto& [lo, hi] : iv) {
      if (run_hi <= lo) {
        covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    covered += run_hi - run_lo;
    out[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return out;
}

std::vector<NameTotals> totals_by_name(const SpanRecorder& rec,
                                       std::size_t first) {
  std::vector<NameTotals> out(rec.names().size());
  const std::vector<std::uint64_t> self = self_times(rec.spans());
  for (std::size_t i = first; i < rec.spans().size(); ++i) {
    const Span& s = rec.spans()[i];
    NameTotals& t = out[s.name];
    ++t.count;
    t.total_ns += static_cast<double>(s.end_ns - s.start_ns);
    t.self_ns += static_cast<double>(self[i]);
  }
  return out;
}

}  // namespace perfbench
