// Metric bookkeeping, order statistics and the span recorder.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

#include "perfbench.h"

namespace perfbench {

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back({name, value, unit});
}

std::optional<double> Metrics::Get(const std::string& name) const {
  for (const Metric& m : items_) {
    if (m.name == name) return m.value;
  }
  return std::nullopt;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t index = rank == 0 ? 0 : std::min(rank, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

int Tracer::Open(const char* name, int parent, StageKind phase) {
  if (!enabled_) return -1;
  const int64_t start = NowNs();
  reach::MutexLock lock(mu_);
  spans_.push_back({name, start, 0, parent, static_cast<int>(phase)});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::Close(int id) {
  if (id < 0) return;
  const int64_t end = NowNs();
  reach::MutexLock lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = end;
}

std::vector<Span> Tracer::Snapshot() const {
  reach::MutexLock lock(mu_);
  return spans_;
}

namespace {

/// Length of the union of [start, end) intervals clipped to [lo, hi).
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach_end = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach_end);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      reach_end = end;
    }
  }
  return covered;
}

}  // namespace

void WriteTrace(const Tracer& tracer, const std::string& path) {
  const std::vector<Span> spans = tracer.Snapshot();
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  struct SelfTime {
    double total_ms = 0;
    double self_ms = 0;
    size_t count = 0;
  };
  std::map<std::string, SelfTime> by_name;
  std::ofstream out(path);
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int64_t self =
        s.end_ns - s.start_ns - CoveredNs(children[i], s.start_ns, s.end_ns);
    SelfTime& t = by_name[s.name];
    t.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    t.self_ms += static_cast<double>(self) / 1e6;
    ++t.count;
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns - origin
        << ",\"end_ns\":" << s.end_ns - origin << ",\"parent\":" << s.parent
        << ",\"phase\":" << s.phase << ",\"self_ns\":" << self << "}\n";
  }
  std::fprintf(stderr, "trace: %zu spans -> %s\n", spans.size(),
               path.c_str());
  std::fprintf(stderr, "%-28s %8s %12s %12s\n", "span", "count", "total_ms",
               "self_ms");
  for (const auto& [name, t] : by_name) {
    std::fprintf(stderr, "%-28s %8zu %12.3f %12.3f\n", name.c_str(), t.count,
                 t.total_ms, t.self_ms);
  }
}

}  // namespace perfbench
