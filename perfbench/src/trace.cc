#include "trace.h"

#include <cstdio>

namespace perfbench {

int32_t SpanRecorder::Open(const char* name, int32_t parent) {
  if (!enabled_) return -1;
  Span s;
  s.stmt = stmt_;
  s.id = static_cast<uint32_t>(spans_.size() - first_);
  s.parent = parent;
  s.name = name;
  s.start_ns = NowNs();
  s.end_ns = s.start_ns;
  spans_.push_back(s);
  return static_cast<int32_t>(s.id);
}

void SpanRecorder::Close(int32_t id) {
  if (!enabled_ || id < 0) return;
  spans_[first_ + static_cast<size_t>(id)].end_ns = NowNs();
}

void SpanRecorder::Add(const char* name, int32_t parent, int64_t start_ns,
                       int64_t end_ns) {
  if (!enabled_) return;
  Span s;
  s.stmt = stmt_;
  s.id = static_cast<uint32_t>(spans_.size() - first_);
  s.parent = parent;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(s);
}

SelfTimeReport ComputeSelfTimes(
    const std::vector<const SpanRecorder*>& recorders) {
  SelfTimeReport report;
  std::vector<int64_t> child_ns;
  for (const SpanRecorder* rec : recorders) {
    const std::vector<Span>& spans = rec->spans();
    size_t begin = 0;
    while (begin < spans.size()) {
      // A statement's spans are contiguous and its root has id 0.
      size_t end = begin + 1;
      while (end < spans.size() && spans[end].stmt == spans[begin].stmt) {
        ++end;
      }
      child_ns.assign(end - begin, 0);
      bool nested = true;
      for (size_t i = begin; i < end; ++i) {
        if (spans[i].parent < 0) continue;
        const Span& parent =
            spans[begin + static_cast<size_t>(spans[i].parent)];
        nested = nested && spans[i].start_ns >= parent.start_ns &&
                 spans[i].end_ns <= parent.end_ns;
        child_ns[static_cast<size_t>(spans[i].parent)] +=
            spans[i].end_ns - spans[i].start_ns;
      }
      for (size_t i = begin; i < end; ++i) {
        const int64_t self_ns =
            spans[i].end_ns - spans[i].start_ns - child_ns[i - begin];
        report.self_ms[spans[i].name] += static_cast<double>(self_ns) * 1e-6;
      }
      const int64_t wall_ns = spans[begin].end_ns - spans[begin].start_ns;
      report.violations += !nested;
      report.unattributed_ms +=
          static_cast<double>(wall_ns - child_ns[0]) * 1e-6;
      report.wall_ms += static_cast<double>(wall_ns) * 1e-6;
      ++report.statements;
      begin = end;
    }
  }
  return report;
}

bool WriteSpansJson(const std::string& path,
                    const std::vector<const SpanRecorder*>& recorders) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [");
  bool first = true;
  for (const SpanRecorder* rec : recorders) {
    for (const Span& s : rec->spans()) {
      std::fprintf(f,
                   "%s\n{\"stmt\": %llu, \"id\": %u, \"parent\": %d, "
                   "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}",
                   first ? "" : ",", static_cast<unsigned long long>(s.stmt),
                   s.id, s.parent, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
