#include "trace.h"

#include <algorithm>
#include <climits>
#include <cstdio>

namespace perfbench {

int64_t Tracer::Begin(const char* name, uint64_t op, int64_t parent) {
  return Add(name, op, NowNs(), 0, parent);
}

void Tracer::End(int64_t id) {
  if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

void Tracer::AddCounter(int64_t id, const char* name, int64_t delta) {
  if (id >= 0) spans_[static_cast<size_t>(id)].counters.emplace_back(name, delta);
}

int64_t Tracer::Add(const char* name, uint64_t op, int64_t start_ns,
                    int64_t end_ns, int64_t parent) {
  if (!enabled_) return -1;
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return -1;
  }
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = parent;
  s.op = op;
  spans_.push_back(std::move(s));
  return static_cast<int64_t>(spans_.size() - 1);
}

bool WriteChromeTrace(const std::string& path, const std::vector<const Tracer*>& tracers) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t base = INT64_MAX;
  for (const Tracer* t : tracers) {
    if (!t->spans().empty()) base = std::min(base, t->spans().front().start_ns);
  }
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  const char* sep = "\n";
  for (const Tracer* t : tracers) {
    for (size_t i = 0; i < t->spans().size(); ++i) {
      const Span& s = t->spans()[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,\"id\":%zu,"
                   "\"parent\":%lld",
                   sep, s.name, t->tid(), static_cast<double>(s.start_ns - base) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.op), i,
                   static_cast<long long>(s.parent));
      for (const auto& [name, delta] : s.counters) {
        std::fprintf(f, ",\"%s\":%lld", name, static_cast<long long>(delta));
      }
      std::fputs("}}", f);
      sep = ",\n";
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
