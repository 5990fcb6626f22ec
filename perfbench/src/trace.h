// Spans recorded by the benchmark around its own calls into the program's
// public entry points (no span is recorded inside the program). Kept in
// memory during the run and written once at exit as Chrome trace-event
// JSON, viewable in chrome://tracing or Perfetto.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< static string: op, parse, pump, connect, ...
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;    ///< index of the enclosing span, -1 at the root
  uint64_t op = 0;        ///< the op the span belongs to
  /// Counter deltas read around the call (kv_cpu_ns, file bytes, ...).
  std::vector<std::pair<const char*, int64_t>> counters;
};

class Tracer {
 public:
  /// A disabled tracer records nothing; every call is a cheap no-op.
  /// One tracer per client thread; `tid` labels its spans in the output.
  Tracer(bool enabled, size_t max_spans, int tid = 1)
      : enabled_(enabled), max_spans_(max_spans), tid_(tid) {}

  bool enabled() const { return enabled_; }
  /// Opens a span and returns its id (-1 when disabled or full).
  int64_t Begin(const char* name, uint64_t op, int64_t parent = -1);
  void End(int64_t id);
  void AddCounter(int64_t id, const char* name, int64_t delta);
  /// Records an already-timed interval.
  int64_t Add(const char* name, uint64_t op, int64_t start_ns, int64_t end_ns,
              int64_t parent = -1);

  size_t size() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }

  const std::vector<Span>& spans() const { return spans_; }
  int tid() const { return tid_; }

 private:
  bool enabled_;
  size_t max_spans_;
  int tid_;
  uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// Writes every tracer's spans as one Chrome trace-event JSON file.
/// Returns false on I/O failure.
bool WriteChromeTrace(const std::string& path, const std::vector<const Tracer*>& tracers);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
