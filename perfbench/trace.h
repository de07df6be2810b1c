// In-memory span recorder for the traced run of the pipeline benchmark.
//
// Spans are recorded around the benchmark's own calls into each layer (the
// program itself is not instrumented). They stay in memory and are written
// once, as JSON, when the run ends. A span's self time is its duration
// minus the part of its interval that its children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Span {
  std::string name;
  /// Shared by the spans of one epoch (the epoch number); -1 elsewhere.
  std::int64_t id = -1;
  /// Free-form qualifier: a query batch's kind, a probe's operation count.
  std::string tag;
  /// Index of the parent span in Tracer::spans(), or -1 for a root.
  int parent = -1;
  Clock::time_point start;
  Clock::time_point end;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Record a finished span. Returns its index, or -1 when tracing is off.
  int add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent = -1, std::int64_t id = -1, std::string tag = {});

  /// Open a span whose children are recorded while it runs; close() stamps
  /// its end. Returns -1 (and close() ignores it) when tracing is off.
  int open(std::string name, int parent = -1, std::int64_t id = -1,
           std::string tag = {});
  void close(int span);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span (seconds), indexed like spans().
  std::vector<double> self_seconds() const;

  /// Write every span as JSON, times in seconds since `origin`.
  bool write_json(const std::string& path, Clock::time_point origin) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
