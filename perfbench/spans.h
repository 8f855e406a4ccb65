// In-memory span recorder for the traced run.
//
// The benchmark records a span around each call it makes into a layer's
// public functions: name, start, end and the enclosing span. Spans stay
// in memory while the run measures and are written out as JSON lines
// when it ends. A disabled recorder makes ScopedSpan a no-op, so the
// untraced phase pays one branch per span site.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    const char* name;  // a string literal at the span site
    uint64_t start_ns;
    uint64_t end_ns;
    uint32_t parent;  // 1-based index of the enclosing span, 0 = root
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  size_t size() const { return spans_.size(); }

  // Opens a span and returns its 1-based index, or 0 when disabled.
  uint32_t Open(const char* name);
  void Close(uint32_t index);

  // Self time per span name (its duration minus the part its child spans
  // cover), in nanoseconds, and the number of spans of each name.
  struct SelfTime {
    uint64_t count = 0;
    uint64_t self_ns = 0;
  };
  std::map<std::string, SelfTime> SelfTimes() const;

  // Writes one JSON object per span to `path`; false on I/O failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  uint64_t NowNs() const;

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;  // stack of open span indices
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name)
      : recorder_(recorder), index_(recorder.Open(name)) {}
  ~ScopedSpan() { recorder_.Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  uint32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
