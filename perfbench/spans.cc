#include "spans.h"

#include <cstdio>

namespace perfbench {

uint64_t SpanRecorder::NowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

uint32_t SpanRecorder::Open(const char* name) {
  if (!enabled_) return 0;
  const uint32_t parent = open_.empty() ? 0 : open_.back();
  spans_.push_back(Span{name, NowNs(), 0, parent});
  const uint32_t index = static_cast<uint32_t>(spans_.size());
  open_.push_back(index);
  return index;
}

void SpanRecorder::Close(uint32_t index) {
  if (index == 0) return;
  spans_[index - 1].end_ns = NowNs();
  open_.pop_back();
}

std::map<std::string, SpanRecorder::SelfTime> SpanRecorder::SelfTimes()
    const {
  // Children are recorded after their parent and close before it, so
  // one pass subtracting each span from its parent's total suffices.
  std::vector<uint64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent != 0) {
      self[spans_[i].parent - 1] -= spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    SelfTime& row = out[spans_[i].name];
    ++row.count;
    row.self_ns += self[i];
  }
  return out;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %llu, "
                 "\"end_ns\": %llu, \"parent\": %u}\n",
                 i + 1, s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.parent);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
