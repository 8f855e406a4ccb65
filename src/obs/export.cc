#include "obs/export.h"

#include <cctype>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <utility>

namespace sep2p::obs {

namespace {

// Stable wire names for EventKind; the strict loader rejects anything
// not in this table.
const char* KindName(EventKind kind) {
  switch (kind) {
    case EventKind::kSend: return "send";
    case EventKind::kDeliver: return "deliver";
    case EventKind::kDrop: return "drop";
    case EventKind::kTimeout: return "timeout";
    case EventKind::kRetry: return "retry";
    case EventKind::kAttempt: return "attempt";
    case EventKind::kRpcBegin: return "rpc-begin";
    case EventKind::kRpcEnd: return "rpc-end";
    case EventKind::kRpcFail: return "rpc-fail";
    case EventKind::kCrash: return "crash";
    case EventKind::kDispatch: return "dispatch";
    case EventKind::kSignature: return "signature";
    case EventKind::kMark: return "mark";
    case EventKind::kRoute: return "route";
    case EventKind::kSpanBegin: return "span-begin";
    case EventKind::kSpanEnd: return "span-end";
  }
  return "?";
}

bool KindFromName(const std::string& name, EventKind* out) {
  for (int k = 0; k <= static_cast<int>(EventKind::kSpanEnd); ++k) {
    EventKind kind = static_cast<EventKind>(k);
    if (name == KindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

void AppendEscaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c; break;
    }
  }
}

void AppendU64(std::string& out, const char* key, uint64_t v) {
  out += ",\"";
  out += key;
  out += "\":";
  out += std::to_string(v);
}

// Minimal strict parser over one line: a flat JSON object of string
// keys mapping to unsigned integers or strings. Anything else —
// floats, nesting, trailing garbage, duplicate keys — is an error.
class LineParser {
 public:
  explicit LineParser(const std::string& line) : line_(line) {}

  // Parses `{"k":v,...}` handing each pair to `field`; `field` returns
  // false to reject the key. `v` is either an integer (is_string
  // false) or an unescaped string.
  Status ParseObject(
      const std::function<bool(const std::string& key, bool is_string,
                               uint64_t num, const std::string& str)>& field) {
    if (!Consume('{')) return Err("expected '{'");
    if (Peek() == '}') {
      ++pos_;
    } else {
      while (true) {
        std::string key;
        SEP2P_RETURN_IF_ERROR(ParseString(&key));
        if (!Consume(':')) return Err("expected ':'");
        bool is_string = false;
        uint64_t num = 0;
        std::string str;
        if (Peek() == '"') {
          is_string = true;
          SEP2P_RETURN_IF_ERROR(ParseString(&str));
        } else {
          SEP2P_RETURN_IF_ERROR(ParseU64(&num));
        }
        if (!field(key, is_string, num, str)) {
          return Err("unknown key \"" + key + "\"");
        }
        if (Consume(',')) continue;
        if (Consume('}')) break;
        return Err("expected ',' or '}'");
      }
    }
    if (pos_ != line_.size()) return Err("trailing bytes after object");
    return Status::Ok();
  }

 private:
  char Peek() const { return pos_ < line_.size() ? line_[pos_] : '\0'; }
  bool Consume(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }
  Status Err(const std::string& what) const {
    return Status::InvalidArgument("trace jsonl: " + what + " at byte " +
                                   std::to_string(pos_));
  }
  Status ParseString(std::string* out) {
    if (!Consume('"')) return Err("expected '\"'");
    out->clear();
    while (pos_ < line_.size()) {
      char c = line_[pos_++];
      if (c == '"') return Status::Ok();
      if (c == '\\') {
        if (pos_ >= line_.size()) break;
        char esc = line_[pos_++];
        switch (esc) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case 'n': *out += '\n'; break;
          case 't': *out += '\t'; break;
          default: return Err("bad escape");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Err("control byte in string");
      }
      *out += c;
    }
    return Err("unterminated string");
  }
  Status ParseU64(uint64_t* out) {
    if (!std::isdigit(static_cast<unsigned char>(Peek()))) {
      return Err("expected unsigned integer");
    }
    uint64_t v = 0;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) {
      const uint64_t digit = static_cast<uint64_t>(line_[pos_++] - '0');
      if (v > (UINT64_MAX - digit) / 10) return Err("integer overflow");
      v = v * 10 + digit;
    }
    *out = v;
    return Status::Ok();
  }

  const std::string& line_;
  size_t pos_ = 0;
};

}  // namespace

std::string ToJsonl(const Trace& trace) {
  std::string out;
  out.reserve(64 + trace.events.size() * 48);
  out += "{\"sep2p_trace\":" + std::to_string(trace.meta.version);
  AppendU64(out, "node_count", trace.meta.node_count);
  AppendU64(out, "max_attempts",
            static_cast<uint64_t>(trace.meta.max_attempts));
  // New-in-this-version fields are omitted at their defaults, so a sim
  // trace encodes byte-identically to pre-cluster builds.
  if (trace.meta.clock == ClockDomain::kWall) out += ",\"clock\":\"wall\"";
  if (trace.meta.process != 0) {
    AppendU64(out, "process", trace.meta.process);
  }
  if (trace.meta.process_count != 0) {
    AppendU64(out, "process_count", trace.meta.process_count);
  }
  out += "}\n";
  for (const Event& e : trace.events) {
    out += "{\"t\":" + std::to_string(e.t_us);
    out += ",\"k\":\"";
    out += KindName(e.kind);
    out += '"';
    if (e.node != kNoNode) AppendU64(out, "n", e.node);
    if (e.peer != kNoNode) AppendU64(out, "p", e.peer);
    if (e.span != 0) AppendU64(out, "sp", e.span);
    if (e.parent != 0) AppendU64(out, "pa", e.parent);
    if (e.rpc != 0) AppendU64(out, "r", e.rpc);
    if (e.seq != 0) AppendU64(out, "s", e.seq);
    if (e.value != 0) AppendU64(out, "v", e.value);
    if (e.hlc != 0) AppendU64(out, "h", e.hlc);
    if (!e.detail.empty()) {
      out += ",\"d\":\"";
      AppendEscaped(out, e.detail);
      out += '"';
    }
    out += "}\n";
  }
  return out;
}

Result<Trace> FromJsonl(const std::string& text) {
  Trace trace;
  size_t start = 0;
  bool saw_meta = false;
  int line_no = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    if (line.empty()) {
      return Status::InvalidArgument("trace jsonl: empty line " +
                                     std::to_string(line_no));
    }
    LineParser parser(line);
    if (!saw_meta) {
      bool saw_magic = false;
      Status st = parser.ParseObject([&](const std::string& key,
                                         bool is_string, uint64_t num,
                                         const std::string& str) {
        if (key == "clock") {
          if (!is_string) return false;
          if (str == "wall") {
            trace.meta.clock = ClockDomain::kWall;
            return true;
          }
          if (str == "virtual") {
            trace.meta.clock = ClockDomain::kVirtual;
            return true;
          }
          return false;
        }
        if (is_string) return false;
        if (key == "sep2p_trace") {
          saw_magic = true;
          trace.meta.version = static_cast<uint32_t>(num);
          return true;
        }
        if (key == "node_count") {
          trace.meta.node_count = static_cast<uint32_t>(num);
          return true;
        }
        if (key == "max_attempts") {
          trace.meta.max_attempts = static_cast<int>(num);
          return true;
        }
        if (key == "process") {
          trace.meta.process = static_cast<uint32_t>(num);
          return true;
        }
        if (key == "process_count") {
          trace.meta.process_count = static_cast<uint32_t>(num);
          return true;
        }
        return false;
      });
      if (!st.ok()) return st;
      if (!saw_magic || trace.meta.version != 1) {
        return Status::InvalidArgument(
            "trace jsonl: missing or unsupported header");
      }
      saw_meta = true;
      continue;
    }
    Event e;
    bool saw_kind = false;
    bool bad_kind = false;
    Status st = parser.ParseObject([&](const std::string& key, bool is_string,
                                       uint64_t num, const std::string& str) {
      if (key == "k") {
        if (!is_string) return false;
        saw_kind = true;
        bad_kind = !KindFromName(str, &e.kind);
        return true;
      }
      if (key == "d") {
        if (!is_string) return false;
        e.detail = str;
        return true;
      }
      if (is_string) return false;
      if (key == "t") { e.t_us = num; return true; }
      if (key == "n") { e.node = static_cast<uint32_t>(num); return true; }
      if (key == "p") { e.peer = static_cast<uint32_t>(num); return true; }
      if (key == "sp") { e.span = num; return true; }
      if (key == "pa") { e.parent = num; return true; }
      if (key == "r") { e.rpc = num; return true; }
      if (key == "s") { e.seq = num; return true; }
      if (key == "v") { e.value = num; return true; }
      if (key == "h") { e.hlc = num; return true; }
      return false;
    });
    if (!st.ok()) {
      return Status(st.code(),
                    st.message() + " (line " + std::to_string(line_no) + ")");
    }
    if (!saw_kind || bad_kind) {
      return Status::InvalidArgument("trace jsonl: missing or unknown kind"
                                     " (line " + std::to_string(line_no) +
                                     ")");
    }
    trace.events.push_back(std::move(e));
  }
  if (!saw_meta) {
    return Status::InvalidArgument("trace jsonl: empty input");
  }
  return trace;
}

std::string ToChromeTrace(const Trace& trace) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& obj) {
    if (!first) out += ',';
    first = false;
    out += '\n';
    out += obj;
  };
  // Span pairing walks the log once: begins are remembered by id, the
  // matching end closes them into an "X" complete event.
  struct OpenSpan {
    uint64_t t_us = 0;
    uint32_t node = kNoNode;
    std::string name;
  };
  std::map<uint64_t, OpenSpan> open;
  for (const Event& e : trace.events) {
    const uint64_t tid = e.node == kNoNode ? 0xffffffffull : e.node;
    if (e.kind == EventKind::kSpanBegin) {
      open[e.span] = {e.t_us, e.node, e.detail};
      continue;
    }
    if (e.kind == EventKind::kSpanEnd) {
      auto it = open.find(e.span);
      if (it == open.end()) continue;  // checker's problem, not ours
      const OpenSpan& span = it->second;
      // Branch rewinds can close a span "before" it opened on the
      // virtual clock; clamp so the viewer accepts the event.
      const uint64_t dur = e.t_us >= span.t_us ? e.t_us - span.t_us : 0;
      std::string obj = "{\"ph\":\"X\",\"pid\":0,\"tid\":" +
                        std::to_string(span.node == kNoNode
                                           ? 0xffffffffull
                                           : span.node) +
                        ",\"ts\":" + std::to_string(span.t_us) +
                        ",\"dur\":" + std::to_string(dur) + ",\"name\":\"";
      AppendEscaped(obj, span.name);
      obj += "\",\"args\":{\"span\":" + std::to_string(e.span) + "}}";
      emit(obj);
      open.erase(it);
      continue;
    }
    if (e.kind == EventKind::kRoute) {
      // Routing hop sequences carry their own duration (value) and hop
      // count (seq) — render them as complete events, not instants.
      std::string obj = "{\"ph\":\"X\",\"pid\":0,\"tid\":" +
                        std::to_string(tid) +
                        ",\"ts\":" + std::to_string(e.t_us) +
                        ",\"dur\":" + std::to_string(e.value) +
                        ",\"name\":\"route\",\"args\":{\"hops\":" +
                        std::to_string(e.seq) + "}}";
      if (e.peer != kNoNode) {
        obj.insert(obj.size() - 2, ",\"dest\":" + std::to_string(e.peer));
      }
      emit(obj);
      continue;
    }
    std::string name = KindName(e.kind);
    if (!e.detail.empty()) {
      name += ':';
      name += e.detail;
    }
    std::string obj =
        "{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":" + std::to_string(tid) +
        ",\"ts\":" + std::to_string(e.t_us) + ",\"name\":\"";
    AppendEscaped(obj, name);
    obj += "\",\"args\":{";
    obj += "\"rpc\":" + std::to_string(e.rpc);
    obj += ",\"seq\":" + std::to_string(e.seq);
    obj += ",\"value\":" + std::to_string(e.value);
    if (e.peer != kNoNode) obj += ",\"peer\":" + std::to_string(e.peer);
    obj += "}}";
    emit(obj);
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Internal("cannot open for write: " + path);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!out) return Status::Internal("short write: " + path);
  return Status::Ok();
}

Status WriteTraceFiles(const std::string& path, const Trace& trace) {
  Status st = WriteFile(path, ToChromeTrace(trace));
  if (!st.ok()) return st;
  return WriteFile(path + ".jsonl", ToJsonl(trace));
}

Status WriteMetricsFiles(const std::string& path,
                         const MetricsRegistry& metrics) {
  Status st = WriteFile(path, metrics.ToPrometheusText());
  if (!st.ok()) return st;
  return WriteFile(path + ".json", metrics.ToJson());
}

Result<Trace> LoadTrace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  Result<Trace> trace = FromJsonl(text.str());
  if (!trace.ok()) {
    return Status::InvalidArgument(path + ": " + trace.status().message());
  }
  return trace;
}

}  // namespace sep2p::obs
