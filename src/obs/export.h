// Trace exporters + the strict JSONL loader.
//
// Two output formats:
//  - JSONL: a meta header line followed by one JSON object per event.
//    This is the lossless interchange format — FromJsonl round-trips it
//    exactly, and the loader is STRICT: unknown keys, unknown event
//    kinds, malformed syntax or a missing/incompatible header are
//    rejected with an error (a corrupted trace must never silently
//    parse into a plausible one the checker would then bless).
//    LoadTrace is the one way a trace file is read back: the report,
//    the cluster merger and `sep2p_cli check` all go through it.
//  - Chrome trace-event JSON ("X" complete events from span pairs plus
//    "i" instants), loadable in Perfetto / chrome://tracing. This
//    format is export-only.
//
// Only unsigned integers and short ASCII detail strings appear in
// traces, so the JSON emitted and parsed here is deliberately tiny —
// no floats, no nesting beyond one object per line.

#ifndef SEP2P_OBS_EXPORT_H_
#define SEP2P_OBS_EXPORT_H_

#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"

namespace sep2p::obs {

// Lossless JSONL: header line
//   {"sep2p_trace":1,"node_count":N,"max_attempts":M}
// (live-cluster shards append "clock":"wall", "process", and
// "process_count") then one event object per line with short keys
// (t, k, n, p, sp, pa, r, s, v, h, d), fields at their default value
// omitted — a sim trace therefore encodes byte-identically to
// pre-cluster builds.
std::string ToJsonl(const Trace& trace);

// Strict inverse of ToJsonl. Any deviation — bad syntax, an unknown
// key or kind, a missing or foreign header — fails the whole load.
Result<Trace> FromJsonl(const std::string& text);

// Chrome trace-event format: {"traceEvents":[...]}. Span begin/end
// pairs become "X" complete events (pid 0, tid = node); every other
// event becomes an "i" instant named after its kind.
std::string ToChromeTrace(const Trace& trace);

// Reads the JSONL trace at `path` and parses it with FromJsonl; a parse
// error names the file.
Result<Trace> LoadTrace(const std::string& path);

// Writes `content` to `path`, so the CLI and harnesses need no iostream
// plumbing of their own.
Status WriteFile(const std::string& path, const std::string& content);

// The pair a traced run leaves behind: Chrome trace-event JSON at
// `path` and lossless JSONL at `path`.jsonl.
Status WriteTraceFiles(const std::string& path, const Trace& trace);

// The pair a metered run leaves behind: Prometheus text at `path` and
// JSON at `path`.json.
Status WriteMetricsFiles(const std::string& path,
                         const MetricsRegistry& metrics);

}  // namespace sep2p::obs

#endif  // SEP2P_OBS_EXPORT_H_
