// Sweep-wide report pipeline: JSONL trace(s) -> dashboard.
//
// A Report is the merged obs::Analysis (obs/analyzer.h) of one or more
// traces, plus the names of its sources and each trace's duration.
// BuildReport resolves `path` to one trace file or every `*.jsonl`
// directly inside a directory (sorted by name, so sweep outputs named
// `<out>.trial<N>.jsonl` aggregate deterministically), loads each with
// LoadTrace (obs/export.h) and hands it to AddTrace, the one per-trace
// step: analyze, then MergeAnalysis. The merge adds the event tallies,
// sums phase rows by name and folded stacks by stack, merges RPC
// latency histograms bucket-wise (fixed boundaries — obs/metrics.h),
// re-ranks retry offenders across traces and keeps the FIRST trace's
// meta, duration and critical path as the representative ones. Any unreadable, malformed or structurally
// invalid trace fails the whole report — the CI smoke job relies on
// that.
//
// `sep2p_cli report` is the front-end; the renderers are exposed so
// tests can assert on the exact tables.

#ifndef SEP2P_OBS_REPORT_H_
#define SEP2P_OBS_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/analyzer.h"
#include "util/status.h"

namespace sep2p::obs {

struct Report : Analysis {
  size_t trace_count = 0;
  std::vector<std::string> sources;  // the traces, in analysis order
  std::vector<uint64_t> trace_durations_us;  // per trace, same order

  // The markdown shows the top `options.top_n` retry offenders; time
  // axes read "virtual" or "wall-clock" after meta.clock (SimNetwork
  // records virtual time, TcpTransport wall-clock).
  std::string ToMarkdown(const AnalyzerOptions& options = {}) const;
  // Phase-attribution table alone, machine-readable.
  std::string ToCsv() const;
  // Folded stacks, one "stack value" line each (flamegraph.pl input).
  std::string ToFolded() const;
};

// Merges one analyzed trace into the report (exposed so harnesses
// holding in-memory analyses can skip the file round-trip). Offenders
// re-rank by attempts, then phase, then rpc id.
void MergeAnalysis(Report& report, const Analysis& analysis);

// Analyzes `trace` and merges it into `report` under the name `source`;
// an invalid trace fails with an error naming the source. BuildReport
// runs it for every file, `sep2p_cli report --cluster` once for the
// merged cluster trace.
Status AddTrace(Report& report, const Trace& trace, const std::string& source,
                const AnalyzerOptions& options = {});

// Resolves `path` to trace files: a regular file stands alone, a
// directory yields every `*.jsonl` directly inside it, sorted by name.
// An empty or unlistable directory is an error. Shared by BuildReport,
// the cluster merger (obs/cluster.h) and `sep2p_cli check` so all three
// glob identically.
Result<std::vector<std::string>> ListTraceFiles(const std::string& path);

// `path`: one .jsonl trace or a directory containing them.
Result<Report> BuildReport(const std::string& path,
                           const AnalyzerOptions& options = {});

}  // namespace sep2p::obs

#endif  // SEP2P_OBS_REPORT_H_
