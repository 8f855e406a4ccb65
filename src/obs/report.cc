#include "obs/report.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>

#include "obs/export.h"

namespace sep2p::obs {
namespace {

// Folded-stack lines the markdown shows (the heaviest first); ToFolded
// writes them all.
constexpr size_t kFoldedLines = 40;

std::string Num(uint64_t v) { return std::to_string(v); }

std::string Fixed(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

// Nearest-rank percentile over an unsorted copy (matches
// Histogram::Quantile's convention; exact here because we keep the raw
// per-trace durations).
uint64_t PercentileOf(std::vector<uint64_t> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      q * static_cast<double>(values.size()) + 0.999999);
  if (rank < 1) rank = 1;
  if (rank > values.size()) rank = values.size();
  return values[rank - 1];
}

const char* SegmentKindName(CriticalSegment::Kind kind) {
  switch (kind) {
    case CriticalSegment::Kind::kRpc:
      return "rpc";
    case CriticalSegment::Kind::kRoute:
      return "route";
    case CriticalSegment::Kind::kWait:
      return "wait";
  }
  return "?";
}

}  // namespace

void MergeAnalysis(Report& report, const Analysis& analysis) {
  report.trace_durations_us.push_back(analysis.duration_us);
  if (report.trace_count++ == 0) {
    static_cast<Analysis&>(report) = analysis;
  } else {
    // Counts, latencies and offenders add up; meta, duration and the
    // critical path stay the first trace's.
    report += analysis;  // the event tallies
    report.total_events += analysis.total_events;
    report.rpc_latency.Merge(analysis.rpc_latency);
    report.retried_rpcs += analysis.retried_rpcs;
    report.top_retries.insert(report.top_retries.end(),
                              analysis.top_retries.begin(),
                              analysis.top_retries.end());

    // Phase rows sum by name and folded stacks by stack; both sides are
    // sorted, but a map keeps the merge simple and deterministic.
    std::map<std::string, PhaseRow> rows;
    for (PhaseRow& row : report.phases) rows.emplace(row.name, std::move(row));
    for (const PhaseRow& row : analysis.phases) {
      auto [it, inserted] = rows.try_emplace(row.name, row);
      if (!inserted) it->second += row;
    }
    report.phases.clear();
    for (auto& [name, row] : rows) report.phases.push_back(std::move(row));

    std::map<std::string, uint64_t> folded(report.folded_stacks.begin(),
                                           report.folded_stacks.end());
    for (const auto& [stack, value] : analysis.folded_stacks) {
      folded[stack] += value;
    }
    report.folded_stacks.assign(folded.begin(), folded.end());
  }

  // The renderers cap the offenders; the tie-break on phase then rpc id
  // gives a stable cross-trace order.
  std::stable_sort(report.top_retries.begin(), report.top_retries.end(),
                   [](const RetryOffender& a, const RetryOffender& b) {
                     if (a.attempts != b.attempts) return a.attempts > b.attempts;
                     if (a.phase != b.phase) return a.phase < b.phase;
                     return a.rpc < b.rpc;
                   });
}

Status AddTrace(Report& report, const Trace& trace, const std::string& source,
                const AnalyzerOptions& options) {
  Result<Analysis> analysis = Analyze(trace, options);
  if (!analysis.ok()) {
    return Status::InvalidArgument(source + ": " +
                                   analysis.status().message());
  }
  MergeAnalysis(report, analysis.value());
  report.sources.push_back(source);
  return Status::Ok();
}

std::string Report::ToMarkdown(const AnalyzerOptions& options) const {
  std::string out;
  out += "# SEP2P trace report\n\n";
  out += "- traces: " + Num(trace_count);
  if (!sources.empty()) {
    out += " (`" + sources.front() + "`";
    if (sources.size() > 1) out += " .. `" + sources.back() + "`";
    out += ")";
  }
  out += "\n";
  out += "- events: " + Num(total_events) + ", spans: " + Num(spans) + "\n";
  // The virtual wording is pinned byte-for-byte by the report tests;
  // wall-clock traces (live clusters) get their own label.
  if (meta.clock == ClockDomain::kWall) {
    out += "- wall-clock duration per trace (us): p50 " +
           Num(PercentileOf(trace_durations_us, 0.50)) + ", max " +
           Num(PercentileOf(trace_durations_us, 1.0)) + "\n\n";
  } else {
    out += "- virtual duration per trace (us): p50 " +
           Num(PercentileOf(trace_durations_us, 0.50)) + ", max " +
           Num(PercentileOf(trace_durations_us, 1.0)) + "\n\n";
  }

  out += "## Totals\n\n";
  out += "| metric | value |\n|---|---|\n";
  out += "| messages sent | " + Num(sends) + " |\n";
  out += "| messages delivered | " + Num(delivers) + " |\n";
  out += "| messages dropped | " + Num(drops) + " |\n";
  out += "| bytes sent | " + Num(bytes_sent) + " |\n";
  out += "| RPCs | " + Num(rpcs) + " |\n";
  out += "| RPC attempts | " + Num(attempts) + " |\n";
  out += "| retry amplification | " + Fixed(retry_amplification()) + " |\n";
  out += "| timeouts | " + Num(timeouts) + " |\n";
  out += "| retries | " + Num(retries) + " |\n";
  out += "| failed RPCs | " + Num(rpc_fails) + " |\n";
  out += "| signatures | " + Num(signatures) + " |\n";
  out += "| dispatches | " + Num(dispatches) + " |\n";
  out += "| crashes | " + Num(crashes) + " |\n";
  out += "| routes | " + Num(routes) + " |\n";
  out += "| route hops | " + Num(route_hops) + " |\n\n";

  out += "## Phase attribution\n\n";
  out +=
      "| phase | spans | total us | self us | rpc us | rpcs | attempts "
      "| amp | sends | delivers | drops | timeouts | retries | sigs | "
      "bytes |\n";
  out += "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n";
  for (const PhaseRow& row : phases) {
    out += "| " + row.name + " | " + Num(row.spans) + " | " +
           Num(row.total_us) + " | " + Num(row.self_us) + " | " +
           Num(row.rpc_time_us) + " | " + Num(row.rpcs) + " | " +
           Num(row.attempts) + " | " + Fixed(row.retry_amplification()) +
           " | " + Num(row.sends) + " | " + Num(row.delivers) + " | " +
           Num(row.drops) + " | " + Num(row.timeouts) + " | " +
           Num(row.retries) + " | " + Num(row.signatures) + " | " +
           Num(row.bytes_sent) + " |\n";
  }
  out += "\n";

  out += meta.clock == ClockDomain::kWall
             ? "## RPC latency (wall-clock us, completed RPCs)\n\n"
             : "## RPC latency (virtual us, completed RPCs)\n\n";
  out += "| count | mean | p50 | p90 | p99 | max |\n|---|---|---|---|---|---|\n";
  out += "| " + Num(rpc_latency.count()) + " | " + Fixed(rpc_latency.mean()) +
         " | " + Num(rpc_latency.Quantile(0.50)) + " | " +
         Num(rpc_latency.Quantile(0.90)) + " | " +
         Num(rpc_latency.Quantile(0.99)) + " | " + Num(rpc_latency.max()) +
         " |\n\n";

  out += "## Critical path";
  if (critical_span.empty()) {
    out += "\n\n(no spans in trace)\n\n";
  } else {
    out += " (first trace: `" + critical_span + "`, " +
           Num(critical_span_us) + " us; chain covers " +
           Num(critical_path_us) + " us)\n\n";
    out += "| # | kind | start us | end us | dur us | rpc | node | peer | "
           "attempts/hops | phase |\n";
    out += "|---|---|---|---|---|---|---|---|---|---|\n";
    size_t i = 0;
    for (const CriticalSegment& seg : critical_path) {
      out += "| " + Num(i++) + " | " + SegmentKindName(seg.kind) + " | " +
             Num(seg.start_us) + " | " + Num(seg.end_us) + " | " +
             Num(seg.end_us - seg.start_us) + " | ";
      out += seg.kind == CriticalSegment::Kind::kRpc ? Num(seg.rpc) : "-";
      out += " | ";
      out += seg.node == kNoNode ? "-" : Num(seg.node);
      out += " | ";
      out += seg.peer == kNoNode ? "-" : Num(seg.peer);
      out += " | ";
      out += seg.kind == CriticalSegment::Kind::kWait ? "-" : Num(seg.attempts);
      out += " | " + (seg.phase.empty() ? std::string("-") : seg.phase) +
             " |\n";
    }
    out += "\n";
  }

  out += "## Top retry offenders\n\n";
  if (retried_rpcs == 0) {
    out += "(none — every RPC succeeded on its first attempt)\n\n";
  } else if (top_retries.empty() || options.top_n == 0) {
    out += "(" + Num(retried_rpcs) +
           (retried_rpcs == 1 ? " RPC" : " RPCs") +
           " retried; --top 0 lists none)\n\n";
  } else {
    out += "| rpc | client | server | attempts | failed | phase |\n";
    out += "|---|---|---|---|---|---|\n";
    size_t shown = 0;
    for (const RetryOffender& o : top_retries) {
      if (shown++ >= options.top_n) break;
      out += "| " + Num(o.rpc) + " | " + Num(o.client) + " | " +
             Num(o.server) + " | " + Num(o.attempts) + " | " +
             (o.failed ? "yes" : "no") + " | " + o.phase + " |\n";
    }
    out += "\n";
  }

  out += "## Folded stacks (self us, top " + Num(kFoldedLines) +
         " by time)\n\n```\n";
  std::vector<std::pair<std::string, uint64_t>> by_time = folded_stacks;
  std::stable_sort(by_time.begin(), by_time.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  size_t lines = 0;
  for (const auto& [stack, value] : by_time) {
    if (lines++ >= kFoldedLines) break;
    out += stack + " " + Num(value) + "\n";
  }
  out += "```\n";
  return out;
}

std::string Report::ToCsv() const {
  std::string out =
      "phase,spans,events,total_us,self_us,rpc_time_us,rpcs,rpc_fails,"
      "attempts,retry_amplification,sends,delivers,drops,timeouts,retries,"
      "signatures,dispatches,crashes,marks,routes,route_hops,bytes_sent\n";
  for (const PhaseRow& row : phases) {
    out += row.name + "," + Num(row.spans) + "," + Num(row.events) + "," +
           Num(row.total_us) + "," + Num(row.self_us) + "," +
           Num(row.rpc_time_us) + "," + Num(row.rpcs) + "," +
           Num(row.rpc_fails) + "," + Num(row.attempts) + "," +
           Fixed(row.retry_amplification()) + "," + Num(row.sends) + "," +
           Num(row.delivers) + "," + Num(row.drops) + "," +
           Num(row.timeouts) + "," + Num(row.retries) + "," +
           Num(row.signatures) + "," + Num(row.dispatches) + "," +
           Num(row.crashes) + "," + Num(row.marks) + "," + Num(row.routes) +
           "," + Num(row.route_hops) + "," + Num(row.bytes_sent) + "\n";
  }
  return out;
}

std::string Report::ToFolded() const {
  std::string out;
  for (const auto& [stack, value] : folded_stacks) {
    out += stack + " " + Num(value) + "\n";
  }
  return out;
}

Result<std::vector<std::string>> ListTraceFiles(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<std::string> files;
  if (fs::is_directory(path, ec)) {
    for (const fs::directory_entry& entry : fs::directory_iterator(path, ec)) {
      if (entry.is_regular_file() && entry.path().extension() == ".jsonl") {
        files.push_back(entry.path().string());
      }
    }
    if (ec) {
      return Status::InvalidArgument("report: cannot list directory " + path);
    }
    std::sort(files.begin(), files.end());
    if (files.empty()) {
      return Status::InvalidArgument("report: no *.jsonl traces in " + path);
    }
  } else {
    files.push_back(path);
  }
  return files;
}

Result<Report> BuildReport(const std::string& path,
                           const AnalyzerOptions& options) {
  Result<std::vector<std::string>> files = ListTraceFiles(path);
  if (!files.ok()) return files.status();
  Report report;
  for (const std::string& file : files.value()) {
    Result<Trace> trace = LoadTrace(file);
    if (!trace.ok()) return trace.status();
    SEP2P_RETURN_IF_ERROR(AddTrace(report, trace.value(), file, options));
  }
  return report;
}

}  // namespace sep2p::obs
