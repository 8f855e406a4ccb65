// Trace analytics: event tallies, phase attribution, critical path,
// retry amplification, folded stacks.
//
// EventTally is the one definition of the 16 event counts every reader
// of a trace reports: Count() charges one event, += adds two tallies,
// retry_amplification() is attempts / rpcs. PhaseRow, Analysis,
// obs::Report (obs/report.h) and obs::CheckerReport (obs/checker.h)
// inherit their counts from it.
//
// Analyze() consumes a recorded trace (obs/trace.h — live or reloaded
// from JSONL) and computes the attribution the raw event log only
// implies:
//
//  - Per-phase cost attribution. Every non-span event is charged to the
//    NAME of its DIRECT enclosing span ("(top)" for events outside any
//    span), and a span-begin to the row of its own name. Each event is
//    counted once, in its row, and the trace totals are the sum of the
//    rows — no event is double-counted up the ancestry and none is
//    lost. Spans of the same name (e.g. "sl-engage" across relocations)
//    aggregate into one row carrying total/self virtual time.
//  - Critical path. Within the longest top-level span, the longest
//    chain of causally-ordered intervals (RPCs and routing legs) whose
//    endpoints abut: CallBatch's next wave starts exactly when the
//    slowest call of the previous wave ended, so walking backwards
//    from the span's end and repeatedly taking the interval that ends
//    where the chain currently begins reconstructs the latency-carrying
//    chain; gaps are reported as explicit wait segments.
//  - Retry amplification, globally and per phase, plus the top-N
//    offenders (RPCs that burned the most attempts).
//  - Folded stacks: "selection;sl-engage 12345" lines (self time in
//    virtual µs, ancestry joined by ';'), ready for flamegraph.pl or
//    speedscope.
//
// Analyze is strict about structure: span ends without a begin, span id
// reuse, events attributed to a span that was never opened, or RPC
// events before their rpc-begin return an error Status instead of a
// best-effort result, so a corrupted trace fails a report pipeline
// loudly. (Invariant checking beyond structure stays in obs/checker.h.)

#ifndef SEP2P_OBS_ANALYZER_H_
#define SEP2P_OBS_ANALYZER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"

namespace sep2p::obs {

// The per-kind event counts. Span-end and rpc-end events count nowhere;
// every other kind bumps its own count.
struct EventTally {
  uint64_t spans = 0;  // span-begins
  uint64_t sends = 0;
  uint64_t delivers = 0;
  uint64_t drops = 0;
  uint64_t timeouts = 0;
  uint64_t retries = 0;
  uint64_t rpcs = 0;  // rpc-begins
  uint64_t rpc_fails = 0;
  uint64_t attempts = 0;
  uint64_t signatures = 0;
  uint64_t dispatches = 0;
  uint64_t crashes = 0;
  uint64_t marks = 0;
  uint64_t routes = 0;
  uint64_t route_hops = 0;  // sum of the routes' hop counts
  uint64_t bytes_sent = 0;  // payload bytes of the sends

  void Count(const Event& e);
  EventTally& operator+=(const EventTally& other);
  // attempts / rpcs (0 when no rpcs).
  double retry_amplification() const;
};

struct PhaseRow : EventTally {
  std::string name;     // span name; "(top)" = outside any span
  uint64_t events = 0;  // non-span events charged here
  uint64_t total_us = 0;     // sum of this phase's span durations
  uint64_t self_us = 0;      // total_us minus child-span time
  uint64_t rpc_time_us = 0;  // sum of completed-RPC durations begun here

  // Adds another row of the same name (a second trace's).
  PhaseRow& operator+=(const PhaseRow& other);
};

struct RetryOffender {
  uint64_t rpc = 0;
  uint32_t client = kNoNode;
  uint32_t server = kNoNode;
  uint64_t attempts = 0;
  bool failed = false;  // exhausted the budget (rpc-fail)
  std::string phase;    // direct enclosing span of the rpc-begin
};

struct CriticalSegment {
  enum class Kind { kRpc, kRoute, kWait };
  Kind kind = Kind::kWait;
  uint64_t start_us = 0;
  uint64_t end_us = 0;
  uint64_t rpc = 0;          // kRpc only
  uint32_t node = kNoNode;   // client / route source
  uint32_t peer = kNoNode;   // server
  uint64_t attempts = 0;     // kRpc: attempts consumed; kRoute: hops
  std::string phase;         // direct enclosing span name
};

// Whole-trace tallies: the sum of the phase rows.
struct Analysis : EventTally {
  TraceMeta meta;
  uint64_t total_events = 0;
  uint64_t duration_us = 0;  // last event time - first event time

  std::vector<PhaseRow> phases;  // sorted by name
  Histogram rpc_latency;         // completed RPCs only, virtual µs

  std::vector<RetryOffender> top_retries;  // attempts desc, ≤ options.top_n
  uint64_t retried_rpcs = 0;  // RPCs with more than one attempt, uncapped

  // Critical path through the longest top-level span, chronological.
  std::string critical_span;        // its name (empty = no spans)
  uint64_t critical_span_us = 0;    // its duration
  uint64_t critical_path_us = 0;    // time covered by rpc/route segments
  std::vector<CriticalSegment> critical_path;

  // Folded flamegraph stacks: ("a;b;c", self µs), sorted by stack.
  std::vector<std::pair<std::string, uint64_t>> folded_stacks;
};

struct AnalyzerOptions {
  // Retry-offender cap: per trace here, and on the merged list the
  // report renders (obs/report.h).
  size_t top_n = 10;
};

Result<Analysis> Analyze(const Trace& trace,
                         const AnalyzerOptions& options = {});

}  // namespace sep2p::obs

#endif  // SEP2P_OBS_ANALYZER_H_
