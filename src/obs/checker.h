// Trace-driven invariant checker.
//
// CheckTrace replays a recorded trace (obs/trace.h) against the
// protocol invariants the simulator is supposed to uphold, so a
// fault-injected execution can be audited after the fact instead of
// asserting mid-run:
//
//  1. Node ids stay inside [0, meta.node_count).
//  2. Every retry is preceded by a timeout or drop of the SAME rpc —
//     the network never re-sends spontaneously.
//  3. No rpc consumes more attempts than meta.max_attempts, and
//     attempt/timeout/retry/end/fail events always follow their
//     rpc-begin, with at most one terminal (end or fail) per rpc.
//  4. No delivery lands on a node at or after its recorded crash
//     instant. Evaluated in trace (causal) order: virtual timestamps
//     rewind across parallel branches, so "after" means both later in
//     the log AND at a delivery time >= the crash time.
//  5. Message conservation: sends = delivers + drops + in-flight at
//     shutdown (the "shutdown" mark FinalizeTrace records). Without
//     the mark the weaker `delivers + drops <= sends` is enforced.
//  6. Every completed selection ("selection-complete" mark, value = k)
//     carries exactly k "sl-attest" signature events inside its span.
//  7. Span discipline: begins and ends pair up innermost-first and
//     every span is closed by the end of the trace.
//
// The checker is pure: it never touches the network or the recorder,
// so it runs equally over live traces and traces reloaded from JSONL.
// Its counts are the analyzer's EventTally (obs/analyzer.h), so `check`
// and `report` count every event the same way.

#ifndef SEP2P_OBS_CHECKER_H_
#define SEP2P_OBS_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/analyzer.h"
#include "obs/trace.h"

namespace sep2p::obs {

// The inherited tallies are for reporting and for tests to assert
// against.
struct CheckerReport : EventTally {
  // Human-readable violation descriptions; empty = all invariants hold.
  // Capped at kMaxViolations (suppressed count in `suppressed`).
  std::vector<std::string> violations;
  uint64_t suppressed = 0;

  uint64_t selections_completed = 0;  // "selection-complete" marks

  bool ok() const { return violations.empty() && suppressed == 0; }

  static constexpr size_t kMaxViolations = 64;
};

CheckerReport CheckTrace(const Trace& trace);

}  // namespace sep2p::obs

#endif  // SEP2P_OBS_CHECKER_H_
