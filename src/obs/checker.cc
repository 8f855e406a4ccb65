#include "obs/checker.h"

#include <map>
#include <unordered_map>

namespace sep2p::obs {

namespace {

struct RpcState {
  bool began = false;
  bool terminal = false;   // rpc-end or rpc-fail seen
  uint64_t failures = 0;   // timeouts + drops attributed to this rpc
  uint64_t retries = 0;
};

}  // namespace

CheckerReport CheckTrace(const Trace& trace) {
  CheckerReport report;
  auto violate = [&report](std::string what) {
    if (report.violations.size() < CheckerReport::kMaxViolations) {
      report.violations.push_back(std::move(what));
    } else {
      ++report.suppressed;
    }
  };
  auto at = [](size_t index, const Event& e) {
    return " (event " + std::to_string(index) + ", t=" +
           std::to_string(e.t_us) + "us)";
  };

  if (trace.meta.version != 1) {
    violate("unsupported trace version " +
            std::to_string(trace.meta.version));
    return report;
  }
  const uint32_t node_count = trace.meta.node_count;
  const uint64_t max_attempts =
      trace.meta.max_attempts > 0
          ? static_cast<uint64_t>(trace.meta.max_attempts)
          : 0;

  std::unordered_map<uint64_t, RpcState> rpcs;
  std::unordered_map<uint32_t, uint64_t> crash_at;  // node -> crash t_us
  std::unordered_map<uint64_t, uint64_t> span_parent;
  std::vector<uint64_t> span_stack;
  bool saw_shutdown_mark = false;
  uint64_t shutdown_in_flight = 0;

  // Walks a span's ancestry (itself included) looking for `ancestor`.
  auto in_span = [&span_parent](uint64_t span, uint64_t ancestor) {
    while (span != 0) {
      if (span == ancestor) return true;
      auto it = span_parent.find(span);
      if (it == span_parent.end()) return false;
      span = it->second;
    }
    return false;
  };

  // Invariant 6 needs the signatures that FOLLOW a selection-complete
  // mark's span too (none are emitted after it, but a corrupted trace
  // could reorder), so marks are checked in a second pass over the
  // collected signature list.
  struct SelectionMark {
    size_t index;
    uint64_t span;
    uint64_t expected_k;
  };
  std::vector<SelectionMark> selection_marks;
  std::vector<uint64_t> attest_signature_spans;

  for (size_t i = 0; i < trace.events.size(); ++i) {
    const Event& e = trace.events[i];

    // 1. Node-id range (kNoNode is the explicit "no node" value).
    if (node_count > 0) {
      if (e.node != kNoNode && e.node >= node_count) {
        violate("node id " + std::to_string(e.node) + " out of range" +
                at(i, e));
      }
      if (e.peer != kNoNode && e.peer >= node_count) {
        violate("peer id " + std::to_string(e.peer) + " out of range" +
                at(i, e));
      }
    }

    report.Count(e);
    switch (e.kind) {
      case EventKind::kDeliver: {
        // 4. A delivery must not land on a crashed node. Trace order
        // is causal order; the timestamp comparison filters parallel
        // branches that legitimately delivered before the crash.
        auto it = crash_at.find(e.node);
        if (it != crash_at.end() && e.t_us >= it->second) {
          violate("delivery to crashed node " + std::to_string(e.node) +
                  at(i, e));
        }
        break;
      }
      case EventKind::kDrop:
        if (e.rpc != 0) ++rpcs[e.rpc].failures;
        break;
      case EventKind::kTimeout:
        if (e.rpc == 0 || !rpcs[e.rpc].began) {
          violate("timeout outside any rpc" + at(i, e));
        } else {
          ++rpcs[e.rpc].failures;
        }
        break;
      case EventKind::kRetry: {
        RpcState& rpc = rpcs[e.rpc];
        if (e.rpc == 0 || !rpc.began) {
          violate("retry outside any rpc" + at(i, e));
          break;
        }
        ++rpc.retries;
        // 2. Spontaneous re-sends are forbidden: by this point the rpc
        // must have accumulated at least as many timeouts/drops as
        // retries.
        if (rpc.retries > rpc.failures) {
          violate("retry without preceding timeout/drop on rpc " +
                  std::to_string(e.rpc) + at(i, e));
        }
        if (max_attempts > 0 && e.value > max_attempts) {
          violate("retry beyond attempt budget on rpc " +
                  std::to_string(e.rpc) + at(i, e));
        }
        break;
      }
      case EventKind::kAttempt: {
        RpcState& rpc = rpcs[e.rpc];
        if (e.rpc == 0 || !rpc.began) {
          violate("attempt outside any rpc" + at(i, e));
          break;
        }
        // 3. The retry budget is a hard cap.
        if (max_attempts > 0 && e.value > max_attempts) {
          violate("rpc " + std::to_string(e.rpc) + " exceeded " +
                  std::to_string(max_attempts) + " attempts" + at(i, e));
        }
        break;
      }
      case EventKind::kRpcBegin:
        if (e.rpc == 0) {
          violate("rpc-begin without rpc id" + at(i, e));
        } else if (rpcs[e.rpc].began) {
          violate("duplicate rpc-begin for rpc " + std::to_string(e.rpc) +
                  at(i, e));
        } else {
          rpcs[e.rpc].began = true;
        }
        break;
      case EventKind::kRpcEnd:
      case EventKind::kRpcFail: {
        RpcState& rpc = rpcs[e.rpc];
        if (e.rpc == 0 || !rpc.began) {
          violate("rpc terminal event outside any rpc" + at(i, e));
          break;
        }
        if (rpc.terminal) {
          violate("second terminal event for rpc " + std::to_string(e.rpc) +
                  at(i, e));
        }
        rpc.terminal = true;
        break;
      }
      case EventKind::kCrash: {
        // Keep the earliest instant if a node is crashed twice.
        auto [it, inserted] = crash_at.emplace(e.node, e.t_us);
        if (!inserted && e.t_us < it->second) it->second = e.t_us;
        break;
      }
      case EventKind::kSend:
      case EventKind::kDispatch:
      case EventKind::kRoute:
        break;  // counted above; no invariant of their own
      case EventKind::kSignature:
        if (e.detail == "sl-attest") {
          attest_signature_spans.push_back(e.span);
        }
        break;
      case EventKind::kMark:
        if (e.detail == "shutdown") {
          saw_shutdown_mark = true;
          shutdown_in_flight = e.value;
        } else if (e.detail == "selection-complete") {
          ++report.selections_completed;
          selection_marks.push_back({i, e.span, e.value});
        }
        break;
      case EventKind::kSpanBegin:
        if (e.span == 0) {
          violate("span-begin without span id" + at(i, e));
          break;
        }
        if (span_parent.count(e.span) != 0) {
          violate("span id " + std::to_string(e.span) + " reused" +
                  at(i, e));
          break;
        }
        // 7. Strict nesting: the declared parent is the span currently
        // open.
        if (e.parent != (span_stack.empty() ? 0 : span_stack.back())) {
          violate("span " + std::to_string(e.span) +
                  " declares wrong parent" + at(i, e));
        }
        span_parent[e.span] = e.parent;
        span_stack.push_back(e.span);
        break;
      case EventKind::kSpanEnd:
        if (span_stack.empty() || span_stack.back() != e.span) {
          violate("span-end does not match innermost open span" + at(i, e));
        } else {
          span_stack.pop_back();
        }
        break;
    }
  }

  if (!span_stack.empty()) {
    violate(std::to_string(span_stack.size()) +
            " span(s) left open at end of trace");
  }

  // 5. Message conservation over the whole run.
  if (saw_shutdown_mark) {
    if (report.sends != report.delivers + report.drops + shutdown_in_flight) {
      violate("message conservation broken: " + std::to_string(report.sends) +
              " sends != " + std::to_string(report.delivers) +
              " delivers + " + std::to_string(report.drops) + " drops + " +
              std::to_string(shutdown_in_flight) + " in flight");
    }
  } else if (report.delivers + report.drops > report.sends) {
    violate("message conservation broken: more delivers+drops than sends");
  }

  // 6. Exactly k SL attestation signatures inside each completed
  // selection's span.
  for (const SelectionMark& mark : selection_marks) {
    uint64_t found = 0;
    for (uint64_t span : attest_signature_spans) {
      if (in_span(span, mark.span)) ++found;
    }
    if (found != mark.expected_k) {
      violate("selection completed with " + std::to_string(found) +
              " sl-attest signatures, expected " +
              std::to_string(mark.expected_k) + " (event " +
              std::to_string(mark.index) + ")");
    }
  }

  return report;
}

}  // namespace sep2p::obs
