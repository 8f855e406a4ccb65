#include "obs/analyzer.h"

#include <algorithm>
#include <map>
#include <unordered_map>

namespace sep2p::obs {

namespace {

struct SpanInfo {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  uint64_t begin_us = 0;
  uint64_t end_us = 0;
  uint64_t child_us = 0;  // direct children's durations
  bool closed = false;
  uint64_t Duration() const {
    return end_us >= begin_us ? end_us - begin_us : 0;
  }
};

struct RpcInfo {
  uint64_t id = 0;
  uint32_t client = kNoNode;
  uint32_t server = kNoNode;
  uint64_t span = 0;      // direct enclosing span of rpc-begin
  uint64_t begin_us = 0;
  uint64_t end_us = 0;
  uint64_t attempts = 0;
  bool terminal = false;
  bool failed = false;
};

struct RouteInfo {
  uint64_t span = 0;
  uint64_t start_us = 0;
  uint64_t end_us = 0;
  uint64_t hops = 0;
};

}  // namespace

void EventTally::Count(const Event& e) {
  switch (e.kind) {
    case EventKind::kSpanBegin: ++spans; break;
    case EventKind::kSend:
      ++sends;
      bytes_sent += e.value;
      break;
    case EventKind::kDeliver: ++delivers; break;
    case EventKind::kDrop: ++drops; break;
    case EventKind::kTimeout: ++timeouts; break;
    case EventKind::kRetry: ++retries; break;
    case EventKind::kRpcBegin: ++rpcs; break;
    case EventKind::kRpcFail: ++rpc_fails; break;
    case EventKind::kAttempt: ++attempts; break;
    case EventKind::kSignature: ++signatures; break;
    case EventKind::kDispatch: ++dispatches; break;
    case EventKind::kCrash: ++crashes; break;
    case EventKind::kMark: ++marks; break;
    case EventKind::kRoute:
      ++routes;
      route_hops += e.seq;
      break;
    case EventKind::kSpanEnd:
    case EventKind::kRpcEnd:
      break;
  }
}

EventTally& EventTally::operator+=(const EventTally& other) {
  spans += other.spans;
  sends += other.sends;
  delivers += other.delivers;
  drops += other.drops;
  timeouts += other.timeouts;
  retries += other.retries;
  rpcs += other.rpcs;
  rpc_fails += other.rpc_fails;
  attempts += other.attempts;
  signatures += other.signatures;
  dispatches += other.dispatches;
  crashes += other.crashes;
  marks += other.marks;
  routes += other.routes;
  route_hops += other.route_hops;
  bytes_sent += other.bytes_sent;
  return *this;
}

double EventTally::retry_amplification() const {
  return rpcs > 0 ? static_cast<double>(attempts) / static_cast<double>(rpcs)
                  : 0.0;
}

PhaseRow& PhaseRow::operator+=(const PhaseRow& other) {
  EventTally::operator+=(other);
  events += other.events;
  total_us += other.total_us;
  self_us += other.self_us;
  rpc_time_us += other.rpc_time_us;
  return *this;
}

Result<Analysis> Analyze(const Trace& trace,
                         const AnalyzerOptions& options) {
  Analysis a;
  a.meta = trace.meta;
  a.total_events = trace.events.size();

  auto err = [](size_t index, const std::string& what) {
    return Status::InvalidArgument("trace analysis: " + what + " (event " +
                                   std::to_string(index) + ")");
  };

  std::unordered_map<uint64_t, SpanInfo> spans;
  std::unordered_map<uint64_t, RpcInfo> rpcs;
  std::vector<uint64_t> rpc_order;  // deterministic offender ordering
  std::vector<RouteInfo> routes;
  std::map<std::string, PhaseRow> rows;

  // Phase lookup for a non-span event: the DIRECT enclosing span's name.
  auto phase_of = [&spans](uint64_t span) -> std::string {
    if (span == 0) return "(top)";
    auto it = spans.find(span);
    return it != spans.end() ? it->second.name : "(top)";
  };

  uint64_t t_min = UINT64_MAX;
  uint64_t t_max = 0;

  for (size_t i = 0; i < trace.events.size(); ++i) {
    const Event& e = trace.events[i];
    t_min = std::min(t_min, e.t_us);
    t_max = std::max(t_max, e.t_us);

    if (e.kind == EventKind::kSpanBegin) {
      if (e.span == 0) return err(i, "span-begin without id");
      if (spans.count(e.span) != 0) {
        return err(i, "span id " + std::to_string(e.span) + " reused");
      }
      SpanInfo info;
      info.id = e.span;
      info.parent = e.parent;
      info.name = e.detail;
      info.begin_us = e.t_us;
      spans.emplace(e.span, std::move(info));
      rows[e.detail].Count(e);
      continue;
    }
    if (e.kind == EventKind::kSpanEnd) {
      auto it = spans.find(e.span);
      if (it == spans.end()) return err(i, "span-end without begin");
      if (it->second.closed) return err(i, "span closed twice");
      it->second.closed = true;
      it->second.end_us = e.t_us;
      // Charge this span's duration to its parent's child time.
      if (it->second.parent != 0) {
        auto parent = spans.find(it->second.parent);
        if (parent != spans.end()) {
          parent->second.child_us += it->second.Duration();
        }
      }
      continue;
    }

    // Non-span event: attribute to the direct enclosing span.
    if (e.span != 0 && spans.find(e.span) == spans.end()) {
      return err(i, "event references unknown span " +
                        std::to_string(e.span));
    }
    PhaseRow& row = rows[phase_of(e.span)];
    ++row.events;
    row.Count(e);

    // The rpc this event belongs to (rpc id 0 is never registered).
    RpcInfo* rpc = nullptr;
    if (auto it = rpcs.find(e.rpc); it != rpcs.end()) rpc = &it->second;
    switch (e.kind) {
      case EventKind::kTimeout:
        if (rpc == nullptr) return err(i, "timeout before rpc-begin");
        break;
      case EventKind::kRetry:
        if (rpc == nullptr) return err(i, "retry before rpc-begin");
        break;
      case EventKind::kAttempt:
        if (rpc == nullptr) return err(i, "attempt before rpc-begin");
        ++rpc->attempts;
        break;
      case EventKind::kRpcBegin: {
        if (e.rpc == 0) return err(i, "rpc-begin without id");
        if (rpc != nullptr) {
          return err(i, "duplicate rpc-begin " + std::to_string(e.rpc));
        }
        RpcInfo info;
        info.id = e.rpc;
        info.client = e.node;
        info.server = e.peer;
        info.span = e.span;
        info.begin_us = e.t_us;
        rpcs.emplace(e.rpc, info);
        rpc_order.push_back(e.rpc);
        break;
      }
      case EventKind::kRpcEnd:
      case EventKind::kRpcFail:
        if (rpc == nullptr) {
          return err(i, "rpc terminal before rpc-begin");
        }
        rpc->terminal = true;
        rpc->failed = e.kind == EventKind::kRpcFail;
        rpc->end_us = e.t_us;
        break;
      case EventKind::kRoute: {
        RouteInfo route;
        route.span = e.span;
        route.start_us = e.t_us;
        route.end_us = e.t_us + e.value;
        route.hops = e.seq;
        routes.push_back(route);
        break;
      }
      default:
        break;
    }
  }

  if (t_min != UINT64_MAX) a.duration_us = t_max - t_min;

  // RPC latencies + per-phase rpc time, charged to the begin's phase.
  for (uint64_t id : rpc_order) {
    const RpcInfo& rpc = rpcs.at(id);
    if (!rpc.terminal || rpc.failed) continue;
    const uint64_t dur =
        rpc.end_us >= rpc.begin_us ? rpc.end_us - rpc.begin_us : 0;
    a.rpc_latency.Observe(dur);
    rows[phase_of(rpc.span)].rpc_time_us += dur;
  }

  // Span time per phase name. An unclosed top-level span would already
  // have errored the checker; here it simply contributes no duration.
  for (const auto& [id, span] : spans) {
    PhaseRow& row = rows[span.name];
    if (!span.closed) continue;
    const uint64_t dur = span.Duration();
    row.total_us += dur;
    row.self_us += dur >= span.child_us ? dur - span.child_us : 0;
  }

  for (auto& [name, row] : rows) {
    row.name = name;
    a += row;
    a.phases.push_back(row);
  }

  // Retry offenders: most attempts first, then rpc id for determinism.
  std::vector<const RpcInfo*> offenders;
  for (uint64_t id : rpc_order) {
    const RpcInfo& rpc = rpcs.at(id);
    if (rpc.attempts > 1) offenders.push_back(&rpc);
  }
  std::sort(offenders.begin(), offenders.end(),
            [](const RpcInfo* x, const RpcInfo* y) {
              if (x->attempts != y->attempts) {
                return x->attempts > y->attempts;
              }
              return x->id < y->id;
            });
  a.retried_rpcs = offenders.size();
  if (offenders.size() > options.top_n) offenders.resize(options.top_n);
  for (const RpcInfo* rpc : offenders) {
    RetryOffender o;
    o.rpc = rpc->id;
    o.client = rpc->client;
    o.server = rpc->server;
    o.attempts = rpc->attempts;
    o.failed = rpc->failed;
    o.phase = phase_of(rpc->span);
    a.top_retries.push_back(std::move(o));
  }

  // Critical path through the longest closed top-level span.
  const SpanInfo* root = nullptr;
  for (const auto& [id, span] : spans) {
    if (span.parent != 0 || !span.closed) continue;
    if (root == nullptr || span.Duration() > root->Duration() ||
        (span.Duration() == root->Duration() && span.id < root->id)) {
      root = &span;
    }
  }
  if (root != nullptr) {
    a.critical_span = root->name;
    a.critical_span_us = root->Duration();

    // Membership test: is `span` inside the root's subtree?
    auto under_root = [&spans, root](uint64_t span) {
      while (span != 0) {
        if (span == root->id) return true;
        auto it = spans.find(span);
        if (it == spans.end()) return false;
        span = it->second.parent;
      }
      return false;
    };

    // Collect the candidate intervals, each (start, end, segment).
    std::vector<CriticalSegment> intervals;
    for (uint64_t id : rpc_order) {
      const RpcInfo& rpc = rpcs.at(id);
      if (!rpc.terminal || !under_root(rpc.span)) continue;
      CriticalSegment seg;
      seg.kind = CriticalSegment::Kind::kRpc;
      seg.start_us = rpc.begin_us;
      seg.end_us = std::max(rpc.end_us, rpc.begin_us);
      seg.rpc = rpc.id;
      seg.node = rpc.client;
      seg.peer = rpc.server;
      seg.attempts = rpc.attempts;
      seg.phase = phase_of(rpc.span);
      intervals.push_back(std::move(seg));
    }
    for (const RouteInfo& route : routes) {
      if (!under_root(route.span)) continue;
      CriticalSegment seg;
      seg.kind = CriticalSegment::Kind::kRoute;
      seg.start_us = route.start_us;
      seg.end_us = route.end_us;
      seg.attempts = route.hops;
      seg.phase = phase_of(route.span);
      intervals.push_back(std::move(seg));
    }

    // Backwards chain: CallBatch waves end exactly where the next round
    // begins, so "interval ending at the cursor" reconstructs the
    // dependency chain; when branches rewound the clock past a gap, the
    // latest earlier-ending interval continues the chain behind an
    // explicit wait segment. Ties prefer the longest interval (the
    // latency carrier), then the smallest rpc id.
    std::vector<CriticalSegment> chain;
    uint64_t cursor = root->end_us;
    while (cursor > root->begin_us && !intervals.empty()) {
      const CriticalSegment* best = nullptr;
      for (const CriticalSegment& seg : intervals) {
        if (seg.end_us != cursor) continue;
        if (best == nullptr ||
            seg.start_us < best->start_us ||
            (seg.start_us == best->start_us && seg.rpc < best->rpc)) {
          best = &seg;
        }
      }
      if (best == nullptr) {
        // No exact join: bridge with a wait back to the latest earlier
        // interval end.
        uint64_t latest = 0;
        bool found = false;
        for (const CriticalSegment& seg : intervals) {
          if (seg.end_us < cursor && seg.end_us > latest) {
            latest = seg.end_us;
            found = true;
          }
        }
        if (!found || latest <= root->begin_us) break;
        CriticalSegment wait;
        wait.kind = CriticalSegment::Kind::kWait;
        wait.start_us = latest;
        wait.end_us = cursor;
        chain.push_back(std::move(wait));
        cursor = latest;
        continue;
      }
      chain.push_back(*best);
      const uint64_t next = best->start_us;
      // Drop every interval that ends after the new cursor so the walk
      // always makes progress.
      std::erase_if(intervals, [next](const CriticalSegment& seg) {
        return seg.end_us > next;
      });
      if (next <= root->begin_us || next >= cursor) break;
      cursor = next;
    }
    std::reverse(chain.begin(), chain.end());
    for (const CriticalSegment& seg : chain) {
      if (seg.kind != CriticalSegment::Kind::kWait) {
        a.critical_path_us += seg.end_us - seg.start_us;
      }
    }
    a.critical_path = std::move(chain);
  }

  // Folded stacks: ancestry names joined by ';', value = self time.
  std::map<std::string, uint64_t> folded;
  for (const auto& [id, span] : spans) {
    if (!span.closed) continue;
    std::vector<const std::string*> names;
    uint64_t walk = span.id;
    while (walk != 0) {
      auto it = spans.find(walk);
      if (it == spans.end()) break;
      names.push_back(&it->second.name);
      walk = it->second.parent;
    }
    std::string stack;
    for (auto it = names.rbegin(); it != names.rend(); ++it) {
      if (!stack.empty()) stack += ';';
      stack += **it;
    }
    const uint64_t dur = span.Duration();
    folded[stack] +=
        dur >= span.child_us ? dur - span.child_us : 0;
  }
  a.folded_stacks.assign(folded.begin(), folded.end());

  return a;
}

}  // namespace sep2p::obs
