// Deterministic protocol tracing.
//
// A TraceRecorder is an append-only per-trial event log stamped on
// net::SimNetwork's virtual clock. Every event carries the time, the
// node it concerns, a kind, the enclosing span (protocol phase) and a
// kind-specific detail. Recording is strictly passive: the hook points
// across the stack consult an optional TraceRecorder* and emit events
// only when one is attached, drawing no randomness and advancing no
// clock, so a traced trial is bit-identical to an untraced one — the
// determinism contract of sim/trial_runner.h extends to traces, and the
// same trial replayed with tracing on or off produces the same results
// for any --threads value.
//
// Spans model protocol phases (vrand commit/reveal, setter routing, SL
// engagement, app rounds) as a properly nested tree per trial: obs::Span
// is the RAII guard protocol code opens around a phase; events recorded
// while a span is open are attributed to it. The exporters
// (obs/export.h) turn the log into JSONL or a Chrome trace, and
// obs::Checker (obs/checker.h) replays it against protocol invariants.
//
// A TraceRecorder must never be shared across threads — like the
// SimNetwork it instruments, it belongs to exactly one trial.

#ifndef SEP2P_OBS_TRACE_H_
#define SEP2P_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/hlc.h"
#include "obs/metrics.h"

namespace sep2p::obs {

enum class EventKind : uint8_t {
  kSend = 0,      // transmission departed (node=from, peer=to)
  kDeliver,       // transmission reached its destination (node=to, peer=from)
  kDrop,          // transmission lost (link loss or dead destination)
  kTimeout,       // an RPC attempt expired (value=attempt)
  kRetry,         // the RPC re-sends (value=next attempt number)
  kAttempt,       // an RPC attempt departs (value=attempt number)
  kRpcBegin,      // RPC issued (node=client, peer=server)
  kRpcEnd,        // RPC succeeded (value=attempts consumed)
  kRpcFail,       // RPC exhausted its retry budget
  kCrash,         // node becomes permanently unreachable at t_us
  kDispatch,      // Transport::Dispatch routes a request by its tag
                  // (value=tag; recorded before the handler lookup)
  kSignature,     // an asymmetric signing step (detail=role)
  kMark,          // free-form milestone (detail=label, value=payload)
  kRoute,         // greedy routing hop sequence (t_us=start time,
                  // value=duration_us, seq=hop count, node=src, peer=dst)
  kSpanBegin,     // phase opened (span=own id, parent=enclosing span)
  kSpanEnd,       // phase closed (span=own id)
};

// `node`/`peer` value meaning "no node involved".
inline constexpr uint32_t kNoNode = 0xffffffffu;

struct Event {
  uint64_t t_us = 0;        // clock timestamp (see TraceMeta::clock)
  EventKind kind = EventKind::kMark;
  uint32_t node = kNoNode;  // primary node (sender, crashed node, ...)
  uint32_t peer = kNoNode;  // secondary node (receiver, server, ...)
  uint64_t span = 0;        // enclosing span id (0 = top level)
  uint64_t parent = 0;      // kSpanBegin only: the parent span id
  uint64_t rpc = 0;         // RPC id (0 = outside any RPC)
  uint64_t seq = 0;         // transmission sequence number
  uint64_t value = 0;       // kind-specific payload
  uint64_t hlc = 0;         // hybrid-logical-clock stamp (obs/hlc.h);
                            // 0 on sim traces, nonzero strictly
                            // increasing on live-cluster shards
  std::string detail;       // span name / mark label / signature role

  bool operator==(const Event&) const = default;
};

// Which clock domain t_us lives in. SimNetwork records virtual
// microseconds (deterministic, replayable); TcpTransport records
// wall-clock unix microseconds. Exporters and the analyzer label axes
// accordingly instead of silently conflating the two.
enum class ClockDomain : uint8_t {
  kVirtual = 0,
  kWall = 1,
};

struct TraceMeta {
  uint32_t version = 1;
  uint32_t node_count = 0;  // for node-id range checks
  int max_attempts = 0;     // the retry budget the checker enforces
  ClockDomain clock = ClockDomain::kVirtual;
  uint32_t process = 0;        // live-cluster shard: recording process
  uint32_t process_count = 0;  // live-cluster shard: P (0 = sim / single)

  bool operator==(const TraceMeta&) const = default;
};

struct Trace {
  TraceMeta meta;
  std::vector<Event> events;
};

class TraceRecorder {
 public:
  TraceRecorder() = default;

  // Binds the recorder to a virtual clock (SimNetwork::set_trace does
  // this); events recorded without an explicit time are stamped from it.
  void BindClock(const uint64_t* now_us) { clock_ = now_us; }
  uint64_t now_us() const { return clock_ != nullptr ? *clock_ : 0; }

  TraceMeta& meta() { return trace_.meta; }
  const Trace& trace() const { return trace_; }
  size_t size() const { return trace_.events.size(); }

  // Appends `e` after stamping the enclosing span; `e.t_us` is kept as
  // given (hook points that know the exact event time — delivery,
  // crash — pass it), every other field is the caller's.
  void Record(Event e);

  // Span management: OpenSpan records kSpanBegin and returns the new
  // span id; CloseSpan records kSpanEnd (stamped from the bound clock)
  // and pops the span. Spans nest strictly — obs::Span enforces this.
  uint64_t OpenSpan(uint32_t node, std::string name);
  void CloseSpan(uint64_t id);
  uint64_t CurrentSpan() const {
    return span_stack_.empty() ? remote_span_ : span_stack_.back();
  }

  // Convenience emitters, stamped from the bound clock.
  void Mark(uint32_t node, std::string label, uint64_t value = 0);
  void Signature(uint32_t node, std::string role);

  // ---- Live-cluster correlation (TcpTransport::set_trace wires these;
  // sim recorders never touch them, keeping sim traces byte-identical).

  // Stamps every subsequently recorded event with a strictly-increasing
  // HLC value derived from its t_us (interpreted as unix microseconds).
  void EnableHlc() { hlc_enabled_ = true; }
  // Merges a remote stamp carried by a received frame so local stamps
  // issued afterwards order after the sender's.
  void ObserveHlc(uint64_t stamp) { hlc_.Observe(stamp); }
  // The stamp of the most recently recorded event (what an outgoing
  // frame should carry).
  uint64_t last_hlc() const { return hlc_.last(); }

  // Brands span ids with a per-process prefix (ids count up from
  // base + 1) so shards of one cluster run never collide when merged.
  void set_span_base(uint64_t base) { next_span_ = base; }

  // Remote span context: while no local span is open, CurrentSpan()
  // returns `id` instead of 0, so events recorded while serving a
  // remote RPC attribute to the CALLER's span — the server side of a
  // cluster run contributes leaves to the driver's span tree without
  // opening spans of its own (which could interleave illegally across
  // shards). Pass 0 to clear.
  void set_remote_span(uint64_t id) { remote_span_ = id; }

 private:
  // Stamps e.hlc (when enabled) right before the event is appended.
  void StampHlc(Event& e) {
    if (hlc_enabled_) e.hlc = hlc_.Tick(e.t_us / 1000);
  }

  Trace trace_;
  const uint64_t* clock_ = nullptr;
  std::vector<uint64_t> span_stack_;
  uint64_t next_span_ = 0;
  uint64_t remote_span_ = 0;
  bool hlc_enabled_ = false;
  Hlc hlc_;
};

// RAII span guard; a null recorder makes every operation a no-op, so
// protocol code opens spans unconditionally and pays nothing when
// tracing is off. Handing it a MetricsRegistry as well makes the span
// double as a metrics phase: counters incremented while the guard lives
// are charged to `name`'s phase row (obs/metrics.h).
class Span {
 public:
  Span(TraceRecorder* recorder, uint32_t node, const char* name)
      : Span(recorder, nullptr, node, name) {}
  Span(TraceRecorder* recorder, MetricsRegistry* metrics, uint32_t node,
       const char* name)
      : recorder_(recorder), metrics_(metrics) {
    if (recorder_ != nullptr) id_ = recorder_->OpenSpan(node, name);
    if (metrics_ != nullptr) metrics_->PushPhase(name);
  }
  ~Span() {
    if (metrics_ != nullptr) metrics_->PopPhase();
    if (recorder_ != nullptr) recorder_->CloseSpan(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceRecorder* recorder_;
  MetricsRegistry* metrics_ = nullptr;
  uint64_t id_ = 0;
};

}  // namespace sep2p::obs

#endif  // SEP2P_OBS_TRACE_H_
