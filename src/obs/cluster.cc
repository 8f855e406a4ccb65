#include "obs/cluster.h"

#include <algorithm>
#include <utility>

#include "obs/analyzer.h"
#include "obs/export.h"
#include "obs/report.h"
#include "util/fnv.h"

namespace sep2p::obs {
namespace {

bool IsShutdownMark(const Event& e) {
  return e.kind == EventKind::kMark && e.detail == "shutdown";
}

// A shard that fails any of these checks would merge into a trace whose
// order (and therefore checker verdict) is meaningless, so the whole
// merge is refused with a message naming the offending shard.
Status ValidateShard(const Trace& shard, const TraceMeta& reference) {
  const TraceMeta& m = shard.meta;
  const std::string tag = "cluster: shard for process " +
                          std::to_string(m.process);
  if (m.version != 1) {
    return Status::InvalidArgument(tag + ": unsupported trace version");
  }
  if (m.clock != ClockDomain::kWall) {
    return Status::InvalidArgument(
        tag + ": records the virtual clock, not a live-cluster shard");
  }
  if (m.process_count == 0) {
    return Status::InvalidArgument(tag + ": missing process_count");
  }
  if (m.process >= m.process_count) {
    return Status::InvalidArgument(tag + ": process id out of range");
  }
  if (m.node_count != reference.node_count ||
      m.max_attempts != reference.max_attempts ||
      m.process_count != reference.process_count) {
    return Status::InvalidArgument(
        tag + ": metadata disagrees with sibling shards");
  }
  uint64_t last = 0;
  for (const Event& e : shard.events) {
    if (e.hlc == 0) {
      return Status::InvalidArgument(tag + ": event missing its HLC stamp");
    }
    if (e.hlc <= last) {
      return Status::InvalidArgument(
          tag + ": HLC stamps not strictly increasing");
    }
    last = e.hlc;
  }
  return Status::Ok();
}

}  // namespace

Result<Trace> MergeCluster(std::vector<Trace> shards) {
  if (shards.empty()) {
    return Status::InvalidArgument("cluster: no shards to merge");
  }
  // Sorting by process id first makes the merge independent of the
  // order the shards were read from disk or handed in.
  std::sort(shards.begin(), shards.end(), [](const Trace& a, const Trace& b) {
    return a.meta.process < b.meta.process;
  });
  const TraceMeta reference = shards.front().meta;
  size_t total = 0;
  for (size_t i = 0; i < shards.size(); ++i) {
    SEP2P_RETURN_IF_ERROR(ValidateShard(shards[i], reference));
    if (i > 0 && shards[i].meta.process == shards[i - 1].meta.process) {
      return Status::InvalidArgument(
          "cluster: duplicate shard for process " +
          std::to_string(shards[i].meta.process));
    }
    total += shards[i].events.size();
  }

  Trace merged;
  merged.meta.version = 1;
  merged.meta.node_count = reference.node_count;
  merged.meta.max_attempts = reference.max_attempts;
  merged.meta.clock = ClockDomain::kWall;
  merged.meta.process_count = reference.process_count;
  merged.events.reserve(total + 1);

  // K-way merge by (hlc, process). Within a shard the HLC is strictly
  // increasing (validated above), so picking the smallest head each
  // round yields a total order that contains every cross-process
  // happens-before edge the wire carried.
  constexpr size_t kNone = static_cast<size_t>(-1);
  std::vector<size_t> cursor(shards.size(), 0);
  EventTally tally;
  uint64_t max_t_us = 0;
  uint64_t max_hlc = 0;
  for (;;) {
    size_t best = kNone;
    for (size_t i = 0; i < shards.size(); ++i) {
      if (cursor[i] >= shards[i].events.size()) continue;
      if (best == kNone) {
        best = i;
        continue;
      }
      const Event& candidate = shards[i].events[cursor[i]];
      const Event& leader = shards[best].events[cursor[best]];
      if (candidate.hlc < leader.hlc) best = i;
    }
    if (best == kNone) break;
    Event e = std::move(shards[best].events[cursor[best]++]);
    max_t_us = std::max(max_t_us, e.t_us);
    max_hlc = std::max(max_hlc, e.hlc);
    // Each shard closes with its own residual "shutdown" mark — one
    // process's view of in-flight traffic, which for a pure server is
    // negative and unrepresentable. Drop them; the cluster-wide
    // residual is re-synthesized below from the merged tallies.
    if (IsShutdownMark(e)) continue;
    tally.Count(e);
    merged.events.push_back(std::move(e));
  }

  Event mark;
  mark.t_us = max_t_us;
  mark.kind = EventKind::kMark;
  mark.node = kNoNode;
  mark.detail = "shutdown";
  const uint64_t landed = tally.delivers + tally.drops;
  mark.value = tally.sends > landed ? tally.sends - landed : 0;
  mark.hlc = max_hlc + 1;
  merged.events.push_back(std::move(mark));
  return merged;
}

uint64_t CausalDigest(const Trace& trace) {
  uint64_t h = util::kFnvOffsetBasis;
  auto mix = [&h](uint64_t v) { h = util::FnvFold(h, v); };
  mix(trace.meta.node_count);
  mix(static_cast<uint64_t>(trace.meta.max_attempts));
  mix(trace.meta.process_count);
  for (const Event& e : trace.events) {
    // t_us and hlc are deliberately excluded: both move with the
    // per-process wall clocks, and the digest must certify the merged
    // ORDER, not the timestamps.
    mix(static_cast<uint64_t>(e.kind));
    mix(e.node);
    mix(e.peer);
    mix(e.span);
    mix(e.parent);
    mix(e.rpc);
    mix(e.seq);
    mix(e.value);
    mix(e.detail.size());
    for (const char c : e.detail) {
      h = util::FnvFoldByte(h, static_cast<uint8_t>(c));
    }
  }
  return h;
}

Result<Trace> LoadClusterTrace(const std::string& dir) {
  Result<std::vector<std::string>> files = ListTraceFiles(dir);
  if (!files.ok()) return files.status();
  std::vector<Trace> shards;
  shards.reserve(files->size());
  for (const std::string& file : files.value()) {
    Result<Trace> shard = LoadTrace(file);
    if (!shard.ok()) return shard.status();
    shards.push_back(std::move(shard).value());
  }
  return MergeCluster(std::move(shards));
}

}  // namespace sep2p::obs
