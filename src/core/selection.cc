#include "core/selection.h"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

#include "core/messages.h"
#include "core/protocol_service.h"
#include "core/wire.h"
#include "crypto/sha256.h"
#include "dht/region.h"
#include "obs/trace.h"

namespace sep2p::core {

namespace {

// Sort key for step 8.e: kpub_n xor RND_S, compared lexicographically.
// XOR with a fixed mask is an involution, so the same function maps keys
// into sort order and back.
crypto::PublicKey XorKey(const crypto::PublicKey& pub,
                         const crypto::Hash256& rnd_s) {
  crypto::PublicKey out;
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = pub[i] ^ rnd_s.bytes()[i];
  }
  return out;
}

void SortUnique(std::vector<crypto::PublicKey>& keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
}

// S→SL engagement (steps 3-7): S engages k SLs with replacement of
// unresponsive candidates, collects commitments over (RND_j, CL_j),
// broadcasts the commitment list L1 and collects the reveals. Only an
// unreachable quorum or an SL lost after its commitment is fixed aborts
// (kUnavailable → restart upstream); a reveal that breaks its
// commitment or does not map onto R3 is a SecurityViolation.
struct SlEngagement {
  std::vector<uint32_t> members;
  std::vector<crypto::Hash256> rnd_j;
  // listed[s]: how many of the k CL_j list the R3 scan's slot s.
  std::vector<int> listed;
};

Result<SlEngagement> EngageSls(const ProtocolContext& ctx,
                               net::Transport& network, util::Rng& rng,
                               uint32_t setter,
                               const std::vector<uint32_t>& sl_candidates,
                               int k, const std::vector<uint32_t>& r3_nodes,
                               const crypto::Hash256& p_hash,
                               const VerifiableRandom& vrnd,
                               AttackHooks* attack) {
  obs::TraceRecorder* rec = network.trace();
  obs::MetricsRegistry* met = network.metrics();

  // Per-SL state (CL_j, RND_j, commitment), computed once per engaged
  // node (BuildSlState is shared with the resident cross-process
  // service): handlers are idempotent, so a retransmitted request must
  // see the same answer it saw the first time. A colluding SL may hide
  // honest entries from CL_j (the covert deviation of §3.5).
  std::map<uint32_t, SlState> state_by_sl;
  auto sl_state = [&](uint32_t sl_index) -> SlState& {
    auto it = state_by_sl.find(sl_index);
    if (it != state_by_sl.end()) return it->second;
    const bool hide =
        attack != nullptr && attack->SlBiasesCandidates(sl_index);
    return state_by_sl
        .emplace(sl_index, BuildSlState(ctx, sl_index, r3_nodes, hide, rng))
        .first->second;
  };

  // Engagement round: VRND + setter point out, commitments back. The
  // nonce scopes resident SL state across processes (0 in sim — v1
  // bytes).
  const uint64_t nonce = network.NewEngagementNonce();
  const std::vector<uint8_t> engage_bytes = msg::Encode(
      msg::SlEngage{wire::EncodeVerifiableRandom(vrnd), p_hash, nonce});
  net::Transport::QuorumResult quorum;
  {
    obs::Span engage_span(rec, met, setter, "sl-engage");
    quorum = network.EngageQuorum(
        setter, sl_candidates, k, engage_bytes,
        [&](uint32_t server, const std::vector<uint8_t>& request)
            -> std::optional<std::vector<uint8_t>> {
          if (!msg::Decode<msg::SlEngage>(request).ok()) return std::nullopt;
          return msg::Encode(msg::CommitReply{sl_state(server).commitment});
        });
  }
  if (!quorum.ok) {
    return Status::Unavailable("selection: SL quorum unreachable");
  }
  if (attack != nullptr) attack->OnSlQuorum(quorum.members);

  // Commitment list L1 out, reveals (RND_j, CL_j) back.
  msg::CommitList l1;
  l1.timestamp = ctx.now;
  l1.nonce = nonce;
  l1.commitments.resize(k);
  for (int j = 0; j < k; ++j) {
    auto commit = msg::Decode<msg::CommitReply>(quorum.replies[j]);
    if (!commit.ok()) return commit.status();
    l1.commitments[j] = commit->commitment;
  }
  const std::vector<uint8_t> l1_bytes = msg::Encode(l1);
  std::vector<net::Transport::RpcResult> reveals;
  {
    obs::Span reveal_span(rec, met, setter, "sl-reveal");
    reveals = network.CallBatch(
        net::Transport::FanOut(setter, quorum.members, l1_bytes),
        [&](uint32_t server, const std::vector<uint8_t>& request)
            -> std::optional<std::vector<uint8_t>> {
          Result<msg::CommitList> list = msg::Decode<msg::CommitList>(request);
          if (!list.ok()) return std::nullopt;
          return SlRevealReply(sl_state(server), *list);
        });
  }

  // Step 8 runs on the reveals alone. The SL signatures do not cover
  // (RND_j, CL_j), so each reveal must open the commitment L1 fixed for
  // it. Each CL_j must be a subsequence of the R3 scan: an honest SL
  // filters the scan by its cache coverage, a hiding one drops more.
  // One forward walk per CL_j maps its keys onto scan slots, so a key
  // outside R3, out of scan order or listed twice runs the cursor off
  // the end.
  const dht::Directory& dir = *ctx.directory;
  SlEngagement out;
  out.members = quorum.members;
  out.rnd_j.resize(k);
  out.listed.assign(r3_nodes.size(), 0);
  for (int j = 0; j < k; ++j) {
    if (!reveals[j].ok) {
      return Status::Unavailable("selection: SL failed during reveal");
    }
    Result<msg::SlReveal> reveal = msg::Decode<msg::SlReveal>(reveals[j].reply);
    if (!reveal.ok()) return reveal.status();
    if (SlCommitment(reveal->rnd, reveal->candidates) != l1.commitments[j]) {
      return Status::SecurityViolation(
          "selection: SL reveal does not match its commitment");
    }
    out.rnd_j[j] = reveal->rnd;
    size_t slot = 0;
    for (const crypto::PublicKey& key : reveal->candidates) {
      while (slot < r3_nodes.size() && dir.pub(r3_nodes[slot]) != key) {
        ++slot;
      }
      if (slot == r3_nodes.size()) {
        return Status::SecurityViolation(
            "selection: SL revealed a candidate outside R3");
      }
      ++out.listed[slot++];
    }
  }
  return out;
}

}  // namespace

crypto::Hash256 VerifiableActorList::SetterPoint() const {
  crypto::Hash256 p =
      crypto::Hash256::Of(rnd_t.bytes().data(), rnd_t.bytes().size());
  for (int i = 0; i < relocations; ++i) p = p.Rehash();
  return p;
}

std::vector<uint8_t> VerifiableActorList::SignedBytes() const {
  const size_t key_bytes = actor_keys.size() * sizeof(crypto::PublicKey);
  wire::Writer out;
  out.Reserve(sizeof(crypto::Digest) + 12 + key_bytes);
  out.Raw(rnd_t.bytes().data(), rnd_t.bytes().size());
  out.U32(static_cast<uint32_t>(relocations));
  out.U64(timestamp);
  out.Raw(reinterpret_cast<const uint8_t*>(actor_keys.data()), key_bytes);
  return out.Take();
}

std::vector<crypto::PublicKey> BuildActorList(
    const std::vector<std::vector<crypto::PublicKey>>& candidate_lists,
    const crypto::Hash256& rnd_s, int actor_count) {
  // Steps 8.c + 8.e fused: XOR-transform every key once, then a single
  // sort + unique does both the deduplication (XOR with a fixed mask is
  // a bijection, so equal transformed keys == equal raw keys) and the
  // unpredictable-yet-reproducible ordering. RND_S is fixed only after
  // every candidate list was committed, so no participant could have
  // stacked the order.
  size_t total = 0;
  for (const auto& list : candidate_lists) total += list.size();
  std::vector<crypto::PublicKey> merged;
  merged.reserve(total);
  for (const auto& list : candidate_lists) {
    for (const crypto::PublicKey& key : list) {
      merged.push_back(XorKey(key, rnd_s));
    }
  }
  SortUnique(merged);
  if (merged.size() > static_cast<size_t>(actor_count)) {
    merged.resize(actor_count);
  }
  // Map back to the raw public keys, preserving the XOR-space order.
  for (crypto::PublicKey& key : merged) key = XorKey(key, rnd_s);
  return merged;
}

std::vector<uint32_t> BuildActorListIndexed(
    const std::vector<crypto::PublicKey>& candidates,
    const crypto::Hash256& rnd_s, int actor_count) {
  const size_t total = candidates.size();
  std::vector<crypto::PublicKey> xkeys(total);
  for (size_t i = 0; i < total; ++i) xkeys[i] = XorKey(candidates[i], rnd_s);
  // Sorting 16-byte handles beats shuffling 32-byte keys, and the
  // big-endian 8-byte prefix decides the lexicographic order in all but
  // vanishing cases (XOR-transformed keys are uniformly distributed);
  // ties fall back to the full key so the order is exact regardless.
  struct Handle {
    uint64_t prefix;
    uint32_t src;  // into candidates
  };
  std::vector<Handle> handles(total);
  for (size_t i = 0; i < total; ++i) {
    uint64_t prefix = 0;
    for (int b = 0; b < 8; ++b) {
      prefix = (prefix << 8) | xkeys[i][b];
    }
    handles[i] = {prefix, static_cast<uint32_t>(i)};
  }
  auto less = [&xkeys](const Handle& a, const Handle& b) {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    return xkeys[a.src] < xkeys[b.src];
  };
  // The keys are distinct, so the first A handles are the actors:
  // partition there and sort just that prefix.
  const size_t top =
      std::min(total, static_cast<size_t>(std::max(actor_count, 0)));
  std::nth_element(handles.begin(), handles.begin() + top, handles.end(),
                   less);
  std::sort(handles.begin(), handles.begin() + top, less);
  std::vector<uint32_t> out(top);
  for (size_t i = 0; i < top; ++i) out[i] = handles[i].src;
  return out;
}

Result<SelectionProtocol::Outcome> SelectionProtocol::Run(
    uint32_t trigger_index, util::Rng& rng,
    const SelectionOptions& options) const {
  const dht::Directory& dir = *ctx_.directory;
  net::Transport& net = options.network != nullptr ? *options.network
                                                   : ideal_transport();
  obs::TraceRecorder* rec = net.trace();
  obs::MetricsRegistry* met = net.metrics();
  obs::Span selection_span(rec, met, trigger_index, "selection");

  // --- Step 1: verifiable random generation around T.
  Result<VrandProtocol::Outcome> vrand_outcome =
      vrand_.Generate(trigger_index, rng, &net, options.attack);
  if (!vrand_outcome.ok()) return vrand_outcome.status();

  Outcome outcome;
  outcome.cost = vrand_outcome->cost;
  const crypto::Hash256 rnd_t = vrand_outcome->vrnd.Value();

  // --- Step 2: map hash(RND_T) to a point p and route to S.
  crypto::Hash256 p_hash =
      options.forced_point != nullptr
          ? *options.forced_point
          : crypto::Hash256::Of(rnd_t.bytes().data(), rnd_t.bytes().size());

  uint32_t route_from = trigger_index;
  for (int attempt = 0;; ++attempt) {
    if (attempt > ctx_.max_relocations) {
      return Status::ResourceExhausted(
          "selection: exceeded relocation budget");
    }
    const dht::RingPos p = p_hash.ring_pos();
    Result<dht::RouteResult> route = ctx_.overlay->RouteKey(route_from, p_hash);
    if (!route.ok()) return route.status();
    outcome.cost.Then(net::Cost::Step(0, route->hops));
    {
      obs::Span route_span(rec, met, route_from, "route-to-setter");
      net.AdvanceRoute(route->hops);
    }
    const uint32_t setter = route->dest_index;

    // --- Step 3: S engages k legitimate nodes w.r.t. R2 centered on p.
    // R2 is capped at half the cache coverage so every SL's cache
    // actually overlaps R3 around p (availability; the alpha guarantee
    // only strengthens on smaller regions).
    KTable::Choice choice =
        ctx_.ktable->ChooseForPoint(dir, p, ctx_.rs3 / 2);
    const int k = choice.entry.k;
    const double rs2 = choice.entry.rs;
    dht::Region r2 = dht::Region::Centered(p, rs2);
    std::vector<uint32_t> sl_candidates = dir.NodesInRegion(r2);
    if (!choice.found || sl_candidates.size() < static_cast<size_t>(k)) {
      // Sparse R2: no usable SL quorum here; relocate like an
      // underpopulated R3 (§3.6). S itself attests the shortage.
      ++outcome.relocations;
      if (met != nullptr) met->Inc(obs::Counter::kRelocations);
      outcome.cost.Then(net::Cost::Step(0, 1));
      p_hash = p_hash.Rehash();
      route_from = setter;
      continue;
    }
    rng.Shuffle(sl_candidates);

    // --- Steps 4-7: commit/reveal over (RND_j, CL_j).
    // CL_j = entries of SL_j's node cache that are legitimate w.r.t. R3
    // centered on p. A cache covers a region of size rs3 centered on its
    // owner, so CL_j is the intersection of the two arcs.
    dht::Region r3 = dht::Region::Centered(p, ctx_.rs3);
    // The R3 membership scan is identical for every SL; one directory
    // query serves all k intersections below (it used to be recomputed
    // k+1 times per attempt).
    const std::vector<uint32_t> r3_nodes = dir.NodesInRegion(r3);
    // Candidates beyond the first k serve as spares for SLs declared
    // failed during engagement.
    Result<SlEngagement> engagement =
        EngageSls(ctx_, net, rng, setter, sl_candidates, k, r3_nodes, p_hash,
                  vrand_outcome->vrnd, options.attack);
    if (!engagement.ok()) return engagement.status();
    std::vector<uint32_t> sl_members = std::move(engagement->members);
    const std::vector<int>& listed = engagement->listed;

    // Messages for steps 3-7: five rounds of k parallel messages
    // (VRND out, commitments back, L1 out, reveals back, L2 out).
    for (int round = 0; round < 5; ++round) {
      outcome.cost.Then(
          net::Cost::ParIdentical(net::Cost::Step(0, 1), k));
    }

    // Candidate pool CL = union CL_j: the R3 slots some SL listed, in
    // scan order. Sufficient? Otherwise relocate (§3.6): the SLs attest
    // the shortage and S rehashes p. Cost of the failed attempt (k
    // attestation signatures) is charged before retrying.
    std::vector<uint32_t> pool;
    for (size_t slot = 0; slot < listed.size(); ++slot) {
      if (listed[slot] > 0) pool.push_back(static_cast<uint32_t>(slot));
    }
    if (pool.size() < static_cast<size_t>(ctx_.actor_count)) {
      // Each SL signs a shortage attestation allowing S to relocate.
      std::vector<uint8_t> shortage(p_hash.bytes().begin(),
                                    p_hash.bytes().end());
      shortage.push_back('R');
      {
        obs::Span shortage_span(rec, met, setter, "sl-shortage-attest");
        msg::AttestRequest attest_request;
        attest_request.digest =
            crypto::Hash256::Of(shortage.data(), shortage.size());
        // A resident SL refuses to sign a bare digest; in-process
        // handlers sign the digest they decode (v1 bytes).
        if (net.remote_dispatch()) attest_request.preimage = shortage;
        const std::vector<uint8_t> request_bytes = msg::Encode(attest_request);
        std::vector<net::Transport::RpcResult> results = net.CallBatch(
            net::Transport::FanOut(setter, sl_members, request_bytes),
            [&](uint32_t server, const std::vector<uint8_t>& request)
                -> std::optional<std::vector<uint8_t>> {
              Result<msg::AttestRequest> decoded =
                  msg::Decode<msg::AttestRequest>(request);
              if (!decoded.ok()) return std::nullopt;
              return AttestReply(ctx_, met, server, decoded->digest);
            });
        for (int j = 0; j < k; ++j) {
          if (!results[j].ok) {
            return Status::Unavailable(
                "selection: SL failed during shortage attestation");
          }
        }
      }
      outcome.cost.Then(
          net::Cost::ParIdentical(net::Cost::Step(1, 1), k));
      ++outcome.relocations;
      if (met != nullptr) met->Inc(obs::Counter::kRelocations);
      p_hash = p_hash.Rehash();
      route_from = setter;
      continue;
    }

    // --- Step 8: every SL independently verifies and builds the list.
    const crypto::Hash256 rnd_s = [&] {
      crypto::Hash256 value;
      for (const crypto::Hash256& r : engagement->rnd_j) {
        value = value.Xor(r);
      }
      return value;
    }();

    // 8.a: each SL checks VRND_T. All k verifications run in parallel.
    std::vector<net::Cost> sl_costs(k);
    for (int j = 0; j < k; ++j) {
      Result<net::Cost> vrnd_check =
          VerifyVrand(ctx_, vrand_outcome->vrnd, met);
      if (!vrnd_check.ok()) return vrnd_check.status();
      if (met != nullptr) {
        met->IncNode(sl_members[j], obs::NodeCounter::kCrypto,
                     2 * static_cast<uint64_t>(
                             vrand_outcome->vrnd.k()) + 1);
      }
      sl_costs[j] = vrnd_check.value();
    }
    // 8.c-8.e: deterministic list construction from the revealed data.
    // Every SL derives the identical list from the same (CL, RND_S)
    // inputs — BuildActorList is a pure function, so the simulator
    // builds it once instead of k times; the per-SL verification work
    // is what sl_costs accounts for. Actor m is R3 slot actor_slots[m],
    // whose directory key the walk matched to the revealed one.
    std::vector<crypto::PublicKey> pool_keys(pool.size());
    for (size_t i = 0; i < pool.size(); ++i) {
      pool_keys[i] = dir.pub(r3_nodes[pool[i]]);
    }
    std::vector<uint32_t> actor_slots =
        BuildActorListIndexed(pool_keys, rnd_s, ctx_.actor_count);
    for (uint32_t& m : actor_slots) m = pool[m];

    // 8.f: legitimacy checks for actors NOT present in all k candidate
    // lists (those present everywhere are vouched for by the >=1 honest
    // SL's valid cache). One certificate check per remaining actor.
    int to_check = 0;
    for (uint32_t slot : actor_slots) {
      if (listed[slot] == k) continue;
      const uint32_t actor_index = r3_nodes[slot];
      ++to_check;
      // Every SL verifies this actor's certificate (one asymmetric op
      // per SL, charged below via `to_check`).
      for (int j = 0; j < k; ++j) {
        if (!ctx_.CheckCertificate(dir.cert(actor_index))) {
          return Status::SecurityViolation(
              "selection: actor certificate check failed");
        }
        if (met != nullptr) {
          met->Inc(obs::Counter::kCryptoVerify);
          met->IncNode(sl_members[j], obs::NodeCounter::kCrypto);
        }
      }
    }

    // Availability pings: each SL confirms the A selected actors are
    // reachable — one round-trip per actor, all actors pinged in
    // parallel (latency 2, work 2A per SL).
    for (int j = 0; j < k; ++j) {
      sl_costs[j].Then(net::Cost::Step(to_check, 0));
      sl_costs[j].Then(net::Cost::ParIdentical(net::Cost::Step(0, 2),
                                               ctx_.actor_count));
    }

    // --- Assemble VAL: SL signatures over (RND_T, relocations, ts, AL).
    VerifiableActorList val;
    val.rnd_t = rnd_t;
    val.timestamp = ctx_.now;
    val.rs2 = rs2;
    val.relocations = outcome.relocations;
    val.actor_keys.reserve(actor_slots.size());
    val.actor_certs.reserve(actor_slots.size());
    outcome.actor_indices.reserve(actor_slots.size());
    for (uint32_t slot : actor_slots) {
      const uint32_t actor_index = r3_nodes[slot];
      val.actor_keys.push_back(dir.pub(actor_index));
      outcome.actor_indices.push_back(actor_index);
      val.actor_certs.push_back(dir.cert(actor_index));
    }

    const std::vector<uint8_t> signed_bytes = val.SignedBytes();
    {
      // Attestation collection round: request + signed attestation per
      // SL, in parallel. The SLs are committed to this AL, so a loss
      // here cannot be patched by substitution — S restarts instead.
      obs::Span attest_span(rec, met, setter, "sl-attest");
      msg::AttestRequest attest_request;
      attest_request.digest =
          crypto::Hash256::Of(signed_bytes.data(), signed_bytes.size());
      // Cross-process SLs must see the VAL bytes they attest (they
      // recompute and check the digest before signing).
      if (net.remote_dispatch()) attest_request.preimage = signed_bytes;
      const std::vector<uint8_t> request_bytes = msg::Encode(attest_request);

      // Attack seams (core/attack_hooks.h): each SL computed the actor
      // list itself in step 8, so it may refuse to attest an
      // unfavourable one (selective abort — an attributable strike, it
      // is committed to this AL) or sign a doctored list instead (the
      // assembled VAL keeps the honest keys, so any verifier's
      // signature check exposes the substitution). One decision per
      // SL, in commitment order, up to the first defector; the
      // transport retries a silent SL, so each decision is cached for
      // the engagement.
      struct Deviation {
        bool withhold = false;
        std::optional<crypto::Hash256> forged_digest;  // none = honest
      };
      std::map<uint32_t, Deviation> deviations;
      bool defected = false;
      auto deviation = [&](uint32_t sl) -> const Deviation& {
        auto [it, fresh] = deviations.try_emplace(sl);
        if (!fresh || defected) return it->second;
        Deviation& d = it->second;
        if (options.attack->SlWithholdsAttest(sl, val.actor_keys)) {
          d.withhold = defected = true;
          if (rec != nullptr) rec->Mark(sl, "attack-sl-withhold", 0);
          return d;
        }
        std::vector<crypto::PublicKey> forged_actors;
        if (options.attack->SlForgesAttest(sl, val.actor_keys,
                                           &forged_actors)) {
          VerifiableActorList forged = val;
          forged.actor_keys = std::move(forged_actors);
          const std::vector<uint8_t> forged_bytes = forged.SignedBytes();
          d.forged_digest =
              crypto::Hash256::Of(forged_bytes.data(), forged_bytes.size());
          if (rec != nullptr) rec->Mark(sl, "attack-sl-forge", 0);
        }
        return d;
      };
      std::vector<net::Transport::RpcResult> results = net.CallBatch(
          net::Transport::FanOut(setter, sl_members, request_bytes),
          [&](uint32_t server, const std::vector<uint8_t>& request)
              -> std::optional<std::vector<uint8_t>> {
            Result<msg::AttestRequest> decoded =
                msg::Decode<msg::AttestRequest>(request);
            if (!decoded.ok()) return std::nullopt;
            if (options.attack == nullptr) {
              return AttestReply(ctx_, met, server, decoded->digest);
            }
            const Deviation& d = deviation(server);
            if (d.withhold) return std::nullopt;
            return AttestReply(ctx_, met, server,
                               d.forged_digest.value_or(decoded->digest));
          });
      for (int j = 0; j < k; ++j) {
        if (!results[j].ok) {
          return Status::Unavailable("selection: SL failed before signing");
        }
        Result<msg::Attestation> att =
            msg::Decode<msg::Attestation>(results[j].reply);
        if (!att.ok()) return att.status();
        // One kSignature per attestation S actually verified; a
        // completed selection carries exactly k of these in its span.
        if (rec != nullptr) rec->Signature(sl_members[j], "sl-attest");
        val.attestations.push_back(
            {std::move(att->cert), std::move(att->sig)});
        sl_costs[j].Then(net::Cost::Step(1, 1));  // sign + send to S
      }
    }
    outcome.cost.Then(net::Cost::Par(sl_costs));

    outcome.val = std::move(val);
    outcome.setter_index = setter;
    outcome.sl_indices = std::move(sl_members);
    if (met != nullptr) met->Inc(obs::Counter::kSelectionsCompleted);
    if (rec != nullptr) {
      rec->Mark(setter, "selection-complete", static_cast<uint64_t>(k));
    }
    return outcome;
  }
}

Result<SelectionProtocol::Outcome> SelectionProtocol::RunWithRestarts(
    uint32_t trigger_index, util::Rng& rng, const SelectionOptions& options,
    int max_attempts, int* restarts) const {
  Result<Outcome> run = Status::Unavailable("selection: no attempt made");
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    run = Run(trigger_index, rng, options);
    if (run.ok() && restarts != nullptr) *restarts = attempt - 1;
    if (run.ok() || run.status().code() != StatusCode::kUnavailable) break;
  }
  return run;
}

Result<net::Cost> VerifyActorList(const ProtocolContext& ctx,
                                  const VerifiableActorList& val,
                                  obs::MetricsRegistry* metrics) {
  net::Cost cost;
  auto asym = [&cost, metrics] {
    cost.Then(net::Cost::Step(1, 0));
    if (metrics != nullptr) metrics->Inc(obs::Counter::kCryptoVerify);
  };
  if (val.attestations.empty()) {
    return Status::SecurityViolation("val: no attestations");
  }
  if (crypto::RepeatsSubject(val.attestations)) {
    return Status::SecurityViolation("val: repeated SL");
  }
  if (val.timestamp + ctx.max_timestamp_age < ctx.now) {
    return Status::SecurityViolation("val: stale timestamp");
  }

  // The claimed R2 size must honor the alpha constraint for this k.
  if (!ctx.ktable->AdmitsRegion(val.k(), val.rs2)) {
    return Status::SecurityViolation("val: region size outside alpha bound");
  }

  // R2 is centered on the relocation-adjusted point p, which the verifier
  // recomputes from the attested RND_T.
  dht::Region r2 =
      dht::Region::Centered(val.SetterPoint().ring_pos(), val.rs2);
  const std::vector<uint8_t> signed_bytes = val.SignedBytes();
  const crypto::Hash256 digest =
      crypto::Hash256::Of(signed_bytes.data(), signed_bytes.size());

  for (const VerifiableActorList::Attestation& att : val.attestations) {
    // Certificate: genuine PDMS + binds the SL's imposed location.
    asym();
    if (!ctx.CheckCertificate(att.cert)) {
      return Status::SecurityViolation("val: bad SL certificate");
    }
    if (!r2.Contains(att.cert.NodeIdFromSubject())) {
      return Status::SecurityViolation("val: SL not legitimate w.r.t. R2");
    }
    // Signature over H(RND_T, relocations, ts, AL).
    asym();
    if (!ctx.CheckSignature(att.cert.subject, digest, att.sig)) {
      return Status::SecurityViolation("val: bad SL signature");
    }
  }
  return cost;
}

}  // namespace sep2p::core
