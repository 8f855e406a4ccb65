#include "core/vrand.h"

#include <algorithm>
#include <map>

#include "core/messages.h"
#include "core/protocol_service.h"
#include "dht/region.h"
#include "obs/trace.h"

namespace sep2p::core {

crypto::Hash256 VerifiableRandom::Value() const {
  crypto::Hash256 value;
  for (const VrandParticipant& p : participants) {
    value = value.Xor(p.rnd);
  }
  return value;
}

std::vector<uint8_t> VerifiableRandom::SignedBytes() const {
  msg::CommitList list;
  list.timestamp = timestamp;
  list.commitments.reserve(participants.size());
  for (const VrandParticipant& p : participants) {
    list.commitments.push_back(
        crypto::Hash256::Of(p.rnd.bytes().data(), p.rnd.bytes().size()));
  }
  return SignedBytesFromList(list);
}

net::Transport& VrandProtocol::ideal_transport() const {
  if (ideal_ == nullptr) {
    ideal_ = std::make_unique<net::SimNetwork>(
        static_cast<uint32_t>(ctx_.directory->size()), net::kIdealLink,
        net::RetryPolicy{}, /*seed=*/0);
  }
  return *ideal_;
}

Result<VrandProtocol::Outcome> VrandProtocol::Generate(
    uint32_t trigger_index, util::Rng& rng, net::Transport* network,
    AttackHooks* attack) const {
  const dht::Directory& dir = *ctx_.directory;
  const dht::RingPos trigger_pos = dir.pos(trigger_index);

  // T consults the k-table for the cheapest entry usable at its
  // location; R1 is capped at T's cache coverage (T can only contact
  // nodes it knows).
  KTable::Choice choice =
      ctx_.ktable->ChooseForPoint(dir, trigger_pos, ctx_.rs3);
  if (!choice.found) {
    return Status::ResourceExhausted(
        "vrand: trigger's neighborhood too sparse even for k_max");
  }
  const int k = choice.entry.k;
  const double rs1 = choice.entry.rs;

  // Candidate TLs: legitimate nodes w.r.t. R1, excluding T itself.
  dht::Region r1 = dht::Region::Centered(trigger_pos, rs1);
  std::vector<uint32_t> candidates = dir.NodesInRegion(r1);
  candidates.erase(
      std::remove(candidates.begin(), candidates.end(), trigger_index),
      candidates.end());
  if (candidates.size() < static_cast<size_t>(k)) {
    return Status::ResourceExhausted("vrand: fewer than k legitimate nodes");
  }
  rng.Shuffle(candidates);

  net::Transport& net = network != nullptr ? *network : ideal_transport();
  obs::TraceRecorder* rec = net.trace();
  obs::MetricsRegistry* met = net.metrics();
  obs::Span vrand_span(rec, met, trigger_index, "vrand");

  // Each TL draws RND_i once per engagement; retransmitted invites must
  // reuse it (handlers are idempotent), so draws are cached per node.
  std::map<uint32_t, crypto::Hash256> rnd_by_tl;
  auto tl_rnd = [&](uint32_t tl) -> const crypto::Hash256& {
    auto it = rnd_by_tl.find(tl);
    if (it == rnd_by_tl.end()) {
      it = rnd_by_tl
               .emplace(tl, crypto::Hash256(crypto::Digest(rng.NextBytes32())))
               .first;
    }
    return it->second;
  };

  // Rounds 1-2: invite every TL, collect commitments. A TL whose RPC
  // exhausts the retry budget is declared failed and replaced by a
  // spare R1 candidate; only a dry candidate list aborts. The nonce
  // scopes resident TL state across processes (0 in sim — v1 bytes).
  const uint64_t nonce = net.NewEngagementNonce();
  const std::vector<uint8_t> invite_bytes =
      msg::Encode(msg::VrandInvite{rs1, ctx_.now, nonce});
  net::Transport::QuorumResult quorum;
  {
    obs::Span commit_span(rec, met, trigger_index, "vrand-commit");
    quorum = net.EngageQuorum(
        trigger_index, candidates, k, invite_bytes,
        [&](uint32_t server, const std::vector<uint8_t>& request)
            -> std::optional<std::vector<uint8_t>> {
          if (!msg::Decode<msg::VrandInvite>(request).ok()) return std::nullopt;
          return TlCommitReply(tl_rnd(server));
        });
  }
  if (!quorum.ok) {
    return Status::Unavailable("vrand: TL quorum unreachable");
  }

  Outcome outcome;
  outcome.tl_indices = quorum.members;
  VerifiableRandom& vrnd = outcome.vrnd;
  vrnd.cert_t = dir.cert(trigger_index);
  vrnd.timestamp = ctx_.now;
  vrnd.rs1 = rs1;
  vrnd.participants.resize(k);

  msg::CommitList commit_list;
  commit_list.timestamp = ctx_.now;
  commit_list.nonce = nonce;
  commit_list.commitments.resize(k);
  for (int i = 0; i < k; ++i) {
    auto commit = msg::Decode<msg::CommitReply>(quorum.replies[i]);
    if (!commit.ok()) return commit.status();
    VrandParticipant& p = vrnd.participants[i];
    p.cert = dir.cert(quorum.members[i]);
    p.rnd = tl_rnd(quorum.members[i]);
    commit_list.commitments[i] = commit->commitment;
  }

  // Attack seam (CSAR grinding, core/attack_hooks.h): the commitments
  // are fixed, so the coalition knows the RND_T the reveal round would
  // produce and a colluding TL may withhold its reveal to force a
  // re-roll. One decision per TL, in commitment order, up to the first
  // defector; the transport retries a silent TL, so each decision is
  // cached for the engagement. The defector committed and then went
  // silent — an attributable strike the caller can record against it.
  std::map<uint32_t, bool> withholds;
  bool defected = false;
  const crypto::Hash256 would_be = vrnd.Value();
  if (attack != nullptr) attack->OnTlQuorum(quorum.members);
  auto withheld = [&](uint32_t tl) {
    if (attack == nullptr) return false;
    auto [it, fresh] = withholds.try_emplace(tl, false);
    if (fresh && !defected) {
      it->second = defected = attack->TlWithholdsReveal(tl, would_be);
      if (defected && rec != nullptr) rec->Mark(tl, "attack-tl-withhold", 0);
    }
    return it->second;
  };

  // Rounds 3-4: T broadcasts L; each TL checks its commitment is in L,
  // then reveals RND_i and signs (L, ts) — the TL reconstructs the
  // signed bytes from the RECEIVED list (SignedBytesFromList), which
  // for an honest engagement equals vrnd.SignedBytes() byte for byte.
  // The commitments are fixed now, so a TL lost here cannot be
  // substituted — the run aborts and the caller restarts with a fresh
  // RND_T.
  const std::vector<uint8_t> list_bytes = msg::Encode(commit_list);
  obs::Span reveal_span(rec, met, trigger_index, "vrand-reveal");
  std::vector<net::Transport::RpcResult> reveals = net.CallBatch(
      net::Transport::FanOut(trigger_index, quorum.members, list_bytes),
      [&](uint32_t server, const std::vector<uint8_t>& request)
          -> std::optional<std::vector<uint8_t>> {
        Result<msg::CommitList> list = msg::Decode<msg::CommitList>(request);
        if (!list.ok() || withheld(server)) return std::nullopt;
        return TlRevealReply(ctx_, met, server, tl_rnd(server), *list);
      });
  for (int i = 0; i < k; ++i) {
    if (!reveals[i].ok) {
      return Status::Unavailable("vrand: TL failed during reveal");
    }
    auto reveal = msg::Decode<msg::VrandReveal>(reveals[i].reply);
    if (!reveal.ok()) return reveal.status();
    // T verified this TL's reveal + signature off the wire.
    if (rec != nullptr) rec->Signature(quorum.members[i], "tl-sign");
    vrnd.participants[i].rnd = reveal->rnd;
    vrnd.participants[i].sig = std::move(reveal->sig);
  }

  // Cost model: the paper's *logical* rounds — 4 rounds of k parallel
  // messages (contact, commitment, commitment list, reveal+signature),
  // one signature per TL, then T validates the result it is about to
  // use (2k+1 ops, see VerifyVrand). Retransmissions show up in the
  // transport's Stats, not here.
  net::Cost cost;
  for (int round = 0; round < 4; ++round) {
    cost.Then(net::Cost::ParIdentical(net::Cost::Step(0, 1), k));
  }
  cost.Then(net::Cost::ParIdentical(net::Cost::Step(1, 0), k));
  Result<net::Cost> check = VerifyVrand(ctx_, vrnd, met);
  if (!check.ok()) return check.status();
  cost.Then(check.value());
  outcome.cost = cost;
  return outcome;
}

Result<net::Cost> VerifyVrand(const ProtocolContext& ctx,
                              const VerifiableRandom& vrnd,
                              obs::MetricsRegistry* metrics) {
  net::Cost cost;
  auto asym = [&cost, metrics] {
    cost.Then(net::Cost::Step(1, 0));
    if (metrics != nullptr) metrics->Inc(obs::Counter::kCryptoVerify);
  };

  // (i) T's certificate: fixes the center of R1 and proves T is genuine.
  asym();
  if (!ctx.CheckCertificate(vrnd.cert_t)) {
    return Status::SecurityViolation("vrand: bad trigger certificate");
  }

  // Timestamp freshness (reuse prevention, §3.6).
  if (vrnd.timestamp + ctx.max_timestamp_age < ctx.now) {
    return Status::SecurityViolation("vrand: stale timestamp");
  }

  if (vrnd.participants.empty()) {
    return Status::SecurityViolation("vrand: no participants");
  }
  if (crypto::RepeatsSubject(vrnd.participants)) {
    return Status::SecurityViolation("vrand: repeated TL");
  }

  // The claimed R1 size must honor the alpha constraint for this k: an
  // inflated region would admit TLs from anywhere.
  if (!ctx.ktable->AdmitsRegion(vrnd.k(), vrnd.rs1)) {
    return Status::SecurityViolation("vrand: region size outside alpha bound");
  }

  const dht::RingPos center = vrnd.cert_t.NodeIdFromSubject().ring_pos();
  dht::Region r1 = dht::Region::Centered(center, vrnd.rs1);
  const std::vector<uint8_t> signed_bytes = vrnd.SignedBytes();

  // (ii) per TL: certificate, legitimacy w.r.t. R1, signature over L.
  for (const VrandParticipant& p : vrnd.participants) {
    asym();
    if (!ctx.CheckCertificate(p.cert)) {
      return Status::SecurityViolation("vrand: bad TL certificate");
    }
    if (!r1.Contains(p.cert.NodeIdFromSubject())) {
      return Status::SecurityViolation("vrand: TL not legitimate w.r.t. R1");
    }
    asym();
    if (!ctx.CheckSignature(p.cert.subject, signed_bytes, p.sig)) {
      return Status::SecurityViolation("vrand: bad TL signature");
    }
  }
  return cost;
}

}  // namespace sep2p::core
