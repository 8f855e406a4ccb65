#include "attack/scenario.h"

#include <algorithm>
#include <array>
#include <optional>
#include <utility>

#include "core/attack_hooks.h"
#include "core/selection.h"
#include "core/vrand.h"
#include "dht/node_id.h"
#include "dht/region.h"
#include "node/join.h"
#include "strategies/adversary.h"

namespace sep2p::attack {

namespace {

// Fresh-RND_T restart budget, as in the failure sweeps: the honest
// remedy for any mid-protocol abort (§3.6).
constexpr int kMaxAttempts = 25;
// Attributable aborts the coalition is willing to risk per execution —
// a covert adversary cannot strike forever, every strike names the
// defector (it committed, then went silent).
constexpr int kStrikeBudget = 8;
// Key generations the Sybil campaign spends trying to land an identity
// inside the target region (expected need: 1/rs draws).
constexpr int kSybilKeyBudget = 64;
// Parties a VAL is disclosed to in the equivocation scenario.
constexpr int kEquivocateVerifiers = 8;

// The coalition's stuffing recipe, shared by sl-forge and equivocate so
// every colluding participant fabricates the IDENTICAL list without
// coordination messages: coalition keys in ascending directory order,
// truncated to `count`.
std::vector<crypto::PublicKey> CoalitionList(
    const dht::Directory& dir, const std::vector<uint32_t>& colluders,
    size_t count) {
  std::vector<crypto::PublicKey> keys;
  keys.reserve(std::min(count, colluders.size()));
  for (uint32_t idx : colluders) {
    if (keys.size() == count) break;
    keys.push_back(dir.pub(idx));
  }
  return keys;
}

// Restart loop of the selection-based scenarios
// (SelectionProtocol::RunWithRestarts): kUnavailable aborts (benign OR
// malicious — attack runs inject no benign failures, so here every abort
// is a coalition strike or its collateral) restart with a fresh
// engagement, anything else is a real error. The run is observed through
// the protocol's ideal transport.
Result<core::SelectionProtocol::Outcome> RunWithRestarts(
    const core::SelectionProtocol& protocol, uint32_t trigger,
    util::Rng& rng, core::AttackHooks* attack, obs::TraceRecorder* trace,
    obs::MetricsRegistry* metrics, int* restarts) {
  net::Transport& transport = protocol.ideal_transport();
  transport.set_trace(trace);
  transport.set_metrics(metrics);
  core::SelectionOptions options;
  options.attack = attack;
  Result<core::SelectionProtocol::Outcome> run = protocol.RunWithRestarts(
      trigger, rng, options, kMaxAttempts, restarts);
  if (!run.ok() && run.status().code() == StatusCode::kUnavailable) {
    return Status::ResourceExhausted("attack: restart budget exhausted");
  }
  return run;
}

// Hands the completed selection to a verifier (the data source's 2k-op
// check) and fills the acceptance-side fields. Never clears an earlier
// detection signal — a strike stays detected even if the final list
// verifies.
void FinishSelection(const core::ProtocolContext& ctx,
                     const core::SelectionProtocol::Outcome& run,
                     obs::MetricsRegistry* metrics, AttackOutcome& out) {
  out.cost = run.cost;
  out.relocations = run.relocations;
  out.verification_cost += 2.0 * run.val.k();
  Result<net::Cost> verdict = core::VerifyActorList(ctx, run.val, metrics);
  if (!verdict.ok()) {
    out.detected = true;
    if (out.detection_signal.empty()) {
      out.detection_signal = verdict.status().message();
    }
    return;
  }
  out.accepted = true;
  out.actor_count = static_cast<int>(run.actor_indices.size());
  int corrupted = 0;
  for (uint32_t idx : run.actor_indices) {
    if (ctx.directory->colluding(idx)) ++corrupted;
  }
  out.corrupted_actors = corrupted;
}

// ------------------------------------------------------------- baseline

class NoneScenario final : public Scenario {
 public:
  using Scenario::Scenario;
  const char* name() const override { return "none"; }

  Result<AttackOutcome> Run(uint32_t trigger, util::Rng& rng,
                            obs::TraceRecorder* trace,
                            obs::MetricsRegistry* metrics) override {
    AttackOutcome out;
    Result<core::SelectionProtocol::Outcome> run = RunWithRestarts(
        protocol_, trigger, rng, /*attack=*/nullptr, trace, metrics,
        &out.restarts);
    if (!run.ok()) return run.status();
    out.attempts = out.restarts + 1;
    FinishSelection(ctx_, *run, metrics, out);
    return out;
  }
};

// ----------------------------------------------------------- csar-grind

// Colluding TLs grind the commit-reveal: after the commitments fix the
// would-be RND_T, the coalition withholds a reveal whenever the
// resulting execution setter (successor of hash(RND_T)) is not one of
// theirs, forcing a re-roll. Bounded by the strike budget; CSAR's
// guarantee is exactly that this can only RE-ROLL, never steer.
class GrindHooks final : public core::AttackHooks {
 public:
  explicit GrindHooks(const core::ProtocolContext& ctx) : ctx_(ctx) {}

  void OnTlQuorum(const std::vector<uint32_t>& tls) override {
    for (uint32_t tl : tls) {
      if (ctx_.directory->colluding(tl)) {
        opportunity = true;
        return;
      }
    }
  }

  bool TlWithholdsReveal(uint32_t tl,
                         const crypto::Hash256& rnd_t) override {
    if (strikes >= kStrikeBudget) return false;
    if (!ctx_.directory->colluding(tl)) return false;
    const crypto::Hash256 p =
        crypto::Hash256::Of(rnd_t.bytes().data(), rnd_t.bytes().size());
    std::optional<uint32_t> setter =
        ctx_.directory->SuccessorIndex(p.ring_pos());
    if (setter.has_value() && ctx_.directory->colluding(*setter)) {
      return false;  // favourable outcome: reveal honestly
    }
    ++strikes;
    return true;
  }

  const core::ProtocolContext& ctx_;
  bool opportunity = false;
  int strikes = 0;
};

class CsarGrindScenario final : public Scenario {
 public:
  using Scenario::Scenario;
  const char* name() const override { return "csar-grind"; }

  Result<AttackOutcome> Run(uint32_t trigger, util::Rng& rng,
                            obs::TraceRecorder* trace,
                            obs::MetricsRegistry* metrics) override {
    GrindHooks hooks(ctx_);
    AttackOutcome out;
    Result<core::SelectionProtocol::Outcome> run = RunWithRestarts(
        protocol_, trigger, rng, &hooks, trace, metrics, &out.restarts);
    if (!run.ok()) return run.status();
    out.attempted = hooks.opportunity || hooks.strikes > 0;
    out.strikes = hooks.strikes;
    out.attempts = out.restarts + 1;
    if (hooks.strikes > 0) {
      out.detected = true;
      out.detection_signal = "TL withheld its reveal after committing";
    }
    FinishSelection(ctx_, *run, metrics, out);
    out.succeeded =
        out.accepted && ctx_.directory->colluding(run->setter_index);
    return out;
  }
};

// -------------------------------------------------------------- sl-bias

// The §3.5 covert deviation: colluding SLs report only colluders in
// CL_j. Perfectly covert — and perfectly futile unless EVERY engaged SL
// colludes, because the union with one honest candidate list restores
// the full pool before the RND_S sort.
class BiasHooks final : public core::AttackHooks {
 public:
  explicit BiasHooks(const core::ProtocolContext& ctx) : ctx_(ctx) {}

  void OnSlQuorum(const std::vector<uint32_t>& sls) override {
    int colluding = 0;
    for (uint32_t sl : sls) {
      if (ctx_.directory->colluding(sl)) ++colluding;
    }
    opportunity |= colluding > 0;
    all_colluding = colluding == static_cast<int>(sls.size());
  }

  bool SlBiasesCandidates(uint32_t /*sl*/) override { return true; }

  const core::ProtocolContext& ctx_;
  bool opportunity = false;
  bool all_colluding = false;  // of the most recent (= final) quorum
};

class SlBiasScenario final : public Scenario {
 public:
  using Scenario::Scenario;
  const char* name() const override { return "sl-bias"; }

  Result<AttackOutcome> Run(uint32_t trigger, util::Rng& rng,
                            obs::TraceRecorder* trace,
                            obs::MetricsRegistry* metrics) override {
    BiasHooks hooks(ctx_);
    AttackOutcome out;
    Result<core::SelectionProtocol::Outcome> run = RunWithRestarts(
        protocol_, trigger, rng, &hooks, trace, metrics, &out.restarts);
    if (!run.ok()) return run.status();
    out.attempted = hooks.opportunity;
    out.attempts = out.restarts + 1;
    FinishSelection(ctx_, *run, metrics, out);
    // Full capture requires an all-colluding quorum (probability bounded
    // by alpha): then the union holds colluders only.
    out.succeeded = out.accepted && hooks.all_colluding &&
                    out.corrupted_actors == out.actor_count;
    return out;
  }
};

// ---------------------------------------------------------- sl-withhold

// Selective abort at the attestation step: a colluding SL knows the
// actor list it is about to attest (it computed the identical list in
// step 8) and refuses to sign when the coalition's share is not above
// par, censoring the distribution upward. Every refusal is a strike.
class WithholdHooks final : public core::AttackHooks {
 public:
  WithholdHooks(const core::ProtocolContext& ctx, double colluding_fraction)
      : ctx_(ctx), colluding_fraction_(colluding_fraction) {}

  bool SlWithholdsAttest(
      uint32_t sl, const std::vector<crypto::PublicKey>& actors) override {
    if (!ctx_.directory->colluding(sl)) return false;
    opportunity = true;
    if (strikes >= kStrikeBudget) return false;
    int corrupted = 0;
    for (const crypto::PublicKey& key : actors) {
      std::optional<uint32_t> idx =
          ctx_.directory->IndexOf(dht::NodeIdForKey(key));
      if (idx.has_value() && ctx_.directory->colluding(*idx)) ++corrupted;
    }
    const double ideal =
        static_cast<double>(actors.size()) * colluding_fraction_;
    if (static_cast<double>(corrupted) > ideal) return false;  // above par
    ++strikes;
    return true;
  }

  const core::ProtocolContext& ctx_;
  double colluding_fraction_;
  bool opportunity = false;
  int strikes = 0;
};

class SlWithholdScenario final : public Scenario {
 public:
  using Scenario::Scenario;
  const char* name() const override { return "sl-withhold"; }

  Result<AttackOutcome> Run(uint32_t trigger, util::Rng& rng,
                            obs::TraceRecorder* trace,
                            obs::MetricsRegistry* metrics) override {
    const double fraction =
        static_cast<double>(colluders_.size()) /
        static_cast<double>(ctx_.directory->alive_count());
    WithholdHooks hooks(ctx_, fraction);
    AttackOutcome out;
    Result<core::SelectionProtocol::Outcome> run = RunWithRestarts(
        protocol_, trigger, rng, &hooks, trace, metrics, &out.restarts);
    if (!run.ok()) return run.status();
    out.attempted = hooks.opportunity;
    out.strikes = hooks.strikes;
    out.attempts = out.restarts + 1;
    if (hooks.strikes > 0) {
      out.detected = true;
      out.detection_signal =
          "SL refused to attest the list it helped build";
    }
    FinishSelection(ctx_, *run, metrics, out);
    // Success = the censoring worked: the coalition had its SL in place
    // and the surviving (accepted) list is above the unbiased par.
    const double ideal = static_cast<double>(out.actor_count) * fraction;
    out.succeeded = out.attempted && out.accepted &&
                    static_cast<double>(out.corrupted_actors) > ideal;
    return out;
  }
};

// ------------------------------------------------------------- sl-forge

// Colluding SLs sign a coalition-stuffed actor list instead of the one
// the reveals determined. The assembled VAL carries the honest keys, so
// the first verifier's signature check exposes every forged attestation
// — full capture needs ALL k attestations AND the assembling setter in
// the coalition, the event alpha bounds.
class ForgeHooks final : public core::AttackHooks {
 public:
  ForgeHooks(const core::ProtocolContext& ctx,
             const std::vector<uint32_t>& colluders)
      : ctx_(ctx), colluders_(colluders) {}

  void OnSlQuorum(const std::vector<uint32_t>& sls) override {
    for (uint32_t sl : sls) {
      if (ctx_.directory->colluding(sl)) {
        opportunity = true;
        return;
      }
    }
  }

  bool SlForgesAttest(
      uint32_t sl, const std::vector<crypto::PublicKey>& actors,
      std::vector<crypto::PublicKey>* forged_actors) override {
    if (!ctx_.directory->colluding(sl)) return false;
    ++forged;
    *forged_actors =
        CoalitionList(*ctx_.directory, colluders_, actors.size());
    return true;
  }

  const core::ProtocolContext& ctx_;
  const std::vector<uint32_t>& colluders_;
  bool opportunity = false;
  int forged = 0;  // attestations forged in the final attempt
};

class SlForgeScenario final : public Scenario {
 public:
  using Scenario::Scenario;
  const char* name() const override { return "sl-forge"; }

  Result<AttackOutcome> Run(uint32_t trigger, util::Rng& rng,
                            obs::TraceRecorder* trace,
                            obs::MetricsRegistry* metrics) override {
    ForgeHooks hooks(ctx_, colluders_);
    AttackOutcome out;
    Result<core::SelectionProtocol::Outcome> run = RunWithRestarts(
        protocol_, trigger, rng, &hooks, trace, metrics, &out.restarts);
    if (!run.ok()) return run.status();
    out.attempted = hooks.opportunity;
    out.attempts = out.restarts + 1;
    // Full capture: every attestation is forged over the SAME stuffed
    // list and the setter (who assembles the VAL) is a colluder, so the
    // coalition ships the stuffed list with k matching signatures — the
    // sub-alpha event the k-table sizing is chosen against.
    if (hooks.forged == run->val.k() && hooks.forged > 0 &&
        ctx_.directory->colluding(run->setter_index)) {
      core::VerifiableActorList captured = run->val;
      captured.actor_keys = CoalitionList(*ctx_.directory, colluders_,
                                          run->val.actor_keys.size());
      out.cost = run->cost;
      out.relocations = run->relocations;
      out.verification_cost += 2.0 * captured.k();
      Result<net::Cost> verdict =
          core::VerifyActorList(ctx_, captured, metrics);
      if (verdict.ok()) {
        out.accepted = true;
        out.succeeded = true;
        out.actor_count = static_cast<int>(captured.actor_keys.size());
        out.corrupted_actors = out.actor_count;
        return out;
      }
      // Fall through: even the coordinated VAL failed (e.g. a stuffed
      // key outside every legitimacy assumption) — treat as detected.
    }
    FinishSelection(ctx_, *run, metrics, out);
    if (!out.accepted && hooks.forged > 0 &&
        out.detection_signal.empty()) {
      out.detection_signal = "val: bad SL signature";
    }
    return out;
  }
};

// ----------------------------------------------------------- sybil-join

// Campaign against imposed node location (§3.2): identities are
// id = hash(kpub), so position is not choosable — the attacker can only
// GRIND key pairs hoping to land inside the target region (expected
// 1/rs generations), and even a landed key fails the join announce:
// every honest receiver recomputes hash(kpub) against the claimed
// position and demands a CA certificate the offline authority never
// issued for a fabricated identity.
class SybilJoinScenario final : public Scenario {
 public:
  using Scenario::Scenario;
  const char* name() const override { return "sybil-join"; }

  Result<AttackOutcome> Run(uint32_t trigger, util::Rng& rng,
                            obs::TraceRecorder* trace,
                            obs::MetricsRegistry* metrics) override {
    (void)trigger;
    AttackOutcome out;
    out.attempted = true;
    const dht::Directory& dir = *ctx_.directory;

    // Target: a tolerance-sized region around a random ring point (the
    // smallest region the protocols ever treat as a neighborhood).
    const std::array<uint8_t, 32> point_bytes = rng.NextBytes32();
    const crypto::Hash256 point =
        crypto::Hash256::Of(point_bytes.data(), point_bytes.size());
    const dht::Region target =
        dht::Region::Centered(point.ring_pos(), ctx_.tolerance_rs);

    // (a) Identity grinding: each generation costs one asymmetric op.
    bool landed = false;
    crypto::KeyPair ground;
    for (int i = 0; i < kSybilKeyBudget && !landed; ++i) {
      ++out.attempts;
      Result<crypto::KeyPair> kp = ctx_.provider->GenerateKeyPair(rng);
      if (!kp.ok()) return kp.status();
      out.cost.Then(net::Cost::Step(1, 0));
      if (target.Contains(dht::NodeIdForKey(kp->pub))) {
        landed = true;
        ground = std::move(kp.value());
      }
    }
    if (trace != nullptr) {
      trace->Mark(obs::kNoNode, "attack-sybil-grind",
                  static_cast<uint64_t>(out.attempts));
    }

    // (b) The landed identity has no CA certificate; the best the
    // attacker can do is staple a colluder's CA signature onto the new
    // subject — the receiver's one-op certificate check rejects it.
    bool forged_cert_passed = false;
    if (landed) {
      crypto::Certificate forged;
      forged.subject = ground.pub;
      if (!colluders_.empty()) {
        const crypto::Certificate donor = dir.cert(colluders_[0]);
        forged.serial = donor.serial;
        forged.ca_signature = donor.ca_signature;
      }
      out.verification_cost += 1;
      forged_cert_passed = ctx_.ca->Check(forged);
      if (metrics != nullptr) metrics->Inc(obs::Counter::kCryptoVerify);
    }

    // (c) Location spoofing with a GENUINE certificate: a certified
    // colluder announces the target point as its position. The receiver
    // recomputes hash(kpub) — locations are imposed exactly, there is
    // no tolerance in the announce check — so the spoof is rejected
    // unless the colluder's true identity already lies in the target.
    bool spoof_passed = false;
    if (!colluders_.empty()) {
      const crypto::Certificate cert = dir.cert(colluders_[0]);
      out.verification_cost += 1;
      if (metrics != nullptr) metrics->Inc(obs::Counter::kCryptoVerify);
      spoof_passed = target.Contains(cert.NodeIdFromSubject());
    }

    out.succeeded = forged_cert_passed || spoof_passed;
    if (!out.succeeded) {
      out.detected = true;
      out.detection_signal =
          landed ? "join announce rejected: no genuine CA certificate"
                 : "join announce rejected: position != hash(kpub)";
    }
    return out;
  }
};

// -------------------------------------------------------------- eclipse

// The covert omission: a colluding cache owner drops the honest entries
// that none of its planned attestors' own coverage can vouch for — the
// attestors cross-check the rest, so dropping those would be caught.
class OmitHooks final : public core::AttackHooks {
 public:
  explicit OmitHooks(const core::ProtocolContext& ctx) : ctx_(ctx) {}

  void OwnerOmitsEntries(uint32_t owner,
                         const std::vector<uint32_t>& attestors,
                         std::vector<uint32_t>* entries) override {
    // The newcomer checks every cache it is served at 2k+1 ops.
    verify_ops += 2.0 * static_cast<double>(attestors.size()) + 1;
    const dht::Directory& dir = *ctx_.directory;
    if (!dir.colluding(owner)) return;
    std::erase_if(*entries, [&](uint32_t idx) {
      const bool vouched = std::ranges::any_of(attestors, [&](uint32_t a) {
        return dht::Region::Centered(dir.pos(a), ctx_.rs3)
            .Contains(dir.pos(idx));
      });
      if (dir.colluding(idx) || vouched) return false;
      ++hidden;  // nobody can disprove the omission
      return true;
    });
  }

  const core::ProtocolContext& ctx_;
  int hidden = 0;
  double verify_ops = 0;
};

// A colluding Chord neighbor poisons the attested cache it serves to a
// (re)joining victim. The forged-quorum variant (attestations from
// coalition members instead of k legitimate R1 nodes) is caught by
// VerifyAttestedCache; the covert variant runs the victim's real §3.6
// join with OmitHooks installed, which verifies clean — the residual
// cache bias is the measurable damage.
class EclipseScenario final : public Scenario {
 public:
  using Scenario::Scenario;
  const char* name() const override { return "eclipse"; }

  Result<AttackOutcome> Run(uint32_t trigger, util::Rng& rng,
                            obs::TraceRecorder* trace,
                            obs::MetricsRegistry* metrics) override {
    (void)trigger;
    AttackOutcome out;
    const dht::Directory& dir = *ctx_.directory;
    if (colluders_.empty()) return out;

    // Victim: the honest successor of a random colluder — the node that
    // would ask that colluder for an attested cache on join.
    const uint32_t poisoner = colluders_[static_cast<size_t>(
        rng.NextUint64(colluders_.size()))];
    std::optional<uint32_t> vic = dir.SuccessorIndex(dir.pos(poisoner) + 1);
    if (!vic.has_value() || *vic == poisoner || dir.colluding(*vic)) {
      return out;
    }
    const uint32_t victim = *vic;
    out.attempted = true;

    core::KTable::Choice choice =
        ctx_.ktable->ChooseForPoint(dir, dir.pos(poisoner), ctx_.rs3);
    if (!choice.found) return out;
    const int k = choice.entry.k;

    // Variant A — forged attestor quorum: the poisoner vouches for a
    // colluders-only snapshot with attestations from coalition members.
    // They are genuine certified nodes, but not legitimate w.r.t. R1
    // around the owner, which is exactly what the verifier checks.
    {
      node::AttestedCache forged;
      forged.owner_cert = dir.cert(poisoner);
      forged.timestamp = ctx_.now;
      forged.rs1 = choice.entry.rs;
      for (uint32_t idx : colluders_) {
        if (idx != poisoner) forged.entries.push_back(dir.pub(idx));
      }
      const std::vector<uint8_t> bytes = forged.SignedBytes();
      const crypto::Hash256 digest =
          crypto::Hash256::Of(bytes.data(), bytes.size());
      int signed_count = 0;
      for (uint32_t idx : colluders_) {
        if (idx == poisoner) continue;
        if (signed_count == k) break;
        Result<crypto::Signature> sig = ctx_.SignAs(idx, digest);
        if (!sig.ok()) return sig.status();
        forged.attestations.push_back({dir.cert(idx), *sig});
        ++signed_count;
      }
      out.cost.Then(net::Cost::ParIdentical(net::Cost::Step(1, 2),
                                            signed_count));
      out.verification_cost += 2.0 * signed_count + 1;
      Result<net::Cost> verdict = node::VerifyAttestedCache(ctx_, forged);
      if (!verdict.ok()) {
        out.detected = true;
        out.detection_signal = verdict.status().message();
        if (trace != nullptr) {
          trace->Mark(victim, "attack-eclipse-rejected", 0);
        }
      } else {
        // Every forged attestor happened to be R1-legitimate — the
        // coalition owns the victim's whole neighborhood.
        out.succeeded = true;
      }
    }

    // Variant B — covert omission during the victim's real join: it
    // unions the poisoned snapshot with its other neighbour's cache and
    // keeps what its own coverage admits (§3.6).
    OmitHooks hooks(ctx_);
    net::Transport& transport = protocol_.ideal_transport();
    transport.set_trace(trace);
    transport.set_metrics(metrics);
    Result<node::JoinProtocol::Outcome> joined =
        node::JoinProtocol(ctx_, transport).Join(victim, rng, &hooks);
    out.verification_cost += hooks.verify_ops;
    if (!joined.ok()) {
      const StatusCode code = joined.status().code();
      // A neighbourhood too sparse for k attestors: no covert variant.
      if (code == StatusCode::kResourceExhausted) return out;
      if (code != StatusCode::kSecurityViolation) return joined.status();
      // Should not happen: the covert cache is well-formed.
      out.detected = true;
      if (out.detection_signal.empty()) {
        out.detection_signal = joined.status().message();
      }
      return out;
    }
    out.cost.Then(joined->cost);
    out.accepted = true;
    out.actor_count = static_cast<int>(joined->cache.size());
    out.corrupted_actors = CountCorrupted(joined->cache);
    out.succeeded = out.succeeded || hooks.hidden > 0;
    out.strikes = hooks.hidden;  // covertly suppressed honest entries
    return out;
  }
};

// ----------------------------------------------------------- equivocate

// Verification-time equivocation: a colluding distributor (the setter
// or any colluding SL) discloses a doctored VAL — coalition-stuffed
// actors under the ORIGINAL attestations — to half the verifiers and
// the genuine one to the rest. Verification is deterministic over the
// signed bytes, so every doctored recipient rejects; equivocation
// cannot split the verifiers' view.
class EquivocateScenario final : public Scenario {
 public:
  using Scenario::Scenario;
  const char* name() const override { return "equivocate"; }

  Result<AttackOutcome> Run(uint32_t trigger, util::Rng& rng,
                            obs::TraceRecorder* trace,
                            obs::MetricsRegistry* metrics) override {
    AttackOutcome out;
    Result<core::SelectionProtocol::Outcome> run = RunWithRestarts(
        protocol_, trigger, rng, /*attack=*/nullptr, trace, metrics,
        &out.restarts);
    if (!run.ok()) return run.status();
    out.attempts = out.restarts + 1;

    const dht::Directory& dir = *ctx_.directory;
    bool distributor = dir.colluding(run->setter_index);
    for (uint32_t sl : run->sl_indices) {
      distributor |= dir.colluding(sl);
    }
    FinishSelection(ctx_, *run, metrics, out);
    if (!distributor || !out.accepted) return out;

    out.attempted = true;
    core::VerifiableActorList doctored = run->val;
    doctored.actor_keys = CoalitionList(dir, colluders_,
                                        run->val.actor_keys.size());
    int caught = 0;
    for (int v = 0; v < kEquivocateVerifiers; ++v) {
      const bool gets_doctored = (v % 2) == 0;
      out.verification_cost += 2.0 * run->val.k();
      Result<net::Cost> verdict = core::VerifyActorList(
          ctx_, gets_doctored ? doctored : run->val, metrics);
      if (gets_doctored && !verdict.ok()) ++caught;
      if (gets_doctored && verdict.ok()) out.succeeded = true;
    }
    if (caught > 0) {
      out.detected = true;
      out.detection_signal =
          "equivocated VAL rejected by recipient verifier";
    }
    (void)rng;
    return out;
  }
};

}  // namespace

int Scenario::CountCorrupted(const std::vector<uint32_t>& actors) const {
  int corrupted = 0;
  for (uint32_t idx : actors) {
    if (ctx_.directory->colluding(idx)) ++corrupted;
  }
  return corrupted;
}

bool Scenario::ColluderKey(const crypto::PublicKey& key) const {
  std::optional<uint32_t> idx =
      ctx_.directory->IndexOf(dht::NodeIdForKey(key));
  return idx.has_value() && ctx_.directory->colluding(*idx);
}

std::unique_ptr<Scenario> MakeScenario(
    const std::string& name, const core::ProtocolContext& ctx,
    const std::vector<uint32_t>& colluders) {
  if (name == "none") return std::make_unique<NoneScenario>(ctx, colluders);
  if (name == "csar-grind") {
    return std::make_unique<CsarGrindScenario>(ctx, colluders);
  }
  if (name == "sl-bias") {
    return std::make_unique<SlBiasScenario>(ctx, colluders);
  }
  if (name == "sl-withhold") {
    return std::make_unique<SlWithholdScenario>(ctx, colluders);
  }
  if (name == "sl-forge") {
    return std::make_unique<SlForgeScenario>(ctx, colluders);
  }
  if (name == "sybil-join") {
    return std::make_unique<SybilJoinScenario>(ctx, colluders);
  }
  if (name == "eclipse") {
    return std::make_unique<EclipseScenario>(ctx, colluders);
  }
  if (name == "equivocate") {
    return std::make_unique<EquivocateScenario>(ctx, colluders);
  }
  return nullptr;
}

const std::vector<std::string>& ScenarioNames() {
  static const std::vector<std::string> kNames = {
      "none",       "csar-grind", "sl-bias",  "sl-withhold",
      "sl-forge",   "sybil-join", "eclipse",  "equivocate"};
  return kNames;
}

}  // namespace sep2p::attack
