// Malicious-behaviour injection seams (ROADMAP item 4).
//
// A crashed or lossy node fails indiscriminately; an ACTIVE adversary
// deviates *selectively* — a colluding TL withholds its reveal only
// when the committed RND_T does not favour the coalition, a colluding
// SL biases or refuses exactly the attestations worth biasing.
// AttackHooks exposes those decision points inside the server-side
// handlers of the message-level protocols (core/vrand.cc,
// core/selection.cc), so a deviation is something the driver observes
// over the transport: a withheld reply times out, is retried up to the
// retry budget, and then aborts the run. The handlers are the per-call
// closures of an in-process transport (any net::SimNetwork); over
// net::TcpTransport the resident core::ProtocolService answers instead,
// and the hooks do not run there yet. The §3.6 join (node/join.cc)
// consults its one hook on the cache owner's side.
//
//   * TlWithholdsReveal — consulted per TL after every commitment is
//     fixed and the would-be RND_T is determined. This is the strongest
//     (rushing) adversary for CSAR grinding: the coalition sees the
//     outcome it would get and may abort the run by withholding one
//     reveal. It can force a re-roll but never steer the value (the
//     honest participant's contribution keeps the XOR uniform).
//   * SlBiasesCandidates — the SL reports only colluding entries in its
//     candidate list CL_j (the covert cache-hiding deviation of §3.5).
//   * SlWithholdsAttest — the SL sees the actor list it is about to
//     attest (it computed the list itself in step 8) and refuses to
//     sign: a selective abort that censors unfavourable selections.
//   * SlForgesAttest — the SL signs a DIFFERENT actor list than the one
//     the setter assembles, e.g. one stuffed with colluders.
//   * OwnerOmitsEntries — a join neighbour drops entries from the node
//     cache it has attested for a newcomer (the covert eclipse of §3.6).
//
// The protocols consult a hook only when one is installed; with no
// hooks (the default everywhere) every participant answers honestly and
// the RNG draws, trace events and costs are those of an honest run.
// Because the transport retries a server that refuses, the protocols
// cache each decision per engagement: one decision per participant, in
// commitment order, up to the first defector. Implementations live in
// src/attack/ and src/strategies/ (core cannot depend on them); they
// must be deterministic functions of the per-trial RNG stream so
// attacked sweeps stay bit-identical for any thread count.

#ifndef SEP2P_CORE_ATTACK_HOOKS_H_
#define SEP2P_CORE_ATTACK_HOOKS_H_

#include <cstdint>
#include <vector>

#include "crypto/hash256.h"
#include "crypto/signature_provider.h"

namespace sep2p::core {

class AttackHooks {
 public:
  virtual ~AttackHooks() = default;

  // Called once per engagement with the final TL set, after the
  // commitments and before any reveal; lets a coalition coordinate
  // across its members.
  virtual void OnTlQuorum(const std::vector<uint32_t>& /*tls*/) {}

  // Consulted per TL in commitment order, after all commitments are
  // fixed. `rnd_t` is the XOR the reveal round would produce. Returning
  // true withholds this TL's reveal: its RPC exhausts the retry budget,
  // the run aborts (kUnavailable) and the trigger restarts with a fresh
  // engagement — an attributable strike, since the TL visibly defected
  // after committing.
  virtual bool TlWithholdsReveal(uint32_t /*tl_index*/,
                                 const crypto::Hash256& /*rnd_t*/) {
    return false;
  }

  // Called once per attempt with the engaged SL set, once the quorum
  // is fixed (before the reveal round).
  virtual void OnSlQuorum(const std::vector<uint32_t>& /*sls*/) {}

  // True = SL `sl_index` reports only colluding entries in its
  // candidate list (covert: the union with one honest CL restores the
  // full pool, so nothing observable changes).
  virtual bool SlBiasesCandidates(uint32_t /*sl_index*/) { return false; }

  // Consulted per SL before it signs the assembled actor list (the SL
  // legitimately knows `actors`: it computed the identical list in step
  // 8). Returning true withholds the attestation — the selection aborts
  // and restarts, another attributable strike.
  virtual bool SlWithholdsAttest(
      uint32_t /*sl_index*/, const std::vector<crypto::PublicKey>& /*actors*/) {
    return false;
  }

  // Consulted per SL before signing. Returning true makes the SL sign a
  // VAL whose actor keys are `*forged_actors` instead of `actors`; the
  // assembled VAL still carries the honest list, so any verifier's
  // signature check exposes the forgery — unless EVERY attestation (and
  // the assembling setter) belongs to the coalition.
  virtual bool SlForgesAttest(
      uint32_t /*sl_index*/, const std::vector<crypto::PublicKey>& /*actors*/,
      std::vector<crypto::PublicKey>* /*forged_actors*/) {
    return false;
  }

  // Consulted once per attested cache with the k attestors the owner is
  // about to engage (before any replacement) and its cache entries'
  // directory indices. The owner may erase entries; the attestors sign
  // the reduced list, which verifies clean.
  virtual void OwnerOmitsEntries(uint32_t /*owner_index*/,
                                 const std::vector<uint32_t>& /*attestors*/,
                                 std::vector<uint32_t>* /*entries*/) {}
};

}  // namespace sep2p::core

#endif  // SEP2P_CORE_ATTACK_HOOKS_H_
