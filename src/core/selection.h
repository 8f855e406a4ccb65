// SEP2P distributed secure actor selection (paper §3.5).
//
// Full pipeline (Figure 1 of the paper):
//
//   1. T generates a verifiable random RND_T with k TLs (core/vrand.h).
//   2. hash(RND_T) maps to a point p; the DHT routes to the execution
//      Setter S = successor(p).
//   3. S engages k legitimate nodes w.r.t. R2 (centered on p), the SLs.
//   4-7. Commit/reveal between S and the SLs over (RND_j, CL_j), where
//      CL_j is the part of SL_j's node cache legitimate w.r.t. R3
//      (centered on p).
//   8. Every SL independently: checks each reveal against its
//      commitment; verifies VRND_T; merges the candidate lists
//      CL = union CL_j; computes RND_S = xor RND_j; sorts CL by
//      kpub_n xor RND_S; takes the first A as the actor list AL; checks
//      legitimacy of actors not present in every CL_j; signs (RND_T, AL).
//      The setter models those checks once: it recomputes every
//      commitment and maps each CL_j onto the R3 scan in one forward
//      walk (an honest CL_j is a subsequence of the scan), counting per
//      scan slot how many lists name it. CL is the slots named at least
//      once, and an actor named by all k skips the certificate check. A
//      reveal that breaks its commitment, or names a key outside R3, out
//      of scan order or twice, is a SecurityViolation.
//   9. S assembles the verifiable actor list VAL.
//
// Any verifier then accepts VAL after k certificate checks + k signature
// checks = 2k asymmetric operations — the paper's headline cost.
//
// If R3 around p holds fewer than A candidates, the selection relocates:
// p' = hash(p) and steps 3-8 re-run there (§3.6), which Figure 7 measures.

#ifndef SEP2P_CORE_SELECTION_H_
#define SEP2P_CORE_SELECTION_H_

#include <cstdint>
#include <vector>

#include "core/attack_hooks.h"
#include "core/context.h"
#include "core/vrand.h"
#include "net/cost.h"
#include "net/transport.h"
#include "util/rng.h"

namespace sep2p::core {

struct VerifiableActorList {
  crypto::Hash256 rnd_t;  // attested by the k SL signatures
  uint64_t timestamp = 0;
  double rs2 = 0;          // SL legitimacy region size (k-table entry)
  int relocations = 0;     // number of rehash relocations applied to p
  std::vector<crypto::PublicKey> actor_keys;
  std::vector<crypto::Certificate> actor_certs;  // for app-level use
                                                 // (e.g. encrypting to a DA)

  struct Attestation {
    crypto::Certificate cert;  // the SL's certificate
    crypto::Signature sig;     // over the SHA-256 of SignedBytes()
  };
  std::vector<Attestation> attestations;  // exactly k

  int k() const { return static_cast<int>(attestations.size()); }
  int actor_count() const { return static_cast<int>(actor_keys.size()); }

  // The point p the SLs must be legitimate around: hash(RND_T), rehashed
  // `relocations` times.
  crypto::Hash256 SetterPoint() const;

  // Canonical bytes the SLs attest: RND_T || relocations || ts || actor
  // keys. Each SL signs their SHA-256 digest (core::AttestReply).
  std::vector<uint8_t> SignedBytes() const;
};

struct SelectionOptions {
  // Every remote step (the T→TL commit/reveal inside vrand, DHT routing
  // to S, and the S→SL engagement, commit/reveal and attestation
  // rounds) travels as typed messages (core/messages.h) over this
  // transport — net::SimNetwork for virtual-clock simulation,
  // net::TcpTransport for real sockets — with per-RPC
  // timeout/retry/backoff. An SL or TL that exhausts its retry budget
  // during engagement is declared failed and replaced by a spare
  // candidate; kUnavailable (→ restart with a fresh RND_T) is reserved
  // for genuinely unreachable quorums and participants lost after their
  // commitment is fixed. nullptr runs on the protocol object's
  // ideal_transport(). The transport must be exclusive to the calling
  // trial (never shared across driver threads); latency and retry
  // counts accumulate in its Stats, and its attached recorder/registry
  // observe the run.
  net::Transport* network = nullptr;
  // Active-adversary seams (core/attack_hooks.h): a non-null hook set
  // installs malicious TL/SL behaviour on the message path — reveal
  // withholding inside vrand, candidate-list bias, attestation
  // withholding and forged attestations. nullptr (the default) keeps
  // every participant honest; src/attack/ provides the implementations
  // and measures what they achieve.
  AttackHooks* attack = nullptr;
  // SIMULATOR-ONLY hook (paper §4.1: "the simulator allows to force
  // choosing a given Execution Setter by artificially fixing the RND_T
  // value"): overrides hash(RND_T) as the initial setter point so every
  // node can be exercised as S exhaustively. The produced VAL will NOT
  // verify (the SLs' region no longer matches the attested RND_T);
  // exhaustive runs only measure costs and actor composition.
  const crypto::Hash256* forced_point = nullptr;
};

class SelectionProtocol {
 public:
  explicit SelectionProtocol(const ProtocolContext& ctx) : ctx_(ctx) {}

  struct Outcome {
    VerifiableActorList val;
    std::vector<uint32_t> actor_indices;  // simulator view of AL
    uint32_t setter_index = 0;            // final S after relocations
    std::vector<uint32_t> sl_indices;     // final SLs
    int relocations = 0;
    net::Cost cost;  // total setup cost, incl. vrand and routing
  };

  // Runs the full protocol triggered by node `trigger_index`.
  Result<Outcome> Run(uint32_t trigger_index, util::Rng& rng,
                      const SelectionOptions& options = {}) const;

  // The paper's remedy for a participant failing mid-protocol (§3.6):
  // Run again with a fresh RND_T, up to `max_attempts` runs in all, but
  // only after kUnavailable (a genuinely unreachable quorum); any other
  // error returns at once. An exhausted budget returns the last
  // kUnavailable. `restarts` (if non-null) receives the number of
  // restarts the successful run needed.
  Result<Outcome> RunWithRestarts(uint32_t trigger_index, util::Rng& rng,
                                  const SelectionOptions& options,
                                  int max_attempts, int* restarts) const;

  // The in-process ideal link (net::kIdealLink) over every directory
  // node that runs carry when SelectionOptions::network is null — also
  // for their vrand step. Created on first use and kept for this
  // object's lifetime; attach observers here. Not thread-safe: parallel
  // harnesses need one protocol object per TrialRunner shard.
  net::Transport& ideal_transport() const { return vrand_.ideal_transport(); }

 private:
  const ProtocolContext& ctx_;
  VrandProtocol vrand_{ctx_};
};

// Deterministic actor-list construction shared by every SL (§3.5 step
// 8.c-8.e): union of candidate lists, sorted by kpub xor RND_S, first A.
// Exposed for tests (every SL must compute the identical list).
std::vector<crypto::PublicKey> BuildActorList(
    const std::vector<std::vector<crypto::PublicKey>>& candidate_lists,
    const crypto::Hash256& rnd_s, int actor_count);

// Indexed form of BuildActorList used by the protocol driver: takes the
// pool CL (the union of the candidate lists, each key once, in any
// order) and returns the positions in `candidates` of the first A keys
// in kpub xor RND_S order. The key sequence is exactly BuildActorList's
// over any lists whose union is `candidates`.
std::vector<uint32_t> BuildActorListIndexed(
    const std::vector<crypto::PublicKey>& candidates,
    const crypto::Hash256& rnd_s, int actor_count);

// Verifies a VAL as a data source would before releasing data: for each
// of k attestations by distinct SLs, the SL certificate (genuine PDMS),
// the SL's legitimacy w.r.t. R2 centered on the (relocation-adjusted)
// setter point, and the signature over (RND_T, AL). Exactly 2k
// asymmetric operations on success. A non-null `metrics` tallies each
// asymmetric op as crypto_verify (passive, no behavioural effect).
Result<net::Cost> VerifyActorList(const ProtocolContext& ctx,
                                  const VerifiableActorList& val,
                                  obs::MetricsRegistry* metrics = nullptr);

}  // namespace sep2p::core

#endif  // SEP2P_CORE_SELECTION_H_
