// Verifiable random generation (paper §3.4).
//
// A triggering node T obtains a 256-bit random value that provably cannot
// have been chosen by any coalition of fewer than k participants, where
// the k participants ("TLs") are legitimate nodes of a region R1 centered
// on T whose size guarantees (probability < alpha) that at least one of
// them is honest. The protocol is the CSAR commit-reveal scheme
// [Backes et al., NDSS'09] restricted to k legitimate nodes instead of
// C+1 arbitrary ones:
//
//   1. T contacts k legitimate nodes TL_1..TL_k w.r.t. R1.
//   2. Each TL_i commits: sends hash(RND_i).
//   3. T broadcasts the commitment list L.
//   4. Each TL_i checks its commitment is in L, then reveals RND_i and
//      signs (L, timestamp).
//   5. RND_T = RND_1 xor ... xor RND_k.
//
// A coalition of k-1 colluding TLs cannot steer RND_T: their values are
// fixed by the commitments before any reveal, so the single honest
// participant's uniform RND_i makes the XOR uniform.

#ifndef SEP2P_CORE_VRAND_H_
#define SEP2P_CORE_VRAND_H_

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "core/attack_hooks.h"
#include "core/context.h"
#include "core/wire_format.h"
#include "crypto/hash256.h"
#include "net/cost.h"
#include "net/sim_network.h"
#include "net/transport.h"
#include "util/rng.h"

namespace sep2p::core {

struct VrandParticipant {
  crypto::Certificate cert;  // proves the TL is a genuine PDMS (and its id)
  crypto::Hash256 rnd;       // revealed random contribution
  crypto::Signature sig;     // over (L, timestamp)

  static constexpr auto kFields = std::tuple(
      &VrandParticipant::cert, &VrandParticipant::rnd, &VrandParticipant::sig);
};

// The §3.4 artifact. The CSAR baseline (core/csar.h) produces the same
// artifact with rs1 = 0, its participants drawn from the whole network.
struct VerifiableRandom {
  crypto::Certificate cert_t;  // identifies T; fixes the center of R1
  uint64_t timestamp = 0;
  double rs1 = 0;              // region size used (from the k-table)
  std::vector<VrandParticipant> participants;  // exactly k

  int k() const { return static_cast<int>(participants.size()); }

  // RND_T = xor of all revealed contributions.
  crypto::Hash256 Value() const;

  // The commitment list L = hash(RND_1)..hash(RND_k) plus the timestamp
  // (SignedBytesFromList, core/protocol_service.h): what every
  // participant signs.
  std::vector<uint8_t> SignedBytes() const;

  // Wire tag and field order (core/wire.h).
  static constexpr uint8_t kTag = 0x01;
  static constexpr auto kFields = std::tuple(
      &VerifiableRandom::cert_t, &VerifiableRandom::timestamp,
      &VerifiableRandom::rs1,
      wire::Count{&VerifiableRandom::participants, 1, wire::kMaxParticipants});
};

class VrandProtocol {
 public:
  explicit VrandProtocol(const ProtocolContext& ctx) : ctx_(ctx) {}

  struct Outcome {
    VerifiableRandom vrnd;
    std::vector<uint32_t> tl_indices;  // simulator view of the TLs
    net::Cost cost;                    // generation cost, incl. T's check
  };

  // Runs the protocol with T = `trigger_index`. `rng` drives both the TL
  // choice and the TLs' random contributions. The T→TL commit/reveal
  // rounds travel as typed messages (core/messages.h) over `network` —
  // simulated (net::SimNetwork) or real sockets (net::TcpTransport) —
  // with per-RPC timeout/retry/backoff: a TL that exhausts the retry
  // budget during engagement is declared failed and replaced by a spare
  // R1 candidate; only an unreachable quorum (or a TL lost after its
  // commitment is fixed) aborts with kUnavailable, and the caller
  // restarts with a fresh RND_T, as in the paper. A null `network` runs
  // on ideal_transport(). Observers come from the transport
  // (set_trace/set_metrics).
  //
  // A non-null `attack` installs malicious participant behaviour in the
  // reveal round (core/attack_hooks.h): colluding TLs may withhold
  // their reveal after seeing the committed outcome (CSAR grinding).
  // With the default nullptr every TL behaves honestly.
  Result<Outcome> Generate(uint32_t trigger_index, util::Rng& rng,
                           net::Transport* network = nullptr,
                           AttackHooks* attack = nullptr) const;

  // The in-process ideal link (net::kIdealLink) over every directory
  // node, created on first use and kept for this object's lifetime.
  // Not thread-safe: parallel callers need one protocol object each.
  net::Transport& ideal_transport() const;

 private:
  const ProtocolContext& ctx_;
  mutable std::unique_ptr<net::SimNetwork> ideal_;
};

// Checks a VerifiableRandom end to end: T's certificate, k distinct TLs'
// certificates, each TL's legitimacy w.r.t. R1 (center = hash of T's
// key, size = rs1), each signature over (L, ts), and timestamp freshness.
// On success returns the verification cost: 2k+1 asymmetric operations
// (1 cert_T + k TL certs + k signatures). A non-null `metrics` tallies
// each asymmetric op as crypto_verify (passive).
Result<net::Cost> VerifyVrand(const ProtocolContext& ctx,
                              const VerifiableRandom& vrnd,
                              obs::MetricsRegistry* metrics = nullptr);

}  // namespace sep2p::core

#endif  // SEP2P_CORE_VRAND_H_
