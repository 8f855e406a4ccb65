// Server-side protocol behaviour shared between the two transports.
//
// The selection protocol's remote participants (TLs, SLs, attestors)
// answer requests. In a single-process run — any net::SimNetwork,
// including the ideal link a protocol object uses when its caller
// brings no transport — those answers come from per-call closures
// inside vrand.cc/selection.cc, which capture the driver's state (its
// Rng, its precomputed R3 scan, its attack hooks). Under
// net::TcpTransport the participant lives in ANOTHER PROCESS: requests
// arrive through the registered dispatch table with no driver closure
// in sight. To run the identical protocol logic on both paths, the
// closure BODIES live here as free helpers — the closures call them
// with driver-local state, and the resident ProtocolService calls them
// with per-process state keyed by the engagement nonce carried in v2
// messages. Only the closures read a participant's state: the driver
// works from the replies alone (an SL's reveal, not its SlState), so a
// sim run and a TCP run differ only in who answers.
//
// Invariant: a helper never draws randomness or advances a clock
// itself; the caller supplies the Rng and the timestamp, so a sim run's
// draw order and message bytes depend only on the driver.

#ifndef SEP2P_CORE_PROTOCOL_SERVICE_H_
#define SEP2P_CORE_PROTOCOL_SERVICE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "core/context.h"
#include "core/messages.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace sep2p::core {

// ---------------------------------------------------------------------
// Shared helpers: one per server-side protocol step. Each returns the
// encoded reply (or nullopt = refuse), exactly as the closures did.
// ---------------------------------------------------------------------

// The bytes every TL signs (§3.4 step 4), from a commitment list as
// RECEIVED off the wire: the concatenated commitments, then the
// big-endian timestamp. The only writer of this layout:
// VerifiableRandom::SignedBytes() (and so the CSAR baseline's) rebuilds
// the list from the reveals and calls it, so an honest engagement
// yields the same bytes on both sides, while a remote TL, which holds
// only the list, signs this reconstruction.
std::vector<uint8_t> SignedBytesFromList(const msg::CommitList& list);

// TL steps 1-2: commit to a drawn contribution.
std::vector<uint8_t> TlCommitReply(const crypto::Hash256& rnd);

// TL steps 3-4: check own commitment is in L, reveal RND_i and sign
// (L, ts). Refuses when the commitment is missing or signing fails.
std::optional<std::vector<uint8_t>> TlRevealReply(
    const ProtocolContext& ctx, obs::MetricsRegistry* met, uint32_t server,
    const crypto::Hash256& rnd, const msg::CommitList& list);

// The SL commitment of §3.5 step 5: H(RND_j || CL_j keys). It binds
// both values, so neither can change after the commitment list L1 is
// broadcast; the setter recomputes it over every reveal (step 8).
crypto::Hash256 SlCommitment(const crypto::Hash256& rnd,
                             const std::vector<crypto::PublicKey>& keys);

// Per-SL engagement state (§3.5 steps 3-7): CL_j = the part of the SL's
// node cache legitimate w.r.t. R3, RND_j, and the commitment binding
// both. Computed once per engagement; handlers are idempotent, so a
// retransmitted request must see the same answer it saw the first time.
struct SlState {
  std::vector<crypto::PublicKey> cl_keys;
  crypto::Hash256 rnd;
  crypto::Hash256 commitment;
};

// Builds an SL's engagement state: intersect `r3_nodes` with the SL's
// cache coverage (CL_j keeps the scan order), draw RND_j from `rng`, and
// commit to (RND_j, CL_j).
// With `hide_honest` an SL in ctx.colluders applies the covert
// deviation of §3.5 and reports only colluding entries (AttackHooks::
// SlBiasesCandidates decides it per SL); honest SLs ignore the flag.
SlState BuildSlState(const ProtocolContext& ctx, uint32_t sl_index,
                     const std::vector<uint32_t>& r3_nodes, bool hide_honest,
                     util::Rng& rng);

// SL steps 6-7: check own commitment is in L1, reveal (RND_j, CL_j).
std::optional<std::vector<uint8_t>> SlRevealReply(const SlState& state,
                                                  const msg::CommitList& list);

// Attestation (VAL, shortage, or join cache): sign `digest`, the
// SHA-256 of the attested bytes that the AttestRequest names, as
// `server` and return the certificate + signature. Every verifier
// hashes the attested bytes once and checks all k signatures against
// that digest.
std::optional<std::vector<uint8_t>> AttestReply(
    const ProtocolContext& ctx, obs::MetricsRegistry* met, uint32_t server,
    const crypto::Hash256& digest);

// ---------------------------------------------------------------------
// ProtocolService: the resident participant for cross-process runs.
// ---------------------------------------------------------------------
//
// Registers handlers for the selection-protocol tags (0x10-0x17) on a
// Transport. Per-engagement state (a TL's drawn RND_i, an SL's
// SlState) is keyed by (nonce, node): the driver stamps every remote
// engagement with Transport::NewEngagementNonce(), so concurrent
// selections never share state and retransmits are idempotent. The
// shared kTagCommitList reveal request is disambiguated by which map
// the nonce lands in.
//
// Handlers run under the transport's dispatch serialization (one at a
// time), so the maps and the Rng need no locking of their own.
// Sessions are retained for the process lifetime — fine for cluster
// demos and tests; a production daemon would expire them.
class ProtocolService {
 public:
  struct Options {
    // Seeds the resident participants' contribution draws. Remote RNDs
    // need no global determinism, but distinct processes should draw
    // distinct values.
    uint64_t rng_seed = 1;
  };

  // Registers the handlers on `transport`. Both referents must outlive
  // the service; the service must outlive the transport's traffic.
  ProtocolService(const ProtocolContext& ctx, net::Transport& transport,
                  const Options& options);
  ProtocolService(const ProtocolContext& ctx, net::Transport& transport)
      : ProtocolService(ctx, transport, Options()) {}

 private:
  std::optional<std::vector<uint8_t>> OnVrandInvite(
      uint32_t server, const std::vector<uint8_t>& request);
  std::optional<std::vector<uint8_t>> OnCommitList(
      uint32_t server, const std::vector<uint8_t>& request);
  std::optional<std::vector<uint8_t>> OnSlEngage(
      uint32_t server, const std::vector<uint8_t>& request);
  std::optional<std::vector<uint8_t>> OnAttestRequest(
      uint32_t server, const std::vector<uint8_t>& request);

  const ProtocolContext& ctx_;
  net::Transport& transport_;
  util::Rng rng_;

  // (engagement nonce, node index) -> per-engagement state.
  std::map<std::pair<uint64_t, uint32_t>, crypto::Hash256> tl_rnd_;
  std::map<std::pair<uint64_t, uint32_t>, SlState> sl_state_;
};

}  // namespace sep2p::core

#endif  // SEP2P_CORE_PROTOCOL_SERVICE_H_
