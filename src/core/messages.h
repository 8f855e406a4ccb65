// Typed protocol messages for the simulated message network.
//
// The selection protocol's remote steps — T→TL commit/reveal for RND_T
// (§3.4) and S→SL engagement, commit/reveal over (RND_j, CL_j) and
// attestation collection (§3.5) — travel over net::SimNetwork as the
// byte payloads defined here, as does every application-layer exchange
// of the three use cases (§5.1–§5.3): sealed sensing tuples,
// concept-index publish/lookup share delivery, proxy-forwarded
// contributions, and partial/merged aggregates. Encoding reuses the
// canonical wire primitives of core/wire_format.h (big-endian,
// length-prefixed, hard-capped), with the same magic as the artifact
// codecs and a distinct tag per message type; decoding is strict and
// rejects truncation, trailing bytes, wrong tags and absurd counts
// before any cryptographic processing.

#ifndef SEP2P_CORE_MESSAGES_H_
#define SEP2P_CORE_MESSAGES_H_

#include <cstdint>
#include <vector>

#include "crypto/certificate.h"
#include "crypto/hash256.h"
#include "crypto/sealed.h"
#include "crypto/shamir.h"
#include "util/status.h"

namespace sep2p::core::msg {

// ---------------------------------------------------------------------
// Selection-protocol messages (§3.4–§3.6). Their tags are public since
// the transport refactor: a remote process routes incoming frames
// through the registered dispatch table (core/protocol_service.h), so
// the tags are part of the wire contract rather than private codec
// detail. Tags live above the stored-artifact tags (0x01/0x02 in
// core/wire.cc) so a message can never be confused with an artifact.
//
// Wire-contract versioning (DESIGN.md §14): several messages gained
// fields for cross-process runs — the engagement `nonce` scoping
// server-side protocol state, and the AttestRequest `preimage` letting
// a remote SL check the digest it signs. A message whose new fields hold
// their defaults (nonce 0 / empty preimage) encodes as version 1,
// byte-identical to the pre-refactor wire; only non-default values
// produce version 2. Decoders accept both and default the fields for
// version-1 input. This is the versioning rule for all future
// evolution: new fields are appended, defaults encode as the oldest
// version that can carry the message, decoders never reject a version
// they can represent.
// ---------------------------------------------------------------------

inline constexpr uint8_t kTagVrandInvite = 0x10;
inline constexpr uint8_t kTagCommitReply = 0x11;
inline constexpr uint8_t kTagCommitList = 0x12;
inline constexpr uint8_t kTagVrandReveal = 0x13;
inline constexpr uint8_t kTagSlEngage = 0x14;
inline constexpr uint8_t kTagSlReveal = 0x15;
inline constexpr uint8_t kTagAttestRequest = 0x16;
inline constexpr uint8_t kTagAttestation = 0x17;

// T → TL: engage as a trusted participant of R1 (size rs1) and commit
// to a random contribution.
struct VrandInvite {
  double rs1 = 0;
  uint64_t timestamp = 0;
  // Scopes the TL's per-engagement state in remote runs (v2; 0 = v1).
  uint64_t nonce = 0;
};

// TL → T and SL → S: commitment hash over the participant's secret.
struct CommitReply {
  crypto::Hash256 commitment;
};

// T → TL (L) and S → SL (L1): the full commitment list; receiving it
// proves the sender fixed every commitment before any reveal.
struct CommitList {
  std::vector<crypto::Hash256> commitments;
  uint64_t timestamp = 0;
  // Ties the reveal broadcast back to the engagement whose commitments
  // these are (v2; 0 = v1). The tag is shared by the TL-reveal and
  // SL-reveal phases — a resident server disambiguates by nonce lookup.
  uint64_t nonce = 0;
};

// TL → T: revealed contribution plus the signature over (L, ts).
struct VrandReveal {
  crypto::Hash256 rnd;
  crypto::Signature sig;
};

// S → SL: engage w.r.t. R2 around `point`; carries the wire-encoded
// VerifiableRandom so the SL can verify RND_T independently.
struct SlEngage {
  std::vector<uint8_t> vrnd;  // wire::EncodeVerifiableRandom bytes
  crypto::Hash256 point;
  // Scopes the SL's per-engagement state in remote runs (v2; 0 = v1).
  uint64_t nonce = 0;
};

// SL → S: revealed (RND_j, CL_j) — the SL's random plus the part of its
// node cache legitimate w.r.t. R3 centered on the setter point.
struct SlReveal {
  crypto::Hash256 rnd;
  std::vector<crypto::PublicKey> candidates;
};

// S → SL (and a joining node's neighbour → its attestors): request the
// signature over `digest`, the SHA-256 of the attested bytes (the VAL's
// SignedBytes, the shortage bytes when R3 is underpopulated, or the
// AttestedCache's SignedBytes). The attestor signs these 32 bytes and
// nothing else, so a verifier hashes the attested bytes once for all k
// signatures.
struct AttestRequest {
  crypto::Hash256 digest;
  // The bytes being attested (v2; empty = v1). A resident SL refuses to
  // sign a bare digest: it recomputes H(preimage), checks it against
  // `digest`, and only then signs the digest — closer to the paper's
  // model where the SL sees the VAL it attests. In-process runs send
  // v1 bytes; their handler closures sign the decoded digest.
  std::vector<uint8_t> preimage;
};

// SL → S: the SL's certificate plus its signature.
struct Attestation {
  crypto::Certificate cert;
  crypto::Signature sig;
};

std::vector<uint8_t> Encode(const VrandInvite& m);
std::vector<uint8_t> Encode(const CommitReply& m);
std::vector<uint8_t> Encode(const CommitList& m);
std::vector<uint8_t> Encode(const VrandReveal& m);
std::vector<uint8_t> Encode(const SlEngage& m);
std::vector<uint8_t> Encode(const SlReveal& m);
std::vector<uint8_t> Encode(const AttestRequest& m);
std::vector<uint8_t> Encode(const Attestation& m);

Result<VrandInvite> DecodeVrandInvite(const std::vector<uint8_t>& bytes);
Result<CommitReply> DecodeCommitReply(const std::vector<uint8_t>& bytes);
Result<CommitList> DecodeCommitList(const std::vector<uint8_t>& bytes);
Result<VrandReveal> DecodeVrandReveal(const std::vector<uint8_t>& bytes);
Result<SlEngage> DecodeSlEngage(const std::vector<uint8_t>& bytes);
Result<SlReveal> DecodeSlReveal(const std::vector<uint8_t>& bytes);
Result<AttestRequest> DecodeAttestRequest(const std::vector<uint8_t>& bytes);
Result<Attestation> DecodeAttestation(const std::vector<uint8_t>& bytes);

// ---------------------------------------------------------------------
// Application-layer messages (use cases §5.1–§5.3), dispatched on the
// tag byte through the transport's registered handlers. Tags >= 0x20 so
// they can never collide with the selection messages (0x10–0x17) or the
// stored-artifact tags (0x01/0x02).
// ---------------------------------------------------------------------

inline constexpr uint8_t kTagAppAck = 0x20;
inline constexpr uint8_t kTagSensingContribution = 0x21;
inline constexpr uint8_t kTagSensingPartial = 0x22;
inline constexpr uint8_t kTagConceptStore = 0x23;
inline constexpr uint8_t kTagConceptQuery = 0x24;
inline constexpr uint8_t kTagConceptShares = 0x25;
inline constexpr uint8_t kTagProxyRelay = 0x26;
inline constexpr uint8_t kTagSealedDelivery = 0x27;
inline constexpr uint8_t kTagDiffusionOffer = 0x28;
inline constexpr uint8_t kTagDiffusionAccept = 0x29;
inline constexpr uint8_t kTagQueryAnswer = 0x2a;
inline constexpr uint8_t kTagQueryDeploy = 0x2b;
inline constexpr uint8_t kTagQueryFlush = 0x2c;

// Slot sentinel: a SensingPartial / QueryAnswer carrying this da_slot is
// the merged result published to the trigger/querier, not a per-DA
// partial to be merged.
inline constexpr uint32_t kMergedSlot = 0xffffffffu;

// Generic application acknowledgement (empty payload).
struct AppAck {};

// Source → DA: one anonymized (cell, value) sensing tuple, the value
// sealed to the DA's public key. `contribution_id` lets the DA
// deduplicate retransmissions (handlers are idempotent by contract).
struct SensingContribution {
  uint64_t contribution_id = 0;
  uint32_t cell = 0;
  crypto::SealedMessage sealed;
};

// DA → MDA: per-cell partial sums/counts for the DA's slot; also
// MDA → trigger with da_slot = kMergedSlot for the merged publication.
struct SensingPartial {
  uint32_t da_slot = 0;
  uint16_t grid = 0;
  std::vector<double> sums;     // grid*grid cells
  std::vector<uint64_t> counts;  // grid*grid cells
};

// Publisher → MI: store one Shamir share of a posting. All shares of
// one posting carry the same `posting_id`, which both deduplicates
// retransmissions and lets Lookup re-align share lists when some shares
// were lost in transit.
struct ConceptStore {
  uint64_t posting_id = 0;
  std::vector<uint8_t> share_key;  // "concept#i"
  uint8_t share_x = 0;
  std::vector<uint8_t> share_data;
};

// TF → MI: request every stored share under `share_key`.
struct ConceptQuery {
  std::vector<uint8_t> share_key;
};

// MI → TF: the stored shares, tagged with their posting ids.
struct ConceptShares {
  std::vector<uint64_t> posting_ids;        // aligned with `shares`
  std::vector<crypto::SecretShare> shares;
};

// Sender → proxy: relay `sealed` to directory node `recipient_index`.
// The proxy sees the sender and the recipient index but only ciphertext.
struct ProxyRelay {
  uint64_t contribution_id = 0;
  uint32_t recipient_index = 0;
  crypto::SealedMessage sealed;
};

// Proxy → recipient (or last chain relay → recipient): the sealed
// payload without the sender's identity.
struct SealedDelivery {
  uint64_t contribution_id = 0;
  crypto::SealedMessage sealed;
};

// TF → candidate: the diffusion payload plus the profile expression; the
// candidate evaluates the expression against its own (local) concepts
// and consents by accepting.
struct DiffusionOffer {
  uint64_t offer_id = 0;
  std::vector<uint8_t> expression;  // ProfileExpression text
  std::vector<uint8_t> message;     // payload delivered on match
};

// Candidate → TF: whether the candidate matched (and kept the message).
struct DiffusionAccept {
  uint8_t accepted = 0;
};

// DA → MDA: per-slot aggregate statistics; also MDA → querier with
// da_slot = kMergedSlot for the final answer.
struct QueryAnswer {
  uint32_t da_slot = 0;
  uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
};

// Querier → aggregators ∪ querier (remote runs only): install the
// round's aggregation state. Carries the verified actor list so every
// receiving process can check the deployment against the selection
// before accepting the role (apps/query.cc verifies the VAL, derives
// the slot mapping from the actor order, and installs its per-node
// handlers). Deduplicated by `round_id`.
struct QueryDeploy {
  uint64_t round_id = 0;
  uint32_t querier = 0;
  std::vector<uint8_t> val;  // wire::EncodeActorList bytes
};

// Querier → DA / MDA (remote runs only): report the aggregate for
// `da_slot` (kMergedSlot asks the MDA for the merged result). The reply
// is the corresponding QueryAnswer.
struct QueryFlush {
  uint64_t round_id = 0;
  uint32_t da_slot = 0;
};

std::vector<uint8_t> Encode(const AppAck& m);
std::vector<uint8_t> Encode(const SensingContribution& m);
std::vector<uint8_t> Encode(const SensingPartial& m);
std::vector<uint8_t> Encode(const ConceptStore& m);
std::vector<uint8_t> Encode(const ConceptQuery& m);
std::vector<uint8_t> Encode(const ConceptShares& m);
std::vector<uint8_t> Encode(const ProxyRelay& m);
std::vector<uint8_t> Encode(const SealedDelivery& m);
std::vector<uint8_t> Encode(const DiffusionOffer& m);
std::vector<uint8_t> Encode(const DiffusionAccept& m);
std::vector<uint8_t> Encode(const QueryAnswer& m);
std::vector<uint8_t> Encode(const QueryDeploy& m);
std::vector<uint8_t> Encode(const QueryFlush& m);

Result<AppAck> DecodeAppAck(const std::vector<uint8_t>& bytes);
Result<SensingContribution> DecodeSensingContribution(
    const std::vector<uint8_t>& bytes);
Result<SensingPartial> DecodeSensingPartial(const std::vector<uint8_t>& bytes);
Result<ConceptStore> DecodeConceptStore(const std::vector<uint8_t>& bytes);
Result<ConceptQuery> DecodeConceptQuery(const std::vector<uint8_t>& bytes);
Result<ConceptShares> DecodeConceptShares(const std::vector<uint8_t>& bytes);
Result<ProxyRelay> DecodeProxyRelay(const std::vector<uint8_t>& bytes);
Result<SealedDelivery> DecodeSealedDelivery(const std::vector<uint8_t>& bytes);
Result<DiffusionOffer> DecodeDiffusionOffer(const std::vector<uint8_t>& bytes);
Result<DiffusionAccept> DecodeDiffusionAccept(
    const std::vector<uint8_t>& bytes);
Result<QueryAnswer> DecodeQueryAnswer(const std::vector<uint8_t>& bytes);
Result<QueryDeploy> DecodeQueryDeploy(const std::vector<uint8_t>& bytes);
Result<QueryFlush> DecodeQueryFlush(const std::vector<uint8_t>& bytes);

// Validates the message magic and returns the tag byte without decoding
// the body — the dispatch key for node::AppRuntime handlers.
Result<uint8_t> PeekTag(const std::vector<uint8_t>& bytes);

}  // namespace sep2p::core::msg

#endif  // SEP2P_CORE_MESSAGES_H_
