// Typed protocol messages for the simulated message network.
//
// The selection protocol's remote steps — T→TL commit/reveal for RND_T
// (§3.4) and S→SL engagement, commit/reveal over (RND_j, CL_j) and
// attestation collection (§3.5) — travel over net::SimNetwork as the
// byte payloads defined here, as does every application-layer exchange
// of the three use cases (§5.1–§5.3): sealed sensing tuples,
// concept-index publish/lookup share delivery, proxy-forwarded
// contributions, and partial/merged aggregates.
//
// Each message declares its tag and its fields in wire order (kTag,
// kFields, and kAppended for fields added later) and nothing else: the
// one codec of core/wire_format.h writes and strictly reads every one
// of them, with the same magic as the artifact codecs. msg::Encode(m)
// and msg::Decode<T>(bytes) are its entry points.

#ifndef SEP2P_CORE_MESSAGES_H_
#define SEP2P_CORE_MESSAGES_H_

#include <cstdint>
#include <cstring>
#include <tuple>
#include <vector>

#include "core/wire_format.h"
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
// detail. Tags live above the artifact tags (0x01/0x02, core/wire.h) so
// a message can never be confused with an artifact.
//
// Four messages gained fields for cross-process runs, declared as
// kAppended: the engagement `nonce` scoping server-side protocol state,
// and the AttestRequest `preimage` letting a remote SL check the digest
// it signs. They follow the versioning rule of core/wire_format.h: at
// their defaults (nonce 0, empty preimage) a message encodes as version
// 1, byte for byte the wire before the fields existed.
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
  // Scopes the TL's per-engagement state in remote runs (appended).
  uint64_t nonce = 0;

  static constexpr uint8_t kTag = kTagVrandInvite;
  static constexpr auto kFields =
      std::tuple(&VrandInvite::rs1, &VrandInvite::timestamp);
  static constexpr auto kAppended = std::tuple(&VrandInvite::nonce);
};

// TL → T and SL → S: commitment hash over the participant's secret.
struct CommitReply {
  crypto::Hash256 commitment;

  static constexpr uint8_t kTag = kTagCommitReply;
  static constexpr auto kFields = std::tuple(&CommitReply::commitment);
};

// T → TL (L) and S → SL (L1): the full commitment list; receiving it
// proves the sender fixed every commitment before any reveal.
struct CommitList {
  std::vector<crypto::Hash256> commitments;
  uint64_t timestamp = 0;
  // Ties the reveal broadcast back to the engagement whose commitments
  // these are (appended). The tag is shared by the TL-reveal and
  // SL-reveal phases — a resident server disambiguates by nonce lookup.
  uint64_t nonce = 0;

  static constexpr uint8_t kTag = kTagCommitList;
  static constexpr auto kFields = std::tuple(
      wire::Count{&CommitList::commitments, 1, wire::kMaxParticipants},
      &CommitList::timestamp);
  static constexpr auto kAppended = std::tuple(&CommitList::nonce);
};

// TL → T: revealed contribution plus the signature over (L, ts).
struct VrandReveal {
  crypto::Hash256 rnd;
  crypto::Signature sig;

  static constexpr uint8_t kTag = kTagVrandReveal;
  static constexpr auto kFields =
      std::tuple(&VrandReveal::rnd, &VrandReveal::sig);
};

// S → SL: engage w.r.t. R2 around `point`; carries the wire-encoded
// VerifiableRandom so the SL can verify RND_T independently.
struct SlEngage {
  std::vector<uint8_t> vrnd;  // wire::EncodeVerifiableRandom bytes
  crypto::Hash256 point;
  // Scopes the SL's per-engagement state in remote runs (appended).
  uint64_t nonce = 0;

  static constexpr uint8_t kTag = kTagSlEngage;
  static constexpr auto kFields =
      std::tuple(&SlEngage::vrnd, &SlEngage::point);
  static constexpr auto kAppended = std::tuple(&SlEngage::nonce);
};

// SL → S: revealed (RND_j, CL_j) — the SL's random plus the part of its
// node cache legitimate w.r.t. R3 centered on the setter point.
struct SlReveal {
  crypto::Hash256 rnd;
  std::vector<crypto::PublicKey> candidates;

  // Hundreds of keys: a list of fixed-size keys crosses the codec as one
  // bulk copy each way.
  static constexpr uint8_t kTag = kTagSlReveal;
  static constexpr auto kFields = std::tuple(
      &SlReveal::rnd, wire::Count{&SlReveal::candidates, 0, wire::kMaxActors});
};

// S → SL (and a joining node's neighbour → its attestors): request the
// signature over `digest`, the SHA-256 of the attested bytes (the VAL's
// SignedBytes, the shortage bytes when R3 is underpopulated, or the
// AttestedCache's SignedBytes). The attestor signs these 32 bytes and
// nothing else, so a verifier hashes the attested bytes once for all k
// signatures.
struct AttestRequest {
  crypto::Hash256 digest;
  // The bytes being attested (appended). A resident SL refuses to
  // sign a bare digest: it recomputes H(preimage), checks it against
  // `digest`, and only then signs the digest — closer to the paper's
  // model where the SL sees the VAL it attests. In-process runs send
  // v1 bytes; their handler closures sign the decoded digest.
  std::vector<uint8_t> preimage;

  static constexpr uint8_t kTag = kTagAttestRequest;
  static constexpr auto kFields = std::tuple(&AttestRequest::digest);
  static constexpr auto kAppended = std::tuple(&AttestRequest::preimage);
};

// SL → S: the SL's certificate plus its signature.
struct Attestation {
  crypto::Certificate cert;
  crypto::Signature sig;

  static constexpr uint8_t kTag = kTagAttestation;
  static constexpr auto kFields =
      std::tuple(&Attestation::cert, &Attestation::sig);
};

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
struct AppAck {
  static constexpr uint8_t kTag = kTagAppAck;
  static constexpr std::tuple<> kFields{};
};

// Source → DA: one anonymized (cell, value) sensing tuple, the value
// sealed to the DA's public key. `contribution_id` lets the DA
// deduplicate retransmissions (handlers are idempotent by contract).
struct SensingContribution {
  uint64_t contribution_id = 0;
  uint32_t cell = 0;
  crypto::SealedMessage sealed;

  static constexpr uint8_t kTag = kTagSensingContribution;
  static constexpr auto kFields =
      std::tuple(&SensingContribution::contribution_id,
                 &SensingContribution::cell, &SensingContribution::sealed);
};

// DA → MDA: per-cell partial sums/counts for the DA's slot; also
// MDA → trigger with da_slot = kMergedSlot for the merged publication.
struct SensingPartial {
  uint32_t da_slot = 0;
  uint16_t grid = 0;
  std::vector<double> sums;     // grid*grid cells
  std::vector<uint64_t> counts;  // grid*grid cells

  static constexpr uint8_t kTag = kTagSensingPartial;
  static constexpr auto kFields = std::tuple(
      &SensingPartial::da_slot, &SensingPartial::grid,
      wire::Count{&SensingPartial::sums, 0, wire::kMaxParticipants},
      wire::CountLike{&SensingPartial::counts, &SensingPartial::sums});
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

  static constexpr uint8_t kTag = kTagConceptStore;
  static constexpr auto kFields =
      std::tuple(&ConceptStore::posting_id, &ConceptStore::share_key,
                 &ConceptStore::share_x, &ConceptStore::share_data);
};

// TF → MI: request every stored share under `share_key`.
struct ConceptQuery {
  std::vector<uint8_t> share_key;

  static constexpr uint8_t kTag = kTagConceptQuery;
  static constexpr auto kFields = std::tuple(&ConceptQuery::share_key);
};

// MI → TF: the stored shares, each tagged with its posting id.
struct ConceptShares {
  struct Row {
    uint64_t posting_id = 0;
    crypto::SecretShare share;

    static constexpr auto kFields = std::tuple(&Row::posting_id, &Row::share);
  };
  std::vector<Row> rows;

  static constexpr uint8_t kTag = kTagConceptShares;
  static constexpr auto kFields =
      std::tuple(wire::Count{&ConceptShares::rows, 0, wire::kMaxActors});
};

// Sender → proxy: relay `sealed` to directory node `recipient_index`.
// The proxy sees the sender and the recipient index but only ciphertext.
struct ProxyRelay {
  uint64_t contribution_id = 0;
  uint32_t recipient_index = 0;
  crypto::SealedMessage sealed;

  static constexpr uint8_t kTag = kTagProxyRelay;
  static constexpr auto kFields =
      std::tuple(&ProxyRelay::contribution_id, &ProxyRelay::recipient_index,
                 &ProxyRelay::sealed);
};

// Proxy → recipient (or last chain relay → recipient): the sealed
// payload without the sender's identity.
struct SealedDelivery {
  uint64_t contribution_id = 0;
  crypto::SealedMessage sealed;

  static constexpr uint8_t kTag = kTagSealedDelivery;
  static constexpr auto kFields =
      std::tuple(&SealedDelivery::contribution_id, &SealedDelivery::sealed);
};

// TF → candidate: the diffusion payload plus the profile expression; the
// candidate evaluates the expression against its own (local) concepts
// and consents by accepting.
struct DiffusionOffer {
  uint64_t offer_id = 0;
  std::vector<uint8_t> expression;  // ProfileExpression text
  std::vector<uint8_t> message;     // payload delivered on match

  static constexpr uint8_t kTag = kTagDiffusionOffer;
  static constexpr auto kFields =
      std::tuple(&DiffusionOffer::offer_id, &DiffusionOffer::expression,
                 &DiffusionOffer::message);
};

// Candidate → TF: whether the candidate matched (and kept the message).
struct DiffusionAccept {
  uint8_t accepted = 0;

  static constexpr uint8_t kTag = kTagDiffusionAccept;
  static constexpr auto kFields = std::tuple(&DiffusionAccept::accepted);
};

// DA → MDA: per-slot aggregate statistics; also MDA → querier with
// da_slot = kMergedSlot for the final answer.
struct QueryAnswer {
  uint32_t da_slot = 0;
  uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;

  static constexpr uint8_t kTag = kTagQueryAnswer;
  static constexpr auto kFields =
      std::tuple(&QueryAnswer::da_slot, &QueryAnswer::count, &QueryAnswer::sum,
                 &QueryAnswer::min, &QueryAnswer::max);
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

  static constexpr uint8_t kTag = kTagQueryDeploy;
  static constexpr auto kFields = std::tuple(
      &QueryDeploy::round_id, &QueryDeploy::querier, &QueryDeploy::val);
};

// Querier → DA / MDA (remote runs only): report the aggregate for
// `da_slot` (kMergedSlot asks the MDA for the merged result). The reply
// is the corresponding QueryAnswer.
struct QueryFlush {
  uint64_t round_id = 0;
  uint32_t da_slot = 0;

  static constexpr uint8_t kTag = kTagQueryFlush;
  static constexpr auto kFields =
      std::tuple(&QueryFlush::round_id, &QueryFlush::da_slot);
};

// msg::Encode(m) and msg::Decode<T>(bytes): the codec of
// core/wire_format.h.
using wire::Decode;
using wire::Encode;

// Validates the message magic and returns the tag byte without decoding
// the body — the dispatch key for node::AppRuntime handlers.
inline Result<uint8_t> PeekTag(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < sizeof(wire::kMagic) + 1 ||
      std::memcmp(bytes.data(), wire::kMagic, sizeof(wire::kMagic)) != 0) {
    return Status::InvalidArgument("msg: bad magic");
  }
  return bytes[sizeof(wire::kMagic)];
}

}  // namespace sep2p::core::msg

#endif  // SEP2P_CORE_MESSAGES_H_
