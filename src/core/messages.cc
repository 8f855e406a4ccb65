#include "core/messages.h"

#include <algorithm>

#include "core/wire_format.h"

namespace sep2p::core::msg {

namespace {

using wire::Reader;
using wire::Writer;

constexpr uint8_t kMagic0 = 'S';
constexpr uint8_t kMagic1 = '2';
constexpr uint8_t kMagic2 = 'P';
constexpr uint16_t kVersion = 1;
constexpr uint16_t kVersion2 = 2;
// Magic (3) + tag (1) + version (2).
constexpr size_t kHeaderBytes = 6;

void WriteHeader(Writer& writer, uint8_t tag, uint16_t version = kVersion) {
  writer.U8(kMagic0);
  writer.U8(kMagic1);
  writer.U8(kMagic2);
  writer.U8(tag);
  writer.U16(version);
}

// Versioned messages pass `version_out` and accept 1..2; every other
// message keeps the strict version-1 check (a version-2 body of a
// message that never grew fields is undefined, so it is rejected).
Status CheckHeader(Reader& reader, uint8_t expected_tag,
                   uint16_t* version_out = nullptr) {
  uint8_t m0, m1, m2, tag;
  SEP2P_RETURN_IF_ERROR(reader.U8(&m0));
  SEP2P_RETURN_IF_ERROR(reader.U8(&m1));
  SEP2P_RETURN_IF_ERROR(reader.U8(&m2));
  SEP2P_RETURN_IF_ERROR(reader.U8(&tag));
  if (m0 != kMagic0 || m1 != kMagic1 || m2 != kMagic2) {
    return Status::InvalidArgument("msg: bad magic");
  }
  if (tag != expected_tag) {
    return Status::InvalidArgument("msg: wrong message tag");
  }
  uint16_t version = 0;
  SEP2P_RETURN_IF_ERROR(reader.U16(&version));
  if (version_out != nullptr) {
    if (version != kVersion && version != kVersion2) {
      return Status::InvalidArgument("msg: unsupported version");
    }
    *version_out = version;
    return Status::Ok();
  }
  if (version != kVersion) {
    return Status::InvalidArgument("msg: unsupported version");
  }
  return Status::Ok();
}

}  // namespace

std::vector<uint8_t> Encode(const VrandInvite& m) {
  Writer writer;
  // Default nonce encodes as version 1 — byte-identical to the
  // pre-refactor wire (same rule for every versioned message below).
  WriteHeader(writer, kTagVrandInvite, m.nonce == 0 ? kVersion : kVersion2);
  writer.F64(m.rs1);
  writer.U64(m.timestamp);
  if (m.nonce != 0) writer.U64(m.nonce);
  return writer.Take();
}

Result<VrandInvite> DecodeVrandInvite(const std::vector<uint8_t>& bytes) {
  Reader reader(bytes);
  uint16_t version = 0;
  SEP2P_RETURN_IF_ERROR(CheckHeader(reader, kTagVrandInvite, &version));
  VrandInvite m;
  SEP2P_RETURN_IF_ERROR(reader.F64(&m.rs1));
  SEP2P_RETURN_IF_ERROR(reader.U64(&m.timestamp));
  if (version >= kVersion2) SEP2P_RETURN_IF_ERROR(reader.U64(&m.nonce));
  SEP2P_RETURN_IF_ERROR(reader.ExpectEnd());
  return m;
}

std::vector<uint8_t> Encode(const CommitReply& m) {
  Writer writer;
  WriteHeader(writer, kTagCommitReply);
  writer.Hash(m.commitment);
  return writer.Take();
}

Result<CommitReply> DecodeCommitReply(const std::vector<uint8_t>& bytes) {
  Reader reader(bytes);
  SEP2P_RETURN_IF_ERROR(CheckHeader(reader, kTagCommitReply));
  CommitReply m;
  SEP2P_RETURN_IF_ERROR(reader.Hash(&m.commitment));
  SEP2P_RETURN_IF_ERROR(reader.ExpectEnd());
  return m;
}

std::vector<uint8_t> Encode(const CommitList& m) {
  Writer writer;
  WriteHeader(writer, kTagCommitList, m.nonce == 0 ? kVersion : kVersion2);
  writer.U32(static_cast<uint32_t>(m.commitments.size()));
  for (const crypto::Hash256& h : m.commitments) writer.Hash(h);
  writer.U64(m.timestamp);
  if (m.nonce != 0) writer.U64(m.nonce);
  return writer.Take();
}

Result<CommitList> DecodeCommitList(const std::vector<uint8_t>& bytes) {
  Reader reader(bytes);
  uint16_t version = 0;
  SEP2P_RETURN_IF_ERROR(CheckHeader(reader, kTagCommitList, &version));
  CommitList m;
  uint32_t count = 0;
  SEP2P_RETURN_IF_ERROR(reader.U32(&count));
  if (count == 0 || count > wire::kMaxParticipants) {
    return Status::InvalidArgument("msg: bad commitment count");
  }
  m.commitments.resize(count);
  for (crypto::Hash256& h : m.commitments) {
    SEP2P_RETURN_IF_ERROR(reader.Hash(&h));
  }
  SEP2P_RETURN_IF_ERROR(reader.U64(&m.timestamp));
  if (version >= kVersion2) SEP2P_RETURN_IF_ERROR(reader.U64(&m.nonce));
  SEP2P_RETURN_IF_ERROR(reader.ExpectEnd());
  return m;
}

std::vector<uint8_t> Encode(const VrandReveal& m) {
  Writer writer;
  WriteHeader(writer, kTagVrandReveal);
  writer.Hash(m.rnd);
  writer.Blob(m.sig);
  return writer.Take();
}

Result<VrandReveal> DecodeVrandReveal(const std::vector<uint8_t>& bytes) {
  Reader reader(bytes);
  SEP2P_RETURN_IF_ERROR(CheckHeader(reader, kTagVrandReveal));
  VrandReveal m;
  SEP2P_RETURN_IF_ERROR(reader.Hash(&m.rnd));
  SEP2P_RETURN_IF_ERROR(reader.Blob(&m.sig));
  SEP2P_RETURN_IF_ERROR(reader.ExpectEnd());
  return m;
}

std::vector<uint8_t> Encode(const SlEngage& m) {
  Writer writer;
  WriteHeader(writer, kTagSlEngage, m.nonce == 0 ? kVersion : kVersion2);
  writer.Blob(m.vrnd);
  writer.Hash(m.point);
  if (m.nonce != 0) writer.U64(m.nonce);
  return writer.Take();
}

Result<SlEngage> DecodeSlEngage(const std::vector<uint8_t>& bytes) {
  Reader reader(bytes);
  uint16_t version = 0;
  SEP2P_RETURN_IF_ERROR(CheckHeader(reader, kTagSlEngage, &version));
  SlEngage m;
  SEP2P_RETURN_IF_ERROR(reader.Blob(&m.vrnd));
  SEP2P_RETURN_IF_ERROR(reader.Hash(&m.point));
  if (version >= kVersion2) SEP2P_RETURN_IF_ERROR(reader.U64(&m.nonce));
  SEP2P_RETURN_IF_ERROR(reader.ExpectEnd());
  return m;
}

// A candidate list is hundreds of keys, and std::vector<PublicKey> is
// one contiguous byte array (PublicKey is std::array<uint8_t, 32>), so
// the list crosses the codec as a single copy each way.
static_assert(sizeof(crypto::PublicKey) == 32);

std::vector<uint8_t> Encode(const SlReveal& m) {
  const size_t key_bytes = m.candidates.size() * sizeof(crypto::PublicKey);
  Writer writer;
  writer.Reserve(kHeaderBytes + sizeof(crypto::Digest) + 4 + key_bytes);
  WriteHeader(writer, kTagSlReveal);
  writer.Hash(m.rnd);
  writer.U32(static_cast<uint32_t>(m.candidates.size()));
  writer.Raw(reinterpret_cast<const uint8_t*>(m.candidates.data()),
             key_bytes);
  return writer.Take();
}

Result<SlReveal> DecodeSlReveal(const std::vector<uint8_t>& bytes) {
  Reader reader(bytes);
  SEP2P_RETURN_IF_ERROR(CheckHeader(reader, kTagSlReveal));
  SlReveal m;
  SEP2P_RETURN_IF_ERROR(reader.Hash(&m.rnd));
  uint32_t count = 0;
  SEP2P_RETURN_IF_ERROR(reader.U32(&count));
  if (count > wire::kMaxActors) {
    return Status::InvalidArgument("msg: bad candidate count");
  }
  m.candidates.resize(count);
  SEP2P_RETURN_IF_ERROR(
      reader.Raw(reinterpret_cast<uint8_t*>(m.candidates.data()),
                 count * sizeof(crypto::PublicKey)));
  SEP2P_RETURN_IF_ERROR(reader.ExpectEnd());
  return m;
}

std::vector<uint8_t> Encode(const AttestRequest& m) {
  Writer writer;
  WriteHeader(writer, kTagAttestRequest,
              m.preimage.empty() ? kVersion : kVersion2);
  writer.Hash(m.digest);
  if (!m.preimage.empty()) writer.Blob(m.preimage);
  return writer.Take();
}

Result<AttestRequest> DecodeAttestRequest(const std::vector<uint8_t>& bytes) {
  Reader reader(bytes);
  uint16_t version = 0;
  SEP2P_RETURN_IF_ERROR(CheckHeader(reader, kTagAttestRequest, &version));
  AttestRequest m;
  SEP2P_RETURN_IF_ERROR(reader.Hash(&m.digest));
  if (version >= kVersion2) SEP2P_RETURN_IF_ERROR(reader.Blob(&m.preimage));
  SEP2P_RETURN_IF_ERROR(reader.ExpectEnd());
  return m;
}

std::vector<uint8_t> Encode(const Attestation& m) {
  Writer writer;
  WriteHeader(writer, kTagAttestation);
  writer.Cert(m.cert);
  writer.Blob(m.sig);
  return writer.Take();
}

Result<Attestation> DecodeAttestation(const std::vector<uint8_t>& bytes) {
  Reader reader(bytes);
  SEP2P_RETURN_IF_ERROR(CheckHeader(reader, kTagAttestation));
  Attestation m;
  SEP2P_RETURN_IF_ERROR(reader.Cert(&m.cert));
  SEP2P_RETURN_IF_ERROR(reader.Blob(&m.sig));
  SEP2P_RETURN_IF_ERROR(reader.ExpectEnd());
  return m;
}

namespace {

void WriteSealed(Writer& writer, const crypto::SealedMessage& sealed) {
  writer.Key(sealed.recipient);
  writer.Raw(sealed.nonce.data(), sealed.nonce.size());
  writer.Blob(sealed.ciphertext);
}

Status ReadSealed(Reader& reader, crypto::SealedMessage* sealed) {
  SEP2P_RETURN_IF_ERROR(reader.Key(&sealed->recipient));
  crypto::Hash256 nonce;
  SEP2P_RETURN_IF_ERROR(reader.Hash(&nonce));
  std::copy(nonce.bytes().begin(), nonce.bytes().end(),
            sealed->nonce.begin());
  return reader.Blob(&sealed->ciphertext);
}

}  // namespace

std::vector<uint8_t> Encode(const AppAck&) {
  Writer writer;
  WriteHeader(writer, kTagAppAck);
  return writer.Take();
}

Result<AppAck> DecodeAppAck(const std::vector<uint8_t>& bytes) {
  Reader reader(bytes);
  SEP2P_RETURN_IF_ERROR(CheckHeader(reader, kTagAppAck));
  SEP2P_RETURN_IF_ERROR(reader.ExpectEnd());
  return AppAck{};
}

std::vector<uint8_t> Encode(const SensingContribution& m) {
  Writer writer;
  WriteHeader(writer, kTagSensingContribution);
  writer.U64(m.contribution_id);
  writer.U32(m.cell);
  WriteSealed(writer, m.sealed);
  return writer.Take();
}

Result<SensingContribution> DecodeSensingContribution(
    const std::vector<uint8_t>& bytes) {
  Reader reader(bytes);
  SEP2P_RETURN_IF_ERROR(CheckHeader(reader, kTagSensingContribution));
  SensingContribution m;
  SEP2P_RETURN_IF_ERROR(reader.U64(&m.contribution_id));
  SEP2P_RETURN_IF_ERROR(reader.U32(&m.cell));
  SEP2P_RETURN_IF_ERROR(ReadSealed(reader, &m.sealed));
  SEP2P_RETURN_IF_ERROR(reader.ExpectEnd());
  return m;
}

std::vector<uint8_t> Encode(const SensingPartial& m) {
  Writer writer;
  WriteHeader(writer, kTagSensingPartial);
  writer.U32(m.da_slot);
  writer.U16(m.grid);
  writer.U32(static_cast<uint32_t>(m.sums.size()));
  for (double s : m.sums) writer.F64(s);
  writer.U32(static_cast<uint32_t>(m.counts.size()));
  for (uint64_t c : m.counts) writer.U64(c);
  return writer.Take();
}

Result<SensingPartial> DecodeSensingPartial(
    const std::vector<uint8_t>& bytes) {
  Reader reader(bytes);
  SEP2P_RETURN_IF_ERROR(CheckHeader(reader, kTagSensingPartial));
  SensingPartial m;
  SEP2P_RETURN_IF_ERROR(reader.U32(&m.da_slot));
  SEP2P_RETURN_IF_ERROR(reader.U16(&m.grid));
  uint32_t count = 0;
  SEP2P_RETURN_IF_ERROR(reader.U32(&count));
  if (count > wire::kMaxParticipants) {
    return Status::InvalidArgument("msg: bad cell count");
  }
  m.sums.resize(count);
  for (double& s : m.sums) SEP2P_RETURN_IF_ERROR(reader.F64(&s));
  SEP2P_RETURN_IF_ERROR(reader.U32(&count));
  if (count != m.sums.size()) {
    return Status::InvalidArgument("msg: sums/counts mismatch");
  }
  m.counts.resize(count);
  for (uint64_t& c : m.counts) SEP2P_RETURN_IF_ERROR(reader.U64(&c));
  SEP2P_RETURN_IF_ERROR(reader.ExpectEnd());
  return m;
}

std::vector<uint8_t> Encode(const ConceptStore& m) {
  Writer writer;
  WriteHeader(writer, kTagConceptStore);
  writer.U64(m.posting_id);
  writer.Blob(m.share_key);
  writer.U8(m.share_x);
  writer.Blob(m.share_data);
  return writer.Take();
}

Result<ConceptStore> DecodeConceptStore(const std::vector<uint8_t>& bytes) {
  Reader reader(bytes);
  SEP2P_RETURN_IF_ERROR(CheckHeader(reader, kTagConceptStore));
  ConceptStore m;
  SEP2P_RETURN_IF_ERROR(reader.U64(&m.posting_id));
  SEP2P_RETURN_IF_ERROR(reader.Blob(&m.share_key));
  SEP2P_RETURN_IF_ERROR(reader.U8(&m.share_x));
  SEP2P_RETURN_IF_ERROR(reader.Blob(&m.share_data));
  SEP2P_RETURN_IF_ERROR(reader.ExpectEnd());
  return m;
}

std::vector<uint8_t> Encode(const ConceptQuery& m) {
  Writer writer;
  WriteHeader(writer, kTagConceptQuery);
  writer.Blob(m.share_key);
  return writer.Take();
}

Result<ConceptQuery> DecodeConceptQuery(const std::vector<uint8_t>& bytes) {
  Reader reader(bytes);
  SEP2P_RETURN_IF_ERROR(CheckHeader(reader, kTagConceptQuery));
  ConceptQuery m;
  SEP2P_RETURN_IF_ERROR(reader.Blob(&m.share_key));
  SEP2P_RETURN_IF_ERROR(reader.ExpectEnd());
  return m;
}

std::vector<uint8_t> Encode(const ConceptShares& m) {
  Writer writer;
  WriteHeader(writer, kTagConceptShares);
  writer.U32(static_cast<uint32_t>(m.shares.size()));
  for (size_t i = 0; i < m.shares.size(); ++i) {
    writer.U64(i < m.posting_ids.size() ? m.posting_ids[i] : 0);
    writer.U8(m.shares[i].x);
    writer.Blob(m.shares[i].data);
  }
  return writer.Take();
}

Result<ConceptShares> DecodeConceptShares(const std::vector<uint8_t>& bytes) {
  Reader reader(bytes);
  SEP2P_RETURN_IF_ERROR(CheckHeader(reader, kTagConceptShares));
  ConceptShares m;
  uint32_t count = 0;
  SEP2P_RETURN_IF_ERROR(reader.U32(&count));
  if (count > wire::kMaxActors) {
    return Status::InvalidArgument("msg: bad share count");
  }
  m.posting_ids.resize(count);
  m.shares.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    SEP2P_RETURN_IF_ERROR(reader.U64(&m.posting_ids[i]));
    SEP2P_RETURN_IF_ERROR(reader.U8(&m.shares[i].x));
    SEP2P_RETURN_IF_ERROR(reader.Blob(&m.shares[i].data));
  }
  SEP2P_RETURN_IF_ERROR(reader.ExpectEnd());
  return m;
}

std::vector<uint8_t> Encode(const ProxyRelay& m) {
  Writer writer;
  WriteHeader(writer, kTagProxyRelay);
  writer.U64(m.contribution_id);
  writer.U32(m.recipient_index);
  WriteSealed(writer, m.sealed);
  return writer.Take();
}

Result<ProxyRelay> DecodeProxyRelay(const std::vector<uint8_t>& bytes) {
  Reader reader(bytes);
  SEP2P_RETURN_IF_ERROR(CheckHeader(reader, kTagProxyRelay));
  ProxyRelay m;
  SEP2P_RETURN_IF_ERROR(reader.U64(&m.contribution_id));
  SEP2P_RETURN_IF_ERROR(reader.U32(&m.recipient_index));
  SEP2P_RETURN_IF_ERROR(ReadSealed(reader, &m.sealed));
  SEP2P_RETURN_IF_ERROR(reader.ExpectEnd());
  return m;
}

std::vector<uint8_t> Encode(const SealedDelivery& m) {
  Writer writer;
  WriteHeader(writer, kTagSealedDelivery);
  writer.U64(m.contribution_id);
  WriteSealed(writer, m.sealed);
  return writer.Take();
}

Result<SealedDelivery> DecodeSealedDelivery(
    const std::vector<uint8_t>& bytes) {
  Reader reader(bytes);
  SEP2P_RETURN_IF_ERROR(CheckHeader(reader, kTagSealedDelivery));
  SealedDelivery m;
  SEP2P_RETURN_IF_ERROR(reader.U64(&m.contribution_id));
  SEP2P_RETURN_IF_ERROR(ReadSealed(reader, &m.sealed));
  SEP2P_RETURN_IF_ERROR(reader.ExpectEnd());
  return m;
}

std::vector<uint8_t> Encode(const DiffusionOffer& m) {
  Writer writer;
  WriteHeader(writer, kTagDiffusionOffer);
  writer.U64(m.offer_id);
  writer.Blob(m.expression);
  writer.Blob(m.message);
  return writer.Take();
}

Result<DiffusionOffer> DecodeDiffusionOffer(
    const std::vector<uint8_t>& bytes) {
  Reader reader(bytes);
  SEP2P_RETURN_IF_ERROR(CheckHeader(reader, kTagDiffusionOffer));
  DiffusionOffer m;
  SEP2P_RETURN_IF_ERROR(reader.U64(&m.offer_id));
  SEP2P_RETURN_IF_ERROR(reader.Blob(&m.expression));
  SEP2P_RETURN_IF_ERROR(reader.Blob(&m.message));
  SEP2P_RETURN_IF_ERROR(reader.ExpectEnd());
  return m;
}

std::vector<uint8_t> Encode(const DiffusionAccept& m) {
  Writer writer;
  WriteHeader(writer, kTagDiffusionAccept);
  writer.U8(m.accepted);
  return writer.Take();
}

Result<DiffusionAccept> DecodeDiffusionAccept(
    const std::vector<uint8_t>& bytes) {
  Reader reader(bytes);
  SEP2P_RETURN_IF_ERROR(CheckHeader(reader, kTagDiffusionAccept));
  DiffusionAccept m;
  SEP2P_RETURN_IF_ERROR(reader.U8(&m.accepted));
  SEP2P_RETURN_IF_ERROR(reader.ExpectEnd());
  return m;
}

std::vector<uint8_t> Encode(const QueryAnswer& m) {
  Writer writer;
  WriteHeader(writer, kTagQueryAnswer);
  writer.U32(m.da_slot);
  writer.U64(m.count);
  writer.F64(m.sum);
  writer.F64(m.min);
  writer.F64(m.max);
  return writer.Take();
}

Result<QueryAnswer> DecodeQueryAnswer(const std::vector<uint8_t>& bytes) {
  Reader reader(bytes);
  SEP2P_RETURN_IF_ERROR(CheckHeader(reader, kTagQueryAnswer));
  QueryAnswer m;
  SEP2P_RETURN_IF_ERROR(reader.U32(&m.da_slot));
  SEP2P_RETURN_IF_ERROR(reader.U64(&m.count));
  SEP2P_RETURN_IF_ERROR(reader.F64(&m.sum));
  SEP2P_RETURN_IF_ERROR(reader.F64(&m.min));
  SEP2P_RETURN_IF_ERROR(reader.F64(&m.max));
  SEP2P_RETURN_IF_ERROR(reader.ExpectEnd());
  return m;
}

std::vector<uint8_t> Encode(const QueryDeploy& m) {
  Writer writer;
  WriteHeader(writer, kTagQueryDeploy);
  writer.U64(m.round_id);
  writer.U32(m.querier);
  writer.Blob(m.val);
  return writer.Take();
}

Result<QueryDeploy> DecodeQueryDeploy(const std::vector<uint8_t>& bytes) {
  Reader reader(bytes);
  SEP2P_RETURN_IF_ERROR(CheckHeader(reader, kTagQueryDeploy));
  QueryDeploy m;
  SEP2P_RETURN_IF_ERROR(reader.U64(&m.round_id));
  SEP2P_RETURN_IF_ERROR(reader.U32(&m.querier));
  SEP2P_RETURN_IF_ERROR(reader.Blob(&m.val));
  SEP2P_RETURN_IF_ERROR(reader.ExpectEnd());
  return m;
}

std::vector<uint8_t> Encode(const QueryFlush& m) {
  Writer writer;
  WriteHeader(writer, kTagQueryFlush);
  writer.U64(m.round_id);
  writer.U32(m.da_slot);
  return writer.Take();
}

Result<QueryFlush> DecodeQueryFlush(const std::vector<uint8_t>& bytes) {
  Reader reader(bytes);
  SEP2P_RETURN_IF_ERROR(CheckHeader(reader, kTagQueryFlush));
  QueryFlush m;
  SEP2P_RETURN_IF_ERROR(reader.U64(&m.round_id));
  SEP2P_RETURN_IF_ERROR(reader.U32(&m.da_slot));
  SEP2P_RETURN_IF_ERROR(reader.ExpectEnd());
  return m;
}

Result<uint8_t> PeekTag(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < 4 || bytes[0] != kMagic0 || bytes[1] != kMagic1 ||
      bytes[2] != kMagic2) {
    return Status::InvalidArgument("msg: bad magic");
  }
  return bytes[3];
}

}  // namespace sep2p::core::msg
