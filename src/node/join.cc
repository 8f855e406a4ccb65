#include "node/join.h"

#include <bit>
#include <cstdint>

#include "core/messages.h"
#include "core/protocol_service.h"
#include "core/wire_format.h"
#include "crypto/hash256.h"
#include "dht/region.h"
#include "node/node_cache.h"

namespace sep2p::node {
namespace {

// Drops repeated handles, keeping first occurrences in pool order,
// without a comparison sort: kept handles go into an open-addressed
// table indexed by their low bits. A region's handles are nearby ring
// ranks, so distinct ones rarely share a slot.
void DedupeHandles(std::vector<uint32_t>& handles) {
  constexpr uint32_t kEmpty = UINT32_MAX;
  const size_t mask = std::bit_ceil(2 * handles.size()) - 1;
  std::vector<uint32_t> table(mask + 1, kEmpty);
  size_t kept = 0;
  for (uint32_t handle : handles) {
    for (size_t slot = handle;; ++slot) {
      slot &= mask;
      if (table[slot] == kEmpty) {
        table[slot] = handle;
        handles[kept++] = handle;
        break;
      }
      if (table[slot] == handle) break;
    }
  }
  handles.resize(kept);
}

}  // namespace

std::vector<uint8_t> AttestedCache::SignedBytes() const {
  const size_t key_bytes = entries.size() * sizeof(crypto::PublicKey);
  core::wire::Writer out;
  out.Reserve(owner_cert.subject.size() + 8 + key_bytes);
  out.Raw(owner_cert.subject.data(), owner_cert.subject.size());
  out.U64(timestamp);
  out.Raw(reinterpret_cast<const uint8_t*>(entries.data()), key_bytes);
  return out.Take();
}

Result<AttestedCache> JoinProtocol::AttestCache(
    uint32_t owner_index, util::Rng& rng, core::AttackHooks* attack,
    std::vector<uint32_t>* entry_handles) const {
  const dht::Directory& dir = *ctx_.directory;
  AttestedCache cache;
  cache.owner_cert = dir.cert(owner_index);
  cache.timestamp = ctx_.now;

  // k legitimate attestors around the owner (R1 capped at the cache
  // coverage, as everywhere).
  core::KTable::Choice choice =
      ctx_.ktable->ChooseForPoint(dir, dir.pos(owner_index), ctx_.rs3);
  if (!choice.found) {
    return Status::ResourceExhausted("attest: owner's region too sparse");
  }
  const int k = choice.entry.k;
  cache.rs1 = choice.entry.rs;
  dht::Region r1 = dht::Region::Centered(dir.pos(owner_index), cache.rs1);
  std::vector<uint32_t> attestors = dir.NodesInRegion(r1);
  std::erase(attestors, owner_index);
  if (attestors.size() < static_cast<size_t>(k)) {
    return Status::ResourceExhausted("attest: fewer than k attestors");
  }
  rng.Shuffle(attestors);

  std::vector<uint32_t> entries =
      NodeCache(&dir, owner_index, ctx_.rs3).Entries();
  if (attack != nullptr) {
    attack->OwnerOmitsEntries(
        owner_index, {attestors.begin(), attestors.begin() + k}, &entries);
  }
  cache.entries.reserve(entries.size());
  for (uint32_t idx : entries) cache.entries.push_back(dir.pub(idx));

  // Each attestor cross-checks the entries against its own cache (its
  // coverage overlaps the owner's, so lies about shared ground would be
  // detected — covert adversaries therefore sign honestly) and signs
  // the snapshot's digest. A resident attestor gets the preimage, to
  // check that the digest binds it.
  const std::vector<uint8_t> signed_bytes = cache.SignedBytes();
  core::msg::AttestRequest request;
  request.digest =
      crypto::Hash256::Of(signed_bytes.data(), signed_bytes.size());
  if (transport_.remote_dispatch()) request.preimage = signed_bytes;
  const std::vector<uint8_t> request_bytes = core::msg::Encode(request);
  obs::MetricsRegistry* met = transport_.metrics();
  net::Transport::QuorumResult quorum = transport_.EngageQuorum(
      owner_index, attestors, k, request_bytes,
      [&](uint32_t server, const std::vector<uint8_t>& req)
          -> std::optional<std::vector<uint8_t>> {
        Result<core::msg::AttestRequest> decoded =
            core::msg::Decode<core::msg::AttestRequest>(req);
        if (!decoded.ok()) return std::nullopt;
        return core::AttestReply(ctx_, met, server, decoded->digest);
      });
  if (!quorum.ok) {
    return Status::Unavailable("attest: attestor quorum unreachable");
  }
  for (const std::vector<uint8_t>& reply : quorum.replies) {
    auto att = core::msg::Decode<core::msg::Attestation>(reply);
    if (!att.ok()) return att.status();
    cache.attestations.push_back({std::move(att->cert), std::move(att->sig)});
  }
  if (entry_handles != nullptr) *entry_handles = std::move(entries);
  return cache;
}

Result<JoinProtocol::Outcome> JoinProtocol::Join(
    uint32_t newcomer_index, util::Rng& rng,
    core::AttackHooks* attack) const {
  const dht::Directory& dir = *ctx_.directory;
  const dht::RingPos newcomer_pos = dir.pos(newcomer_index);

  // Chord neighbors of the newcomer (skipping itself).
  std::optional<uint32_t> successor = dir.SuccessorIndex(newcomer_pos + 1);
  if (!successor.has_value() || *successor == newcomer_index) {
    return Status::Unavailable("join: no successor");
  }
  std::optional<uint32_t> predecessor = dir.PredecessorIndex(newcomer_pos);
  if (!predecessor.has_value() || *predecessor == newcomer_index) {
    return Status::Unavailable("join: no predecessor");
  }

  Outcome outcome;
  outcome.successor = *successor;
  outcome.predecessor = *predecessor;
  obs::Span span(transport_.trace(), transport_.metrics(), newcomer_index,
                 "join");

  // Request + receive the two attested caches and pool their entries,
  // in received order (Outcome::cache), as the directory handles their
  // attested keys were read from.
  std::vector<uint32_t> pool;
  std::vector<uint32_t> handles;
  for (uint32_t neighbor : {*successor, *predecessor}) {
    Result<AttestedCache> attested =
        AttestCache(neighbor, rng, attack, &handles);
    if (!attested.ok()) return attested.status();
    // k signatures + the request/response and attestation messages.
    outcome.cost.Then(net::Cost::Step(0, 2));
    outcome.cost.Then(net::Cost::ParIdentical(net::Cost::Step(1, 2),
                                              attested->k()));
    // The newcomer verifies before trusting anything (2k+1 ops).
    Result<net::Cost> verified = VerifyAttestedCache(ctx_, *attested);
    if (!verified.ok()) return verified.status();
    outcome.cost.Then(*verified);
    pool.insert(pool.end(), handles.begin(), handles.end());
    pool.push_back(neighbor);  // the neighbor itself is known
  }
  DedupeHandles(pool);

  // Keep the union's entries legitimate w.r.t. rs3 centered on self
  // (dir.pub(idx) is the key attested for the entry).
  dht::Region coverage = dht::Region::Centered(newcomer_pos, ctx_.rs3);
  for (uint32_t idx : pool) {
    if (!coverage.Contains(dht::NodeIdForKey(dir.pub(idx)))) continue;
    if (idx != newcomer_index) outcome.cache.push_back(idx);
  }

  // Announce to the nodes whose caches must now include the newcomer;
  // each checks the newcomer's certificate before insertion.
  const size_t covering = dir.CountInRegion(coverage);
  outcome.cost.Then(net::Cost::ParIdentical(net::Cost::Step(1, 1),
                                            covering));
  return outcome;
}

Result<net::Cost> VerifyAttestedCache(const core::ProtocolContext& ctx,
                                      const AttestedCache& cache) {
  net::Cost cost;
  cost.Then(net::Cost::Step(1, 0));
  if (!ctx.CheckCertificate(cache.owner_cert)) {
    return Status::SecurityViolation("attested cache: bad owner cert");
  }
  if (cache.timestamp + ctx.max_timestamp_age < ctx.now) {
    return Status::SecurityViolation("attested cache: stale");
  }
  if (cache.attestations.empty()) {
    return Status::SecurityViolation("attested cache: no attestations");
  }
  if (crypto::RepeatsSubject(cache.attestations)) {
    return Status::SecurityViolation("attested cache: repeated attestor");
  }
  if (!ctx.ktable->AdmitsRegion(cache.k(), cache.rs1)) {
    return Status::SecurityViolation(
        "attested cache: region outside alpha bound");
  }

  dht::Region r1 = dht::Region::Centered(
      cache.owner_cert.NodeIdFromSubject().ring_pos(), cache.rs1);
  const std::vector<uint8_t> signed_bytes = cache.SignedBytes();
  const crypto::Hash256 digest =
      crypto::Hash256::Of(signed_bytes.data(), signed_bytes.size());
  for (const AttestedCache::Attestation& att : cache.attestations) {
    cost.Then(net::Cost::Step(1, 0));
    if (!ctx.CheckCertificate(att.cert)) {
      return Status::SecurityViolation("attested cache: bad attestor cert");
    }
    if (!r1.Contains(att.cert.NodeIdFromSubject())) {
      return Status::SecurityViolation(
          "attested cache: attestor not legitimate");
    }
    cost.Then(net::Cost::Step(1, 0));
    if (!ctx.CheckSignature(att.cert.subject, digest, att.sig)) {
      return Status::SecurityViolation("attested cache: bad signature");
    }
  }
  return cost;
}

}  // namespace sep2p::node
