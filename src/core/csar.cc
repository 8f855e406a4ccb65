#include "core/csar.h"

#include <algorithm>

namespace sep2p::core {

Result<CsarProtocol::Outcome> CsarProtocol::Generate(
    uint32_t trigger_index, int participant_count, util::Rng& rng) const {
  const dht::Directory& dir = *ctx_.directory;
  if (participant_count < 1 ||
      static_cast<size_t>(participant_count) >= dir.size()) {
    return Status::InvalidArgument("csar: bad participant count");
  }

  Outcome outcome;
  outcome.random.cert_t = dir.cert(trigger_index);
  outcome.random.timestamp = ctx_.now;

  // Uniform participants over the whole network, excluding T.
  std::vector<size_t> sample =
      rng.SampleIndices(dir.size(), participant_count + 1);
  for (size_t idx : sample) {
    if (static_cast<uint32_t>(idx) == trigger_index) continue;
    if (static_cast<int>(outcome.participant_indices.size()) >=
        participant_count) {
      break;
    }
    outcome.participant_indices.push_back(static_cast<uint32_t>(idx));
  }
  // If T was not in the sample we may hold one extra; trim.
  outcome.participant_indices.resize(participant_count);

  outcome.random.participants.resize(participant_count);
  for (int i = 0; i < participant_count; ++i) {
    VrandParticipant& p = outcome.random.participants[i];
    p.cert = dir.cert(outcome.participant_indices[i]);
    p.rnd = crypto::Hash256(crypto::Digest(rng.NextBytes32()));
  }
  const std::vector<uint8_t> signed_bytes = outcome.random.SignedBytes();
  for (int i = 0; i < participant_count; ++i) {
    Result<crypto::Signature> sig =
        ctx_.SignAs(outcome.participant_indices[i], signed_bytes);
    if (!sig.ok()) return sig.status();
    outcome.random.participants[i].sig = std::move(sig.value());
  }

  // Same four message rounds as the k-node variant, but with C+1-sized
  // fan-out; on a DHT each contact additionally costs a routing, which
  // we approximate with the overlay's average by routing to each
  // participant's id. To keep the baseline comparable (and because the
  // paper assumes a full mesh for it), contacts are direct here.
  net::Cost cost;
  for (int round = 0; round < 4; ++round) {
    cost.Then(net::Cost::ParIdentical(net::Cost::Step(0, 1),
                                      participant_count));
  }
  cost.Then(
      net::Cost::ParIdentical(net::Cost::Step(1, 0), participant_count));
  Result<net::Cost> check = VerifyCsar(ctx_, outcome.random);
  if (!check.ok()) return check.status();
  cost.Then(check.value());
  outcome.cost = cost;
  return outcome;
}

Result<net::Cost> VerifyCsar(const ProtocolContext& ctx,
                             const CsarRandom& random) {
  net::Cost cost;
  cost.Then(net::Cost::Step(1, 0));
  if (!ctx.CheckCertificate(random.cert_t)) {
    return Status::SecurityViolation("csar: bad trigger certificate");
  }
  if (random.timestamp + ctx.max_timestamp_age < ctx.now) {
    return Status::SecurityViolation("csar: stale timestamp");
  }
  if (random.participants.empty()) {
    return Status::SecurityViolation("csar: no participants");
  }
  const std::vector<uint8_t> signed_bytes = random.SignedBytes();
  for (const VrandParticipant& p : random.participants) {
    cost.Then(net::Cost::Step(1, 0));
    if (!ctx.CheckCertificate(p.cert)) {
      return Status::SecurityViolation("csar: bad participant certificate");
    }
    cost.Then(net::Cost::Step(1, 0));
    if (!ctx.CheckSignature(p.cert.subject, signed_bytes, p.sig)) {
      return Status::SecurityViolation("csar: bad participant signature");
    }
  }
  return cost;
}

std::vector<uint32_t> CsarActorsFromRandom(const dht::Directory& directory,
                                           const crypto::Hash256& rnd,
                                           int actor_count) {
  // Rank table: alive nodes sorted by public key.
  std::vector<uint32_t> by_key;
  for (uint32_t i = 0; i < directory.size(); ++i) {
    if (directory.alive(i)) by_key.push_back(i);
  }
  std::sort(by_key.begin(), by_key.end(),
            [&directory](uint32_t a, uint32_t b) {
              return directory.pub(a) < directory.pub(b);
            });

  std::vector<uint32_t> actors;
  crypto::Hash256 value = rnd;
  // Derive up to A distinct ranks by repeated hashing (paper: "derive up
  // to A random values by repeatedly hashing the initial value").
  while (static_cast<int>(actors.size()) < actor_count &&
         !by_key.empty()) {
    value = value.Rehash();
    uint64_t rank_seed = 0;
    for (int b = 0; b < 8; ++b) {
      rank_seed = (rank_seed << 8) | value.bytes()[b];
    }
    uint32_t actor = by_key[rank_seed % by_key.size()];
    if (std::find(actors.begin(), actors.end(), actor) == actors.end()) {
      actors.push_back(actor);
    }
  }
  return actors;
}

}  // namespace sep2p::core
