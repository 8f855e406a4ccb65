// Attested network join (paper §3.6, "Joining the network and Cache_j
// validity").
//
// A node cache is only useful if it is *valid* — containing genuine
// nodes — because SEP2P skips certificate checks for actors vouched for
// by every candidate list. The joining procedure keeps that invariant:
// the newcomer asks its Chord successor and predecessor for their node
// caches, each attested by k legitimate nodes of an R1-sized region
// centered on the cache owner; it verifies both attestations, unions
// the entries, and keeps those legitimate w.r.t. an rs3 region centered
// on itself. By recurrence (the neighbors' caches were built the same
// way), the resulting cache contains only genuine nodes.

#ifndef SEP2P_NODE_JOIN_H_
#define SEP2P_NODE_JOIN_H_

#include <cstdint>
#include <vector>

#include "core/attack_hooks.h"
#include "core/context.h"
#include "net/cost.h"
#include "net/transport.h"
#include "util/rng.h"

namespace sep2p::node {

// A cache snapshot signed by k legitimate nodes around its owner.
struct AttestedCache {
  crypto::Certificate owner_cert;
  uint64_t timestamp = 0;
  double rs1 = 0;  // attestor legitimacy region size (k-table entry)
  std::vector<crypto::PublicKey> entries;

  struct Attestation {
    crypto::Certificate cert;
    crypto::Signature sig;  // over the SHA-256 of SignedBytes()
  };
  std::vector<Attestation> attestations;  // k of them

  int k() const { return static_cast<int>(attestations.size()); }
  // Canonical attested bytes: owner subject || timestamp (u64) || entry
  // keys.
  std::vector<uint8_t> SignedBytes() const;
};

class JoinProtocol {
 public:
  // Attestation requests travel over `transport` (which must outlive
  // this object) as AttestRequest messages naming the digest of the
  // cache's signed bytes (and carrying the bytes to a resident
  // attestor), through EngageQuorum: unresponsive attestors are
  // replaced by spare R1 candidates. Callers without a network of their
  // own pass a net::SimNetwork over net::kIdealLink.
  JoinProtocol(const core::ProtocolContext& ctx, net::Transport& transport)
      : ctx_(ctx), transport_(transport) {}

  // Builds an attested snapshot of `owner`'s node cache: k legitimate
  // nodes w.r.t. an R1-sized region centered on the owner check the
  // entries against their own caches and sign the snapshot's SHA-256
  // digest. Costs one hash of the snapshot, k signatures and 2k
  // messages. The attestors are drawn (the only rng draw) before the
  // entry list is built, which a non-null `attack` may then shrink
  // (core::AttackHooks::OwnerOmitsEntries). A non-null `entry_handles`
  // receives the directory handle of each entry, in entry order.
  Result<AttestedCache> AttestCache(
      uint32_t owner_index, util::Rng& rng,
      core::AttackHooks* attack = nullptr,
      std::vector<uint32_t>* entry_handles = nullptr) const;

  struct Outcome {
    // Validated cache for the newcomer, in received order: the
    // successor's attested entries, the successor, then what the
    // predecessor's snapshot adds, then the predecessor. Each entry
    // appears once, at its first occurrence, and only if it is in the
    // newcomer's rs3 coverage; the newcomer itself is left out.
    std::vector<uint32_t> cache;
    net::Cost cost;
    uint32_t successor = 0;
    uint32_t predecessor = 0;
  };

  // Runs the §3.6 joining procedure for `newcomer_index` (which must be
  // alive in the directory; in a real deployment this happens right
  // after DHT insertion). `attack` goes to both AttestCache calls.
  Result<Outcome> Join(uint32_t newcomer_index, util::Rng& rng,
                       core::AttackHooks* attack = nullptr) const;

 private:
  const core::ProtocolContext& ctx_;
  net::Transport& transport_;
};

// Verifies an attested cache: owner certificate, k distinct attestors'
// certificates and legitimacy w.r.t. R1 centered on the owner, their
// signatures over the digest of SignedBytes() (hashed once for all k),
// timestamp freshness. 2k+1 asym ops.
Result<net::Cost> VerifyAttestedCache(const core::ProtocolContext& ctx,
                                      const AttestedCache& cache);

}  // namespace sep2p::node

#endif  // SEP2P_NODE_JOIN_H_
