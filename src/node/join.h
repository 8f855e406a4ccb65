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
    crypto::Signature sig;
  };
  std::vector<Attestation> attestations;  // k of them

  int k() const { return static_cast<int>(attestations.size()); }
  std::vector<uint8_t> SignedBytes() const;
};

class JoinProtocol {
 public:
  // Join still has two bodies; vrand and selection have one. With the
  // default null transport the attestor signatures are collected in
  // memory — the churn driver depends on that path's exact draw order
  // for digest stability, and its crash schedule (net::SimNetwork::
  // CrashAt is permanent, while the driver re-joins crashed nodes) does
  // not fit the message path yet. With a transport, attestation
  // requests travel as AttestRequest messages carrying the cache's
  // signed bytes (the preimage a resident attestor demands), through
  // EngageQuorum: unresponsive attestors are replaced by spare R1
  // candidates.
  explicit JoinProtocol(const core::ProtocolContext& ctx,
                        net::Transport* transport = nullptr)
      : ctx_(ctx), transport_(transport) {}

  // Builds an attested snapshot of `owner`'s node cache: k legitimate
  // nodes w.r.t. an R1-sized region centered on the owner check the
  // entries against their own caches and sign. Costs k signatures and
  // 2k messages.
  Result<AttestedCache> AttestCache(uint32_t owner_index,
                                    util::Rng& rng) const;

  struct Outcome {
    std::vector<uint32_t> cache;  // validated cache for the newcomer
    net::Cost cost;
    uint32_t successor = 0;
    uint32_t predecessor = 0;
  };

  // Runs the §3.6 joining procedure for `newcomer_index` (which must be
  // alive in the directory; in a real deployment this happens right
  // after DHT insertion).
  Result<Outcome> Join(uint32_t newcomer_index, util::Rng& rng) const;

 private:
  const core::ProtocolContext& ctx_;
  net::Transport* transport_ = nullptr;
};

// Verifies an attested cache: owner certificate, attestor certificates,
// attestor legitimacy w.r.t. R1 centered on the owner, signatures over
// the entry list, timestamp freshness. 2k+1 asymmetric operations.
Result<net::Cost> VerifyAttestedCache(const core::ProtocolContext& ctx,
                                      const AttestedCache& cache);

}  // namespace sep2p::node

#endif  // SEP2P_NODE_JOIN_H_
