// Chord overlay (Stoica et al., SIGCOMM'01) over the simulator Directory.
//
// The paper's simulator implements Chord and CAN and uses Chord for the
// published results; so do we. The overlay answers "route from node X to
// the owner of key t" with the greedy finger-table algorithm and reports
// the hop count, which feeds the exchanged-messages metric (Figure 5).
//
// Finger semantics: node u's j-th finger is successor(u + 2^j) on the
// 2^128 ring. Fingers are resolved against the Directory on demand rather
// than materialized (equivalent to perfectly maintained finger tables,
// which is the standard simulation assumption). A hop resolves only the
// finger it takes, picked arithmetically from the target's alive
// predecessor: one successor query per hop plus two per route.

#ifndef SEP2P_DHT_CHORD_H_
#define SEP2P_DHT_CHORD_H_

#include <cstdint>

#include "dht/directory.h"
#include "dht/overlay.h"
#include "util/status.h"

namespace sep2p::dht {

class ChordOverlay : public RoutingOverlay {
 public:
  // `directory` must outlive the overlay. `max_hops` bounds the greedy
  // walk; the default comfortably covers O(log2 N) routing up to N=10^7.
  explicit ChordOverlay(const Directory* directory, int max_hops = 200);

  // Routes from `from_index` to the owner of `target`; every forwarding
  // step counts as one hop (one message).
  Result<RouteResult> Route(uint32_t from_index, RingPos target) const;
  Result<RouteResult> Route(uint32_t from_index, const NodeId& key) const {
    return Route(from_index, key.ring_pos());
  }

  // RoutingOverlay:
  Result<RouteResult> RouteKey(uint32_t from_index,
                               const NodeId& key) const override {
    return Route(from_index, key.ring_pos());
  }
  const char* name() const override { return "chord"; }

  // Expected O(log2 N) upper bound used in sanity tests. Per-overlay
  // (NOT process-global static): concurrent trials own independent
  // overlays and must not share mutable routing limits.
  int max_hops() const { return max_hops_; }

 private:
  const Directory* directory_;
  int max_hops_;
};

}  // namespace sep2p::dht

#endif  // SEP2P_DHT_CHORD_H_
