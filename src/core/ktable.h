// The k-table (paper §3.6, "Choosing R1 (or R2) region size").
//
// For a network with C colluders and security threshold alpha, the k-table
// lists couples (k_i, rs_i) with PC(>= k_i, C, rs_i) = alpha: every entry
// offers the same security guarantee ("never" k_i colluders inside a
// region of size rs_i), but larger k_i allow larger regions. A node in a
// dense neighborhood uses a small k (cheap verification); a node in a
// sparse neighborhood falls back to a larger entry. The largest entry,
// k_max, has a region big enough that any node finds k_max legitimate
// nodes with probability >= 1 - alpha, so every node can act as
// triggering node or execution Setter.

#ifndef SEP2P_CORE_KTABLE_H_
#define SEP2P_CORE_KTABLE_H_

#include <cstdint>
#include <vector>

#include "dht/directory.h"

namespace sep2p::core {

class KTable {
 public:
  struct Entry {
    int k = 0;
    double rs = 0;  // region size with PC(>=k, C, rs) = alpha
  };

  // Builds the table for a network of `n` nodes with `c` colluders.
  // Entries run from k = 2 (a single colluder can never bias a pair that
  // includes one honest node) up to k_max as defined above.
  static KTable Build(uint64_t n, uint64_t c, double alpha);

  const std::vector<Entry>& entries() const { return entries_; }
  int k_max() const { return entries_.back().k; }
  double alpha() const { return alpha_; }
  uint64_t n() const { return n_; }
  uint64_t c() const { return c_; }

  // The alpha bound a verifier applies to a claimed region: true iff k
  // is an entry and 0 < rs <= rs_k (within rounding). Region sizes are
  // in no signed bytes, so this is their only guard; NaN fails it.
  bool AdmitsRegion(int k, double rs) const;

  // Picks the cheapest usable entry for a region centered at `center`:
  // the smallest k whose region contains at least k legitimate nodes
  // besides the one at the center (if any). Falls back to the k_max
  // entry when even it lacks population (probability ~ alpha), in which
  // case `found` is false.
  //
  // `max_rs` caps the region actually used: with few colluders the
  // alpha-constrained size can exceed the node-cache coverage rs3, but
  // participants can only contact nodes they know, so protocols cap at
  // rs3. Shrinking a region only strengthens the guarantee (PC is
  // monotone in rs); the returned entry's rs is the capped value.
  struct Choice {
    Entry entry;
    bool found = true;   // false: even k_max region was underpopulated
    size_t population = 0;  // legitimate nodes available in the region
  };
  Choice ChooseForPoint(const dht::Directory& directory, dht::RingPos center,
                        double max_rs = 1.0) const;

 private:
  KTable(uint64_t n, uint64_t c, double alpha, std::vector<Entry> entries)
      : n_(n), c_(c), alpha_(alpha), entries_(std::move(entries)) {}

  uint64_t n_;
  uint64_t c_;
  double alpha_;
  std::vector<Entry> entries_;
};

}  // namespace sep2p::core

#endif  // SEP2P_CORE_KTABLE_H_
