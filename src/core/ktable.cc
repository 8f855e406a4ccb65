#include "core/ktable.h"

#include <algorithm>

#include "core/probability.h"
#include "dht/region.h"

namespace sep2p::core {

KTable KTable::Build(uint64_t n, uint64_t c, double alpha) {
  std::vector<Entry> entries;
  // k = c+1 always satisfies PC(>=k, c, rs) = 0 for any rs, so the loop
  // terminates there at the latest.
  for (int k = 2;; ++k) {
    Entry entry;
    entry.k = k;
    entry.rs = SolveRegionSizeForK(k, c, alpha);
    entries.push_back(entry);
    // Stop at the first entry whose region is populated enough that any
    // node finds k legitimate nodes with probability >= 1 - alpha.
    if (PL(k, n, entry.rs) >= 1.0 - alpha) break;
    if (static_cast<uint64_t>(k) > c) break;  // rs = 1.0, cannot grow more
  }
  return KTable(n, c, alpha, std::move(entries));
}

bool KTable::AdmitsRegion(int k, double rs) const {
  for (const Entry& entry : entries_) {
    if (entry.k == k) return rs > 0 && rs <= entry.rs * (1 + 1e-9);
  }
  return false;
}

KTable::Choice KTable::ChooseForPoint(const dht::Directory& directory,
                                      dht::RingPos center,
                                      double max_rs) const {
  Choice choice;
  // The center node itself (if the point is a node location) must not
  // count towards its own quorum: it needs k *other* legitimate nodes.
  // Whether a node sits exactly at the center does not depend on the
  // entry, so it is resolved once for the whole scan.
  const std::optional<uint32_t> self = directory.SuccessorIndex(center);
  const bool self_at_center =
      self.has_value() && directory.pos(*self) == center;
  for (const Entry& base : entries_) {
    Entry entry = base;
    entry.rs = std::min(entry.rs, max_rs);
    dht::Region region = dht::Region::Centered(center, entry.rs);
    size_t population = directory.CountInRegion(region);
    size_t usable = population;
    if (self_at_center && usable > 0) {
      --usable;
    }
    if (usable >= static_cast<size_t>(entry.k)) {
      choice.entry = entry;
      choice.population = usable;
      choice.found = true;
      return choice;
    }
    choice.entry = entry;  // remember the largest entry tried
    choice.population = usable;
  }
  choice.found = false;  // probability ~ alpha: node cannot participate
  return choice;
}

}  // namespace sep2p::core
