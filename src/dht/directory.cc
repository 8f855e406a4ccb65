#include "dht/directory.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace sep2p::dht {

namespace {

Directory::Columns Stage(const std::vector<NodeRecord>& records) {
  // Blob strides: the first non-empty private key's and CA signature's
  // sizes (uniform within one directory).
  size_t priv_stride = 0;
  size_t sig_stride = 0;
  for (const NodeRecord& record : records) {
    if (priv_stride == 0) priv_stride = record.priv.data.size();
    if (sig_stride == 0) sig_stride = record.cert.ca_signature.size();
  }
  Directory::Columns staged(records.size(), priv_stride, sig_stride);
  for (size_t i = 0; i < records.size(); ++i) {
    const NodeRecord& r = records[i];
    staged.Write(i, r.pos, r.id, r.pub, r.cert.serial, r.priv,
                 r.cert.ca_signature, r.alive);
  }
  return staged;
}

// `column` (`stride` elements per node, input order) in ring order:
// rank r holds input slot order[r]. The input is freed on return.
template <typename T>
std::vector<T> InRingOrder(std::vector<T> column, size_t stride,
                           const std::vector<uint32_t>& order) {
  std::vector<T> out(column.size());
  for (size_t r = 0; r < order.size(); ++r) {
    std::copy_n(column.begin() + static_cast<ptrdiff_t>(order[r] * stride),
                stride, out.begin() + static_cast<ptrdiff_t>(r * stride));
  }
  return out;
}

}  // namespace

Directory::Columns::Columns(size_t n, size_t priv_stride, size_t sig_stride)
    : positions_(n),
      ids_(n),
      pubs_(n),
      serials_(n),
      flags_(n),
      privs_(priv_stride * n),
      cert_sigs_(sig_stride * n),
      priv_stride_(priv_stride),
      sig_stride_(sig_stride) {}

void Directory::Columns::Write(size_t slot, RingPos pos, const NodeId& id,
                               const crypto::PublicKey& pub, uint64_t serial,
                               const crypto::PrivateKey& priv,
                               const crypto::Signature& ca_signature,
                               bool alive) {
  positions_[slot] = pos;
  ids_[slot] = id;
  pubs_[slot] = pub;
  serials_[slot] = serial;
  uint8_t flags = alive ? kAliveBit : 0;
  if (!priv.data.empty()) {
    assert(priv.data.size() == priv_stride_);
    std::copy(priv.data.begin(), priv.data.end(),
              privs_.begin() + static_cast<ptrdiff_t>(priv_stride_ * slot));
  }
  if (!ca_signature.empty()) {
    assert(ca_signature.size() == sig_stride_);
    std::copy(ca_signature.begin(), ca_signature.end(),
              cert_sigs_.begin() + static_cast<ptrdiff_t>(sig_stride_ * slot));
    flags |= kCertBit;
  }
  flags_[slot] = flags;
}

Directory::Directory(const std::vector<NodeRecord>& records)
    : Directory(Stage(records)) {}

Directory::Directory(Columns staged) {
  const size_t n = staged.size();
  // Ring rank -> input slot, while the columns are laid out.
  std::vector<uint32_t> order(n);
  {
    // Ring order over compact (pos, input slot) keys rather than the
    // staged rows; equal positions order by id. The keys are freed
    // before any column is laid out.
    struct RankKey {
      RingPos pos;
      uint32_t input;
    };
    std::vector<RankKey> keys(n);
    for (size_t i = 0; i < n; ++i) {
      keys[i] = {staged.positions_[i], static_cast<uint32_t>(i)};
    }
    std::sort(keys.begin(), keys.end(),
              [&staged](const RankKey& a, const RankKey& b) {
                if (a.pos != b.pos) return a.pos < b.pos;
                return staged.ids_[a.input] < staged.ids_[b.input];
              });
    for (size_t r = 0; r < n; ++r) order[r] = keys[r].input;
  }
  // One column at a time, each staged column freed once laid out, so
  // the build never holds two copies of more than one column.
  Columns& c = columns_;
  c.priv_stride_ = staged.priv_stride_;
  c.sig_stride_ = staged.sig_stride_;
  c.positions_ = InRingOrder(std::move(staged.positions_), 1, order);
  c.ids_ = InRingOrder(std::move(staged.ids_), 1, order);
  c.pubs_ = InRingOrder(std::move(staged.pubs_), 1, order);
  c.serials_ = InRingOrder(std::move(staged.serials_), 1, order);
  c.flags_ = InRingOrder(std::move(staged.flags_), 1, order);
  c.privs_ = InRingOrder(std::move(staged.privs_), c.priv_stride_, order);
  c.cert_sigs_ =
      InRingOrder(std::move(staged.cert_sigs_), c.sig_stride_, order);
  RebuildFenwick();
}

crypto::PrivateKey Directory::priv(uint32_t index) const {
  crypto::PrivateKey key;
  const size_t stride = columns_.priv_stride_;
  if (stride == 0) return key;
  const uint8_t* base = columns_.privs_.data() + stride * index;
  key.data.assign(base, base + stride);
  return key;
}

crypto::Certificate Directory::cert(uint32_t index) const {
  crypto::Certificate cert;
  cert.subject = columns_.pubs_[index];
  cert.serial = columns_.serials_[index];
  const size_t stride = columns_.sig_stride_;
  if (has_cert(index) && stride != 0) {
    const uint8_t* base = columns_.cert_sigs_.data() + stride * index;
    cert.ca_signature.assign(base, base + stride);
  }
  return cert;
}

void Directory::SetCertSignature(uint32_t index,
                                 const crypto::Signature& sig) {
  assert(!sig.empty());
  Columns& c = columns_;
  if (c.sig_stride_ == 0) {
    c.sig_stride_ = sig.size();
    c.cert_sigs_.resize(c.sig_stride_ * size(), 0);
  }
  assert(sig.size() == c.sig_stride_);
  std::copy(sig.begin(), sig.end(),
            c.cert_sigs_.begin() +
                static_cast<ptrdiff_t>(c.sig_stride_ * index));
  c.flags_[index] |= kCertBit;
}

void Directory::SetAlive(uint32_t index, bool alive) {
  uint8_t& flags = columns_.flags_[index];
  const bool was = (flags & kAliveBit) != 0;
  if (was == alive) {
    if (alive) flags &= static_cast<uint8_t>(~kCrashedBit);
    return;
  }
  if (alive) {
    flags |= kAliveBit;
    flags &= static_cast<uint8_t>(~kCrashedBit);
    ++alive_count_;
    FenwickAdd(index, +1);
  } else {
    flags &= static_cast<uint8_t>(~kAliveBit);
    --alive_count_;
    FenwickAdd(index, -1);
  }
}

void Directory::MarkCrashed(uint32_t index) {
  SetAlive(index, false);
  columns_.flags_[index] |= kCrashedBit;
}

// --------------------------------------------------------------- ranks

size_t Directory::RankLowerBound(RingPos pos) const {
  const std::vector<RingPos>& p = columns_.positions_;
  return static_cast<size_t>(std::lower_bound(p.begin(), p.end(), pos) -
                             p.begin());
}

size_t Directory::RankUpperBound(RingPos pos) const {
  const std::vector<RingPos>& p = columns_.positions_;
  return static_cast<size_t>(std::upper_bound(p.begin(), p.end(), pos) -
                             p.begin());
}

// ------------------------------------------------------------- fenwick

void Directory::RebuildFenwick() {
  // Linear build: each node adds its own count, then passes its partial
  // sum up to the one parent that covers it. Counts the alive nodes.
  const size_t n = size();
  fenwick_.assign(n + 1, 0);
  alive_count_ = 0;
  for (size_t i = 1; i <= n; ++i) {
    if (alive(i - 1)) {
      ++fenwick_[i];
      ++alive_count_;
    }
    const size_t parent = i + (i & (~i + 1));
    if (parent <= n) fenwick_[parent] += fenwick_[i];
  }
}

void Directory::FenwickAdd(size_t rank, int delta) {
  for (size_t i = rank + 1; i < fenwick_.size(); i += i & (~i + 1)) {
    fenwick_[i] = static_cast<uint32_t>(static_cast<int64_t>(fenwick_[i]) +
                                        delta);
  }
}

size_t Directory::AliveBefore(size_t rank) const {
  size_t sum = 0;
  for (size_t i = rank; i > 0; i -= i & (~i + 1)) sum += fenwick_[i];
  return sum;
}

uint32_t Directory::SelectAlive(size_t k) const {
  assert(k < alive_count_);
  // Binary lifting over the implicit Fenwick prefix sums: find the
  // smallest rank whose prefix count is k + 1.
  size_t pos = 0;
  size_t remaining = k + 1;
  size_t mask = 1;
  while ((mask << 1) < fenwick_.size()) mask <<= 1;
  for (; mask > 0; mask >>= 1) {
    size_t next = pos + mask;
    if (next < fenwick_.size() && fenwick_[next] < remaining) {
      pos = next;
      remaining -= fenwick_[next];
    }
  }
  // Ranks are 0-based; `pos` is the last rank with prefix < k+1.
  return static_cast<uint32_t>(pos);
}

// ------------------------------------------------------------- queries

std::optional<uint32_t> Directory::SuccessorIndex(RingPos pos) const {
  if (alive_count_ == 0) return std::nullopt;
  const size_t before = AliveBefore(RankLowerBound(pos));
  const size_t k = before == alive_count_ ? 0 : before;  // wrap
  return SelectAlive(k);
}

std::optional<uint32_t> Directory::PredecessorIndex(RingPos pos) const {
  if (alive_count_ == 0) return std::nullopt;
  const size_t r = RankLowerBound(pos);
  const size_t before = AliveBefore(r);
  if (before > 0) return SelectAlive(before - 1);
  // Wrap: prefer the last alive node with position strictly after
  // `pos`; nodes at exactly `pos` are not "strictly before".
  const size_t at_or_before = AliveBefore(RankUpperBound(pos));
  if (alive_count_ > at_or_before) return SelectAlive(alive_count_ - 1);
  // Degenerate single-position ring: every alive node sits at `pos`.
  return SelectAlive(0);
}

std::optional<uint32_t> Directory::NearestIndex(RingPos pos) const {
  std::optional<uint32_t> succ = SuccessorIndex(pos);
  if (!succ.has_value()) return std::nullopt;
  // The nearest node is either the successor or the alive predecessor.
  const size_t before = AliveBefore(RankLowerBound(pos));
  const uint32_t prev =
      before > 0 ? SelectAlive(before - 1) : SelectAlive(alive_count_ - 1);
  const RingPos d_pred = RingDistance(columns_.positions_[prev], pos);
  const RingPos d_succ = RingDistance(columns_.positions_[*succ], pos);
  return d_pred < d_succ ? prev : *succ;
}

template <typename Fn>
void Directory::ForEachAliveInRegion(const Region& region, Fn&& fn) const {
  if (alive_count_ == 0) return;
  const RingPos kMaxHalf = static_cast<RingPos>(1) << 127;
  const RingPos begin = region.begin();
  const bool full_ring = region.half_width() >= kMaxHalf;
  // A point p is inside iff its clockwise distance from the region's
  // start is at most the full width (|p - center| <= half_width).
  const RingPos width = region.half_width() << 1;

  const size_t m = size();
  const size_t start = RankLowerBound(begin);
  if (alive_count_ == m) {
    // No churn: walk ranks directly. The walk below would be ~25%
    // slower here, where selection and the figure harnesses run.
    for (size_t step = 0; step < m; ++step) {
      size_t r = start + step;
      if (r >= m) r -= m;
      if (!full_ring && ClockwiseDistance(begin, pos(r)) > width) break;
      if (!fn(r)) return;
    }
    return;
  }
  // Under churn: one Fenwick select finds the first alive rank; each
  // next one is found by testing alive bits rank by rank. A dead run
  // longer than the select's depth ends the scan with a select for the
  // next alive ordinal `k`, so a visit costs O(1) past short dead runs
  // and never more than about two selects.
  const size_t depth = std::bit_width(m);  // SelectAlive's step count
  size_t k = AliveBefore(start);
  if (k == alive_count_) k = 0;  // wrap
  uint32_t r = SelectAlive(k);
  for (size_t visited = 1;; ++visited) {
    if (!full_ring && ClockwiseDistance(begin, pos(r)) > width) return;
    if (!fn(r) || visited == alive_count_) return;
    if (++k == alive_count_) k = 0;
    size_t scanned = 0;
    do {
      if (++r == m) r = 0;
    } while (!alive(r) && ++scanned < depth);
    if (!alive(r)) r = SelectAlive(k);
  }
}

std::vector<uint32_t> Directory::NodesInRegion(const Region& region) const {
  return NodesInRegion(region, 0);
}

std::vector<uint32_t> Directory::NodesInRegion(const Region& region,
                                               size_t limit) const {
  std::vector<uint32_t> out;
  ForEachAliveInRegion(region, [&](uint32_t index) {
    out.push_back(index);
    return limit == 0 || out.size() < limit;
  });
  return out;
}

size_t Directory::CountInRegion(const Region& region) const {
  if (size() == 0) return 0;
  const RingPos kMaxHalf = static_cast<RingPos>(1) << 127;
  if (region.half_width() >= kMaxHalf) return alive_count_;
  // Members are exactly the alive nodes with pos in [begin, begin +
  // width] on the ring — a contiguous rank range (possibly wrapping),
  // so two Fenwick prefix counts answer it in O(log N) under any churn
  // state.
  const RingPos begin = region.begin();
  const RingPos end = begin + (region.half_width() << 1);  // wraps
  const size_t lo = AliveBefore(RankLowerBound(begin));
  const size_t hi = AliveBefore(RankUpperBound(end));
  if (begin <= end) return hi - lo;
  return (alive_count_ - lo) + hi;
}

std::optional<uint32_t> Directory::FirstAliveInRange(RingPos lo,
                                                     RingPos hi) const {
  const size_t lo_rank = RankLowerBound(lo);
  const size_t hi_rank = hi == 0 ? size() : RankLowerBound(hi);
  const size_t a = AliveBefore(lo_rank);
  const size_t b = AliveBefore(hi_rank);
  if (b <= a) return std::nullopt;
  return SelectAlive(a);
}

size_t Directory::CountAliveInRange(RingPos lo, RingPos hi) const {
  const size_t lo_rank = RankLowerBound(lo);
  const size_t hi_rank = hi == 0 ? size() : RankLowerBound(hi);
  if (hi_rank <= lo_rank) return 0;
  return AliveBefore(hi_rank) - AliveBefore(lo_rank);
}

std::optional<uint32_t> Directory::NthAlive(size_t k) const {
  if (k >= alive_count_) return std::nullopt;
  return SelectAlive(k);
}

std::optional<uint32_t> Directory::IndexOf(const NodeId& id) const {
  const RingPos pos = id.ring_pos();
  for (size_t r = RankLowerBound(pos);
       r < size() && columns_.positions_[r] == pos; ++r) {
    if (columns_.ids_[r] == id) return static_cast<uint32_t>(r);
  }
  return std::nullopt;
}

}  // namespace sep2p::dht
