// Directory: the simulator's ground-truth node table.
//
// Holds every node in structure-of-arrays layout, sorted by ring
// position, and answers the queries the overlays and protocols need:
// successor-of-position, nodes-in-region, nearest-node. Because nodes
// are sorted by position, any region is a contiguous arc, so region
// queries cost O(log N + answer); this is what makes exhaustive
// million-node simulation feasible on one machine.
//
// Memory layout (the "memory diet" for N = 10^6..10^7 nodes): instead
// of an array-of-structs of ~300-byte records with three heap
// allocations each (private key vector, certificate signature vector,
// allocator slack), the directory keeps one dense column per field —
// positions, 256-bit ids, public keys, certificate serials, flag bytes —
// plus two shared fixed-stride blobs for private keys and CA signatures
// (Directory::Columns). A node costs 157 bytes with SimProvider's
// 32-byte signatures and 189 with Ed25519's 64: 153 (185) in the
// columns and blobs, 4 in the Fenwick tree below. No allocation is per
// node; a 10^6-node directory takes about 157 MB.
//
// Construction takes input-order Columns, which a provisioning loop
// fills slot by slot (sim::Network::Build writes every node straight
// into them, on several threads) or which the NodeRecord constructor
// stages from records. It sorts compact (position, input slot) keys,
// 32 bytes each; ties on position order by id. Then it lays the
// columns out in ring order one at a time, freeing each staged column
// once it is laid out, so a build holds two copies of at most one
// column; and it builds the Fenwick tree below in O(N).
//
// Handles are ring ranks: a node's handle (a uint32_t index) is its
// rank in that order, for the lifetime of the directory. No node is
// ever inserted or moved — the simulator models a join as activating a
// pre-provisioned, dead churn-pool node (sim::ChurnDriver) — so
// protocols and caches store handles freely, and every query answers
// with the rank it selects.
//
// Churn (incremental maintenance): alive/dead membership is tracked by
// a Fenwick tree over ring ranks, so SetAlive/MarkCrashed are O(log N)
// and every query (successor, predecessor, region count, k-th alive)
// stays O(log N) even when most of the table is churned out — the
// previous implementation degraded to O(N) scans past dead records. A
// region walk under churn selects its first alive rank, then steps to
// each next one by testing alive bits, selecting again only past a dead
// run longer than the tree is deep: O(log N + answer) when dead runs
// are short, never worse than O(log N) per visited node. An all-alive
// directory keeps a plain rank loop, which the flag tests would slow
// by ~25% (2.0 -> 2.5 µs per 512-node query at N=10^5).
//
// The Directory is *simulator state*, not something a real node would
// hold — real nodes see only their node cache (node/node_cache.h) and
// the DHT routing tables (dht/chord.h).

#ifndef SEP2P_DHT_DIRECTORY_H_
#define SEP2P_DHT_DIRECTORY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/certificate.h"
#include "dht/region.h"

namespace sep2p::dht {

// Build-time input (and snapshot view) of one node. The directory
// decomposes records into columns; it is not stored as-is.
struct NodeRecord {
  NodeId id;
  RingPos pos = 0;  // cached id.ring_pos()
  crypto::PublicKey pub{};
  crypto::PrivateKey priv;  // simulator convenience: nodes sign locally
  crypto::Certificate cert;
  bool alive = true;
};

class Directory {
 public:
  // Node fields in structure-of-arrays layout, one slot per node: dense
  // columns for position, id, public key, serial and flag byte, and two
  // fixed-stride blobs for private keys and CA signatures. A directory
  // keeps its nodes in one, in ring order. A bulk build fills another
  // in input order, node i in slot i, and moves it into the constructor.
  class Columns {
   public:
    Columns() = default;
    // `n` zeroed slots. Private keys take `priv_stride` bytes each and
    // CA signatures `sig_stride` (the signature provider's sizes).
    Columns(size_t n, size_t priv_stride, size_t sig_stride);

    size_t size() const { return positions_.size(); }

    // Writes node `slot`. An empty `priv` or `ca_signature` leaves its
    // bytes zero, and an empty `ca_signature` leaves the has-cert bit
    // clear (a churn-pool node). A call touches only its own slot's
    // bytes, so threads may write different slots concurrently.
    void Write(size_t slot, RingPos pos, const NodeId& id,
               const crypto::PublicKey& pub, uint64_t serial,
               const crypto::PrivateKey& priv,
               const crypto::Signature& ca_signature, bool alive);

   private:
    friend class Directory;

    std::vector<RingPos> positions_;       // 16 B
    std::vector<NodeId> ids_;              // 32 B
    std::vector<crypto::PublicKey> pubs_;  // 32 B
    std::vector<uint64_t> serials_;        // 8 B
    // One byte per node, never std::vector<bool>: concurrent writers
    // of neighbouring slots must not share a word.
    std::vector<uint8_t> flags_;
    std::vector<uint8_t> privs_;      // priv_stride_ B
    std::vector<uint8_t> cert_sigs_;  // sig_stride_ B
    size_t priv_stride_ = 0;
    size_t sig_stride_ = 0;
  };

  // Lays `staged` (input order) out in ring order (position, then id),
  // a column at a time, freeing each staged column once it is laid
  // out.
  explicit Directory(Columns staged);

  // Stages `records` and lays them out as above (tests and
  // micro-benchmarks). The blob strides are the first non-empty private
  // key's and CA signature's sizes.
  explicit Directory(const std::vector<NodeRecord>& records);

  size_t size() const { return columns_.size(); }

  // ---------------------------------------------------------------
  // Column accessors. `index` is a node handle, its ring rank. pos(i) is
  // the ring position of NodeIdForKey(pub(i)), written once at
  // provisioning: the rs3 coverage checks read it instead of hashing.
  RingPos pos(uint32_t index) const { return columns_.positions_[index]; }
  const NodeId& id(uint32_t index) const { return columns_.ids_[index]; }
  const crypto::PublicKey& pub(uint32_t index) const {
    return columns_.pubs_[index];
  }
  uint64_t serial(uint32_t index) const { return columns_.serials_[index]; }
  bool alive(uint32_t index) const {
    return (columns_.flags_[index] & kAliveBit) != 0;
  }
  bool crashed(uint32_t index) const {
    return (columns_.flags_[index] & kCrashedBit) != 0;
  }
  // True once a CA signature has been recorded for the node (initially
  // false for pre-provisioned churn-pool nodes, whose certificates are
  // issued when they join).
  bool has_cert(uint32_t index) const {
    return (columns_.flags_[index] & kCertBit) != 0;
  }

  // Materializes the node's private key / certificate from the shared
  // blobs. Cheap (one small copy); certificates of nodes without a
  // recorded CA signature come back with an empty signature.
  crypto::PrivateKey priv(uint32_t index) const;
  crypto::Certificate cert(uint32_t index) const;

  // Records the CA signature for a node provisioned without one (churn
  // pool issuance at join time). The signature length must match the
  // directory's uniform signature stride.
  void SetCertSignature(uint32_t index, const crypto::Signature& sig);

  // ---------------------------------------------------------------
  // Membership (incremental maintenance; all O(log N)).
  size_t alive_count() const { return alive_count_; }
  void SetAlive(uint32_t index, bool alive);
  // Graceful leave: the node disappears from every query but keeps its
  // handle, identity and credentials (it may rejoin later).
  void RemoveNode(uint32_t index) { SetAlive(index, false); }
  // Crash: like RemoveNode but flagged, so churn drivers and metrics
  // can distinguish failure flavors. Reviving with SetAlive(true)
  // clears the flag.
  void MarkCrashed(uint32_t index);

  // ---------------------------------------------------------------
  // Queries (handles in, handles out).

  // Index of the first alive node at or clockwise-after `pos` (Chord
  // successor). Returns nullopt when no node is alive.
  std::optional<uint32_t> SuccessorIndex(RingPos pos) const;

  // Index of the last alive node strictly before `pos` (Chord
  // predecessor), wrapping. Returns nullopt when no node is alive.
  std::optional<uint32_t> PredecessorIndex(RingPos pos) const;

  // Index of the alive node minimizing ring distance to `pos`.
  std::optional<uint32_t> NearestIndex(RingPos pos) const;

  // Indices of alive nodes whose id lies in `region`, in ring order
  // starting from the region's counter-clockwise edge.
  std::vector<uint32_t> NodesInRegion(const Region& region) const;

  // Same, but stops early once `limit` nodes are collected (0 = no limit).
  std::vector<uint32_t> NodesInRegion(const Region& region,
                                      size_t limit) const;

  // Number of alive nodes in `region` without materializing them.
  // O(log N) under any churn state (Fenwick rank counts).
  size_t CountInRegion(const Region& region) const;

  // Index lookup by node id; nullopt if absent (alive or not).
  std::optional<uint32_t> IndexOf(const NodeId& id) const;

  // Handle of the k-th alive node in ring order (0-based); nullopt when
  // k >= alive_count(). O(log N) — churn drivers use it to sample a
  // uniform alive victim without scanning.
  std::optional<uint32_t> NthAlive(size_t k) const;

  // First alive node with position in the half-open interval [lo, hi),
  // NOT wrapping; hi == 0 means "up to the end of the space" (2^128).
  // Used by Kademlia's trie descent, whose buckets are dyadic intervals.
  std::optional<uint32_t> FirstAliveInRange(RingPos lo, RingPos hi) const;

  // Number of alive nodes in [lo, hi) (same conventions).
  size_t CountAliveInRange(RingPos lo, RingPos hi) const;

 private:
  static constexpr uint8_t kAliveBit = 1;
  static constexpr uint8_t kCrashedBit = 2;
  static constexpr uint8_t kCertBit = 4;

  // First ring rank with position >= `pos` (possibly size()).
  size_t RankLowerBound(RingPos pos) const;
  // First ring rank with position > `pos` (same conventions).
  size_t RankUpperBound(RingPos pos) const;

  // Fenwick tree over ring ranks (1 per alive node).
  void FenwickAdd(size_t rank, int delta);
  // Number of alive nodes among ranks [0, rank).
  size_t AliveBefore(size_t rank) const;
  // Ring rank of the k-th alive node (0-based); requires k < alive_count_.
  uint32_t SelectAlive(size_t k) const;
  void RebuildFenwick();

  template <typename Fn>
  void ForEachAliveInRegion(const Region& region, Fn&& fn) const;

  // In ring order. The position column is dense (16 B a node) because
  // its binary search is the hottest directory operation (Chord routing
  // does dozens per hop).
  Columns columns_;

  // ----- alive tracking -----
  // fenwick_[r] (1-based) partial sums of alive flags in rank order:
  // O(log N) membership updates and O(log N) successor/count/select
  // queries regardless of how many nodes are churned out.
  std::vector<uint32_t> fenwick_;
  size_t alive_count_ = 0;
};

}  // namespace sep2p::dht

#endif  // SEP2P_DHT_DIRECTORY_H_
