#include "node/join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "dht/region.h"
#include "net/sim_network.h"
#include "node/node_cache.h"
#include "tests/test_util.h"

namespace sep2p::node {
namespace {

// Records what the owner-side hook sees and keeps every other entry.
class OmitEveryOther final : public core::AttackHooks {
 public:
  void OwnerOmitsEntries(uint32_t owner,
                         const std::vector<uint32_t>& attestors,
                         std::vector<uint32_t>* entries) override {
    owners.push_back(owner);
    planned = attestors;
    std::vector<uint32_t> kept;
    for (size_t i = 0; i < entries->size(); i += 2) {
      kept.push_back((*entries)[i]);
    }
    *entries = kept;
  }

  std::vector<uint32_t> owners;
  std::vector<uint32_t> planned;
};

class JoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = test::MakeNetwork(/*n=*/2000, /*c_fraction=*/0.01,
                                 /*cache=*/200);
    ASSERT_NE(network_, nullptr);
    ctx_ = network_->context();
    transport_ = std::make_unique<net::SimNetwork>(
        static_cast<uint32_t>(network_->directory().size()),
        net::kIdealLink, net::RetryPolicy{}, /*seed=*/0);
  }

  // What Join must return, built from the neighbours' real caches in
  // received order (see CacheEqualsFilteredNeighbourUnion). `stride` 2
  // mirrors OmitEveryOther, which keeps each owner's entries at even
  // positions.
  std::vector<uint32_t> ReceivedUnion(uint32_t newcomer, size_t stride) {
    const dht::Directory& dir = network_->directory();
    const dht::RingPos pos = dir.pos(newcomer);
    const dht::Region coverage = dht::Region::Centered(pos, ctx_.rs3);
    std::vector<uint32_t> received;
    for (uint32_t neighbour :
         {*dir.SuccessorIndex(pos + 1), *dir.PredecessorIndex(pos)}) {
      const std::vector<uint32_t> entries =
          NodeCache(&dir, neighbour, ctx_.rs3).Entries();
      for (size_t i = 0; i < entries.size(); i += stride) {
        received.push_back(entries[i]);
      }
      received.push_back(neighbour);
    }
    std::erase_if(received, [&](uint32_t idx) {
      return idx == newcomer || !coverage.Contains(dir.pos(idx));
    });
    std::vector<uint32_t> out;
    for (uint32_t idx : received) {
      if (std::find(out.begin(), out.end(), idx) == out.end()) {
        out.push_back(idx);
      }
    }
    return out;
  }

  // Joins `newcomer` plainly and, if `omit`, once more with every owner
  // omitting half its entries; both caches must be the received union.
  void ExpectReceivedUnion(uint32_t newcomer, bool omit) {
    SCOPED_TRACE(newcomer);
    JoinProtocol join(ctx_, *transport_);
    auto outcome = join.Join(newcomer, rng_);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->cache, ReceivedUnion(newcomer, 1));
    if (omit) {
      OmitEveryOther hook;
      auto omitted = join.Join(newcomer, rng_, &hook);
      ASSERT_TRUE(omitted.ok()) << omitted.status().ToString();
      EXPECT_EQ(omitted->cache, ReceivedUnion(newcomer, 2));
    }
  }

  void RemoveAFifth(util::Rng& draw) {
    dht::Directory& dir = network_->directory();
    for (uint32_t i = 0; i < dir.size(); ++i) {
      if (draw.NextDouble() < 0.2) dir.RemoveNode(i);
    }
  }

  std::unique_ptr<sim::Network> network_;
  core::ProtocolContext ctx_;
  std::unique_ptr<net::SimNetwork> transport_;
  util::Rng rng_{41};
};

TEST_F(JoinTest, AttestedCacheVerifies) {
  JoinProtocol join(ctx_, *transport_);
  auto cache = join.AttestCache(15, rng_);
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  EXPECT_GE(cache->k(), 2);
  EXPECT_FALSE(cache->entries.empty());
  auto cost = VerifyAttestedCache(ctx_, *cache);
  ASSERT_TRUE(cost.ok()) << cost.status().ToString();
  EXPECT_DOUBLE_EQ(cost->crypto_work, 2.0 * cache->k() + 1);
}

TEST_F(JoinTest, AttestedEntriesMatchTheOwnersRealCache) {
  JoinProtocol join(ctx_, *transport_);
  std::vector<uint32_t> handles;
  auto cache = join.AttestCache(99, rng_, nullptr, &handles);
  ASSERT_TRUE(cache.ok());
  NodeCache truth(&network_->directory(), 99, ctx_.rs3);
  std::vector<crypto::PublicKey> expected;
  for (uint32_t idx : truth.Entries()) {
    expected.push_back(network_->directory().pub(idx));
  }
  EXPECT_EQ(cache->entries, expected);
  EXPECT_EQ(handles, truth.Entries());
}

TEST_F(JoinTest, TamperedEntryListRejected) {
  JoinProtocol join(ctx_, *transport_);
  auto cache = join.AttestCache(15, rng_);
  ASSERT_TRUE(cache.ok());
  AttestedCache forged = *cache;
  // Sneak a fabricated node (a Sybil) into the attested cache.
  crypto::PublicKey fake{};
  fake[3] = 0x33;
  forged.entries.push_back(fake);
  EXPECT_FALSE(VerifyAttestedCache(ctx_, forged).ok());
}

TEST_F(JoinTest, AttestationsSignTheCacheDigest) {
  JoinProtocol join(ctx_, *transport_);
  auto cache = join.AttestCache(15, rng_);
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  const std::vector<uint8_t> bytes = cache->SignedBytes();
  const crypto::Hash256 digest =
      crypto::Hash256::Of(bytes.data(), bytes.size());
  for (const AttestedCache::Attestation& att : cache->attestations) {
    EXPECT_TRUE(ctx_.provider->Verify(att.cert.subject, digest.bytes().data(),
                                      digest.bytes().size(), att.sig));
    EXPECT_FALSE(ctx_.provider->Verify(att.cert.subject, bytes, att.sig));
  }
  // The same attestors' valid signatures over the full preimage are not
  // attestations.
  const dht::Directory& dir = network_->directory();
  AttestedCache preimage_signed = *cache;
  for (AttestedCache::Attestation& att : preimage_signed.attestations) {
    std::optional<uint32_t> attestor =
        dir.IndexOf(att.cert.NodeIdFromSubject());
    ASSERT_TRUE(attestor.has_value());
    auto sig = ctx_.SignAs(*attestor, bytes);
    ASSERT_TRUE(sig.ok());
    att.sig = *sig;
  }
  auto verdict = VerifyAttestedCache(ctx_, preimage_signed);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().code(), StatusCode::kSecurityViolation);
  EXPECT_EQ(verdict.status().message(), "attested cache: bad signature");
}

TEST_F(JoinTest, ForeignAttestorRejected) {
  JoinProtocol join(ctx_, *transport_);
  auto cache = join.AttestCache(15, rng_);
  ASSERT_TRUE(cache.ok());
  // A node far from the owner signs the same digest — legit signature,
  // wrong region.
  const dht::Directory& dir = network_->directory();
  dht::Region r1 = dht::Region::Centered(dir.pos(15), cache->rs1);
  uint32_t outsider = 0;
  for (uint32_t i = 0; i < dir.size(); ++i) {
    if (!r1.Contains(dir.pos(i))) {
      outsider = i;
      break;
    }
  }
  const std::vector<uint8_t> bytes = cache->SignedBytes();
  const crypto::Hash256 digest =
      crypto::Hash256::Of(bytes.data(), bytes.size());
  auto sig = ctx_.SignAs(outsider, digest);
  ASSERT_TRUE(sig.ok());
  ASSERT_TRUE(ctx_.CheckSignature(dir.pub(outsider), digest, *sig));
  AttestedCache forged = *cache;
  forged.attestations[0] = {dir.cert(outsider), *sig};
  auto verdict = VerifyAttestedCache(ctx_, forged);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().message(),
            "attested cache: attestor not legitimate");
}

TEST_F(JoinTest, RepeatedAttestorRejected) {
  JoinProtocol join(ctx_, *transport_);
  auto cache = join.AttestCache(15, rng_);
  ASSERT_TRUE(cache.ok());
  ASSERT_GE(cache->k(), 2);
  // One legitimate attestor's valid signature, presented k times.
  AttestedCache forged = *cache;
  for (AttestedCache::Attestation& att : forged.attestations) {
    att = cache->attestations[0];
  }
  auto verdict = VerifyAttestedCache(ctx_, forged);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().code(), StatusCode::kSecurityViolation);
}

TEST_F(JoinTest, RegionSizeOutsideAlphaBoundRejected) {
  JoinProtocol join(ctx_, *transport_);
  auto cache = join.AttestCache(15, rng_);
  ASSERT_TRUE(cache.ok());
  for (double rs :
       test::RegionSizesOutsideAlphaBound(*ctx_.ktable, cache->k())) {
    SCOPED_TRACE(rs);
    AttestedCache forged = *cache;
    forged.rs1 = rs;
    auto verdict = VerifyAttestedCache(ctx_, forged);
    ASSERT_FALSE(verdict.ok());
    EXPECT_EQ(verdict.status().code(), StatusCode::kSecurityViolation);
    EXPECT_NE(verdict.status().message().find("alpha bound"),
              std::string::npos)
        << verdict.status().ToString();
  }
}

TEST_F(JoinTest, CrashedAttestorIsReplacedBySpareCandidate) {
  const dht::Directory& dir = network_->directory();
  // The shuffle is AttestCache's only draw, so the same rng state plans
  // the same attestors: a probe run on a separate link shows them.
  util::Rng probe_rng = rng_;
  net::SimNetwork probe(static_cast<uint32_t>(dir.size()), net::kIdealLink,
                        net::RetryPolicy{}, /*seed=*/0);
  auto planned = JoinProtocol(ctx_, probe).AttestCache(15, probe_rng);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  ASSERT_GE(planned->k(), 2);
  const crypto::PublicKey crashed_key = planned->attestations[1].cert.subject;
  std::optional<uint32_t> crashed =
      dir.IndexOf(planned->attestations[1].cert.NodeIdFromSubject());
  ASSERT_TRUE(crashed.has_value());

  transport_->CrashAt(*crashed, 0);
  auto cache = JoinProtocol(ctx_, *transport_).AttestCache(15, rng_);
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  EXPECT_EQ(cache->k(), planned->k());
  EXPECT_EQ(cache->entries, planned->entries);
  for (const AttestedCache::Attestation& att : cache->attestations) {
    EXPECT_NE(att.cert.subject, crashed_key);
  }
  EXPECT_TRUE(VerifyAttestedCache(ctx_, *cache).ok());
  EXPECT_EQ(transport_->stats().quorum_replacements, 1u);
  EXPECT_EQ(probe.stats().quorum_replacements, 0u);
}

TEST_F(JoinTest, AttestCacheUnavailableWhenEveryCandidateCrashed) {
  const dht::Directory& dir = network_->directory();
  core::KTable::Choice choice =
      ctx_.ktable->ChooseForPoint(dir, dir.pos(15), ctx_.rs3);
  ASSERT_TRUE(choice.found);
  dht::Region r1 = dht::Region::Centered(dir.pos(15), choice.entry.rs);
  for (uint32_t idx : dir.NodesInRegion(r1)) {
    if (idx != 15) transport_->CrashAt(idx, 0);
  }
  auto cache = JoinProtocol(ctx_, *transport_).AttestCache(15, rng_);
  ASSERT_FALSE(cache.ok());
  EXPECT_EQ(cache.status().code(), StatusCode::kUnavailable);
  EXPECT_GT(transport_->stats().timeouts, 0u);
}

TEST_F(JoinTest, OwnerOmissionIsSignedByThePlannedAttestors) {
  const dht::Directory& dir = network_->directory();
  OmitEveryOther hook;
  auto cache = JoinProtocol(ctx_, *transport_).AttestCache(15, rng_, &hook);
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  ASSERT_EQ(hook.owners, std::vector<uint32_t>{15});
  // On an ideal link nobody is replaced: the planned attestors sign.
  ASSERT_EQ(hook.planned.size(), static_cast<size_t>(cache->k()));
  for (int i = 0; i < cache->k(); ++i) {
    EXPECT_EQ(cache->attestations[i].cert.subject, dir.pub(hook.planned[i]));
  }
  // They signed the reduced list, so the omission verifies clean.
  const size_t full = NodeCache(&dir, 15, ctx_.rs3).Entries().size();
  EXPECT_EQ(cache->entries.size(), (full + 1) / 2);
  EXPECT_TRUE(VerifyAttestedCache(ctx_, *cache).ok());
}

TEST_F(JoinTest, JoinConsultsTheHookForBothNeighbours) {
  OmitEveryOther hook;
  auto outcome = JoinProtocol(ctx_, *transport_).Join(100, rng_, &hook);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(hook.owners, (std::vector<uint32_t>{outcome->successor,
                                                outcome->predecessor}));

  // The default hooks are honest: the same draws give the same cache.
  util::Rng a(5), b(5);
  core::AttackHooks honest;
  auto plain = JoinProtocol(ctx_, *transport_).Join(100, a);
  auto hooked = JoinProtocol(ctx_, *transport_).Join(100, b, &honest);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(hooked.ok());
  EXPECT_EQ(plain->cache, hooked->cache);
}

TEST_F(JoinTest, StaleAttestationRejected) {
  JoinProtocol join(ctx_, *transport_);
  auto cache = join.AttestCache(15, rng_);
  ASSERT_TRUE(cache.ok());
  core::ProtocolContext later = ctx_;
  later.now = ctx_.now + ctx_.max_timestamp_age + 1;
  EXPECT_FALSE(VerifyAttestedCache(later, *cache).ok());
}

TEST_F(JoinTest, JoinBuildsNearCompleteValidCache) {
  JoinProtocol join(ctx_, *transport_);
  const uint32_t newcomer = 777;
  auto outcome = join.Join(newcomer, rng_);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  // Everything in the joined cache is genuinely legitimate w.r.t. the
  // newcomer's coverage (validity)...
  NodeCache truth(&network_->directory(), newcomer, ctx_.rs3);
  std::vector<uint32_t> expected = truth.Entries();
  std::sort(expected.begin(), expected.end());
  for (uint32_t idx : outcome->cache) {
    EXPECT_TRUE(std::binary_search(expected.begin(), expected.end(), idx));
  }
  // ...and covers nearly all of it (the neighbors' caches overlap the
  // newcomer's region except for slivers at the far edges).
  EXPECT_GE(outcome->cache.size(), expected.size() * 8 / 10);
}

// The joined cache is exactly the neighbours' attested entries plus the
// neighbours themselves, kept where they fall in the newcomer's rs3
// coverage, minus the newcomer, in received order: the successor's
// entries, the successor, the predecessor's entries, the predecessor,
// each at its first occurrence. The churn digest folds only whether
// each join succeeded, so these pin the union.
TEST_F(JoinTest, CacheEqualsFilteredNeighbourUnion) {
  const dht::Directory& dir = network_->directory();
  util::Rng draw(43);
  RemoveAFifth(draw);
  // Each neighbour comes after its own entries, which lie on both sides
  // of it, so received order is not handle order.
  bool unsorted = false;
  for (int i = 0; i < 60; ++i) {
    const uint32_t newcomer =
        *dir.NthAlive(draw.NextUint64(dir.alive_count()));
    ExpectReceivedUnion(newcomer, /*omit=*/i % 10 == 0);
    const std::vector<uint32_t> expected = ReceivedUnion(newcomer, 1);
    unsorted = unsorted || !std::is_sorted(expected.begin(), expected.end());
  }
  EXPECT_TRUE(unsorted);
}

// The lowest-positioned alive node's rs3 coverage wraps ring position 0:
// its predecessor is the highest-positioned alive node.
TEST_F(JoinTest, LowestNewcomerCoverageWrapsPositionZero) {
  const dht::Directory& dir = network_->directory();
  const uint32_t lowest = *dir.NthAlive(0);
  const uint32_t highest = *dir.NthAlive(dir.alive_count() - 1);
  const dht::Region coverage =
      dht::Region::Centered(dir.pos(lowest), ctx_.rs3);
  ASSERT_TRUE(coverage.Contains(dir.pos(highest)));
  ExpectReceivedUnion(lowest, /*omit=*/true);
  JoinProtocol join(ctx_, *transport_);
  auto outcome = join.Join(lowest, rng_);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->predecessor, highest);
  // Entries from both sides of position 0.
  const std::vector<uint32_t>& cache = outcome->cache;
  EXPECT_NE(std::find(cache.begin(), cache.end(), highest), cache.end());
  EXPECT_NE(std::find(cache.begin(), cache.end(), outcome->successor),
            cache.end());
}

TEST_F(JoinTest, JoinCostsScaleWithCoverage) {
  JoinProtocol join(ctx_, *transport_);
  auto outcome = join.Join(42, rng_);
  ASSERT_TRUE(outcome.ok());
  // Announcement dominates: ~cache_size certificate checks.
  EXPECT_GT(outcome->cost.crypto_work, 100);   // ~200-entry coverage
  EXPECT_GT(outcome->cost.msg_work, 100);
  // But the newcomer's own critical path stays short.
  EXPECT_LT(outcome->cost.crypto_latency, 40);
}

TEST_F(JoinTest, NeighborsAreAdjacentOnTheRing) {
  JoinProtocol join(ctx_, *transport_);
  auto outcome = join.Join(100, rng_);
  ASSERT_TRUE(outcome.ok());
  EXPECT_NE(outcome->successor, 100u);
  EXPECT_NE(outcome->predecessor, 100u);
  EXPECT_NE(outcome->successor, outcome->predecessor);
}

}  // namespace
}  // namespace sep2p::node
