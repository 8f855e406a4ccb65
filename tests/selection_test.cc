#include "core/selection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <utility>

#include "core/messages.h"
#include "core/protocol_service.h"
#include "core/verification.h"
#include "dht/region.h"
#include "net/sim_network.h"
#include "tests/test_util.h"

namespace sep2p::core {
namespace {

class SelectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = test::MakeNetwork(/*n=*/3000, /*c_fraction=*/0.01,
                                 /*cache=*/256);
    ASSERT_NE(network_, nullptr);
    ctx_ = network_->context();
  }

  ProtocolContext ctx_;
  std::unique_ptr<sim::Network> network_;
  util::Rng rng_{11};
};

TEST_F(SelectionTest, SelectsExactlyAActors) {
  SelectionProtocol protocol(ctx_);
  auto outcome = protocol.Run(5, rng_);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->val.actor_count(), ctx_.actor_count);
  EXPECT_EQ(outcome->actor_indices.size(),
            static_cast<size_t>(ctx_.actor_count));
}

TEST_F(SelectionTest, ActorsAreDistinct) {
  SelectionProtocol protocol(ctx_);
  auto outcome = protocol.Run(5, rng_);
  ASSERT_TRUE(outcome.ok());
  std::set<uint32_t> unique(outcome->actor_indices.begin(),
                            outcome->actor_indices.end());
  EXPECT_EQ(unique.size(), outcome->actor_indices.size());
}

TEST_F(SelectionTest, ActorsAreLegitimateForR3) {
  SelectionProtocol protocol(ctx_);
  auto outcome = protocol.Run(5, rng_);
  ASSERT_TRUE(outcome.ok());
  dht::Region r3 = dht::Region::Centered(
      outcome->val.SetterPoint().ring_pos(), ctx_.rs3);
  for (uint32_t actor : outcome->actor_indices) {
    EXPECT_TRUE(r3.Contains(network_->directory().pos(actor)));
  }
}

TEST_F(SelectionTest, SlsAreLegitimateForR2) {
  SelectionProtocol protocol(ctx_);
  auto outcome = protocol.Run(5, rng_);
  ASSERT_TRUE(outcome.ok());
  dht::Region r2 = dht::Region::Centered(
      outcome->val.SetterPoint().ring_pos(), outcome->val.rs2);
  for (const auto& att : outcome->val.attestations) {
    EXPECT_TRUE(r2.Contains(att.cert.NodeIdFromSubject().ring_pos()));
  }
}

TEST_F(SelectionTest, VerificationSucceedsAndCostsExactlyTwoK) {
  SelectionProtocol protocol(ctx_);
  auto outcome = protocol.Run(5, rng_);
  ASSERT_TRUE(outcome.ok());
  auto cost = VerifyActorList(ctx_, outcome->val);
  ASSERT_TRUE(cost.ok()) << cost.status().ToString();
  EXPECT_DOUBLE_EQ(cost->crypto_work, 2.0 * outcome->val.k());

  // And the cost model matches the provider's actual operation count.
  network_->provider().meter().Reset();
  auto again = VerifyActorList(ctx_, outcome->val);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(network_->provider().meter().asym_ops(),
            static_cast<uint64_t>(2 * outcome->val.k()));
}

TEST_F(SelectionTest, SetterIsOwnerOfHashedRandom) {
  SelectionProtocol protocol(ctx_);
  auto outcome = protocol.Run(5, rng_);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->relocations, 0);
  auto owner = network_->directory().SuccessorIndex(
      outcome->val.SetterPoint().ring_pos());
  ASSERT_TRUE(owner.has_value());
  EXPECT_EQ(outcome->setter_index, *owner);
}

TEST_F(SelectionTest, DifferentTriggersSelectDifferentRegions) {
  SelectionProtocol protocol(ctx_);
  auto a = protocol.Run(5, rng_);
  auto b = protocol.Run(6, rng_);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->val.rnd_t, b->val.rnd_t);
  std::set<uint32_t> actors_a(a->actor_indices.begin(),
                              a->actor_indices.end());
  int overlap = 0;
  for (uint32_t x : b->actor_indices) overlap += actors_a.count(x);
  // Two random R3 regions of ~256/3000 of the ring almost never coincide.
  EXPECT_LT(overlap, ctx_.actor_count / 2);
}

TEST_F(SelectionTest, BuildActorListDeterministicAcrossBuilders) {
  std::vector<std::vector<crypto::PublicKey>> lists(3);
  util::Rng rng(3);
  crypto::SimProvider provider;
  for (auto& list : lists) {
    for (int i = 0; i < 20; ++i) {
      list.push_back(provider.GenerateKeyPair(rng)->pub);
    }
  }
  crypto::Hash256 rnd_s = crypto::Hash256::Of("round");
  auto a = BuildActorList(lists, rnd_s, 10);
  auto b = BuildActorList(lists, rnd_s, 10);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 10u);
}

TEST_F(SelectionTest, BuildActorListOrderIndependentOfListOrder) {
  std::vector<std::vector<crypto::PublicKey>> lists(2);
  util::Rng rng(4);
  crypto::SimProvider provider;
  for (auto& list : lists) {
    for (int i = 0; i < 15; ++i) {
      list.push_back(provider.GenerateKeyPair(rng)->pub);
    }
  }
  crypto::Hash256 rnd_s = crypto::Hash256::Of("x");
  auto a = BuildActorList(lists, rnd_s, 8);
  std::swap(lists[0], lists[1]);
  auto b = BuildActorList(lists, rnd_s, 8);
  EXPECT_EQ(a, b);  // union + sort: the SLs' message order is irrelevant
}

// The driver's indexed list builder, given the union of the candidate
// lists, must pick exactly BuildActorList's keys, in order. Randomized
// over fixed seeds: 1-8 lists drawn from a shared pool (so keys repeat
// across lists, never within one), unions both larger and smaller than
// A, A = 1, and keys sharing their first 8 bytes so the full-key
// tie-break decides the order.
TEST(BuildActorListIndexedTest, MatchesFullSortOnRandomLists) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    const size_t pool_size = 1 + rng.NextUint64(120);
    std::vector<crypto::PublicKey> pool(pool_size);
    for (size_t i = 0; i < pool_size; ++i) {
      pool[i] = rng.NextBytes32();
      // About a third of the keys copy an earlier key's 8-byte prefix.
      if (i > 0 && rng.NextBool(0.3)) {
        const size_t donor = rng.NextUint64(i);
        std::copy(pool[donor].begin(), pool[donor].begin() + 8,
                  pool[i].begin());
      }
    }
    const size_t list_count = 1 + rng.NextUint64(8);
    const double keep = 0.2 + 0.8 * rng.NextDouble();
    std::vector<std::vector<crypto::PublicKey>> lists(list_count);
    std::vector<bool> listed(pool_size, false);
    std::vector<crypto::PublicKey> candidates;  // the union, each key once
    for (size_t l = 0; l < list_count; ++l) {
      std::vector<size_t> order(pool_size);
      for (size_t i = 0; i < pool_size; ++i) order[i] = i;
      rng.Shuffle(order);
      for (size_t i : order) {
        if (!rng.NextBool(keep)) continue;
        lists[l].push_back(pool[i]);
        if (!listed[i]) candidates.push_back(pool[i]);
        listed[i] = true;
      }
    }
    const int actor_count =
        seed % 5 == 0 ? 1 : 1 + static_cast<int>(rng.NextUint64(64));
    const crypto::Hash256 rnd_s(crypto::Digest(rng.NextBytes32()));

    const std::vector<crypto::PublicKey> expected =
        BuildActorList(lists, rnd_s, actor_count);
    const std::vector<uint32_t> picked =
        BuildActorListIndexed(candidates, rnd_s, actor_count);
    ASSERT_EQ(picked.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_LT(picked[i], candidates.size());
      EXPECT_EQ(candidates[picked[i]], expected[i]);
    }
  }
}

TEST_F(SelectionTest, RandomnessOfSortKeyChangesSelection) {
  std::vector<std::vector<crypto::PublicKey>> lists(1);
  util::Rng rng(5);
  crypto::SimProvider provider;
  for (int i = 0; i < 64; ++i) {
    lists[0].push_back(provider.GenerateKeyPair(rng)->pub);
  }
  auto a = BuildActorList(lists, crypto::Hash256::Of("round-1"), 8);
  auto b = BuildActorList(lists, crypto::Hash256::Of("round-2"), 8);
  EXPECT_NE(a, b);  // unpredictability comes from RND_S
}

TEST_F(SelectionTest, CollusionHidingCacheEntriesIsDefeated) {
  // A corrupted SL that reports only colluders in CL_j gains nothing: at
  // least one honest SL contributes its full candidate list, so the
  // union restores (nearly) all honest candidates — the corrupted-actor
  // count cannot grow beyond edge noise, and the contract always holds.
  struct HideHonestEntries : AttackHooks {
    bool SlBiasesCandidates(uint32_t /*sl_index*/) override { return true; }
  } hide;
  SelectionProtocol protocol(ctx_);
  SelectionOptions honest;
  SelectionOptions hiding;
  hiding.attack = &hide;

  int honest_corrupted = 0, hiding_corrupted = 0;
  for (uint32_t trigger = 0; trigger < 15; ++trigger) {
    util::Rng rng_a(900 + trigger), rng_b(900 + trigger);
    auto a = protocol.Run(trigger, rng_a, honest);
    auto b = protocol.Run(trigger, rng_b, hiding);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(b->val.actor_count(), ctx_.actor_count);
    EXPECT_TRUE(VerifyActorList(ctx_, b->val).ok());
    for (uint32_t actor : a->actor_indices) {
      honest_corrupted += ctx_.Colludes(actor);
    }
    for (uint32_t actor : b->actor_indices) {
      hiding_corrupted += ctx_.Colludes(actor);
    }
  }
  // 15 runs x 8 actors at C% = 1%: ideal ~1.2 corrupted in total. The
  // hiding adversary must stay in the same regime (far from controlling
  // the lists), not merely "not much worse".
  EXPECT_LE(hiding_corrupted, honest_corrupted + 5);
  EXPECT_LE(hiding_corrupted, 12);  // << A * runs = 120
}

TEST_F(SelectionTest, SmallR3TriggersRelocation) {
  ProtocolContext tight = ctx_;
  tight.actor_count = 8;
  // R3 sized for ~10 expected candidates against A = 8: relocations
  // become likely; run several triggers and require at least one
  // relocation overall.
  tight.rs3 = 10.0 / 3000.0;
  tight.max_relocations = 64;
  SelectionProtocol protocol(tight);
  int total_relocations = 0;
  for (uint32_t trigger = 0; trigger < 10; ++trigger) {
    auto outcome = protocol.Run(trigger, rng_);
    if (outcome.ok()) {
      total_relocations += outcome->relocations;
      // Even after relocating, the contract holds.
      EXPECT_EQ(outcome->val.actor_count(), tight.actor_count);
      auto cost = VerifyActorList(tight, outcome->val);
      EXPECT_TRUE(cost.ok()) << cost.status().ToString();
    }
  }
  EXPECT_GT(total_relocations, 0);
}

TEST_F(SelectionTest, RelocationBudgetExhaustionFails) {
  ProtocolContext impossible = ctx_;
  impossible.actor_count = 2000;  // more than any R3 can hold
  impossible.rs3 = 8.0 / 3000.0;
  impossible.max_relocations = 3;
  SelectionProtocol protocol(impossible);
  auto outcome = protocol.Run(5, rng_);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(SelectionTest, SetupCostAccountsVrandRoutingAndSlWork) {
  SelectionProtocol protocol(ctx_);
  auto outcome = protocol.Run(5, rng_);
  ASSERT_TRUE(outcome.ok());
  const int k = outcome->val.k();
  // Lower bounds: vrand (4 msg rounds) + 5 SL rounds + signatures.
  EXPECT_GE(outcome->cost.msg_latency, 9.0);
  EXPECT_GE(outcome->cost.msg_work, 9.0 * k);
  EXPECT_GE(outcome->cost.crypto_work, 3.0 * k);
  // Latency stays bounded (paper: ~20 crypto ops, ~30 messages).
  EXPECT_LE(outcome->cost.crypto_latency, 40.0);
  EXPECT_LE(outcome->cost.msg_latency, 60.0);
}

// Forwards every call to a SimNetwork and lets `rewrite` edit the reply
// each server-side handler produced (nullopt = the server refused), as a
// tampering link or a server that ignores the protocol could.
class RewritingTransport : public net::Transport {
 public:
  using Rewrite = std::function<void(
      uint32_t server, const std::vector<uint8_t>& request,
      std::optional<std::vector<uint8_t>>& reply)>;

  RewritingTransport(net::SimNetwork& inner, Rewrite rewrite)
      : inner_(inner), rewrite_(std::move(rewrite)) {}

  bool remote_dispatch() const override { return false; }
  uint64_t now_us() const override { return inner_.now_us(); }
  RpcResult Call(uint32_t client, uint32_t server,
                 const std::vector<uint8_t>& request,
                 const Handler& handler) override {
    return inner_.Call(client, server, request, Wrap(handler));
  }
  std::vector<RpcResult> CallBatch(const std::vector<Outgoing>& calls,
                                   const Handler& handler) override {
    return inner_.CallBatch(calls, Wrap(handler));
  }
  void AdvanceRoute(int hops) override { inner_.AdvanceRoute(hops); }

 protected:
  // Never reached: Call and CallBatch forward whole to the inner network.
  std::optional<std::vector<uint8_t>> Attempt(uint32_t, uint32_t, uint64_t,
                                              const std::vector<uint8_t>&,
                                              const Handler&) override {
    return std::nullopt;
  }
  void Wait(uint64_t) override {}

 private:
  Handler Wrap(const Handler& handler) {
    return [this, &handler](uint32_t server,
                            const std::vector<uint8_t>& request) {
      std::optional<std::vector<uint8_t>> reply = handler(server, request);
      rewrite_(server, request, reply);
      return reply;
    };
  }

  net::SimNetwork& inner_;
  Rewrite rewrite_;
};

// A transport that forwards Call and CallBatch forwards every message:
// the quorum, reveal and attestation waves stay virtual-parallel, so the
// run through it matches the run on the bare SimNetwork in actors,
// messages and virtual time.
TEST(ForwardingTransportTest, KeepsEveryWaveParallel) {
  std::unique_ptr<sim::Network> network = test::MakeNetwork();
  ASSERT_NE(network, nullptr);
  const ProtocolContext ctx = network->context();
  const auto n = static_cast<uint32_t>(network->directory().size());
  auto run = [&](net::Transport& transport) {
    SelectionOptions options;
    options.network = &transport;
    util::Rng rng(11);
    return SelectionProtocol(ctx).Run(5, rng, options);
  };
  net::SimNetwork direct(n, net::LinkModel{}, net::RetryPolicy{}, 5);
  auto expected = run(direct);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  net::SimNetwork inner(n, net::LinkModel{}, net::RetryPolicy{}, 5);
  RewritingTransport forwarding(
      inner, [](uint32_t, const std::vector<uint8_t>&,
                std::optional<std::vector<uint8_t>>&) {});
  auto forwarded = run(forwarding);
  ASSERT_TRUE(forwarded.ok()) << forwarded.status().ToString();

  EXPECT_EQ(forwarded->actor_indices, expected->actor_indices);
  EXPECT_EQ(direct.stats().messages_sent, 52u);
  EXPECT_EQ(inner.stats().messages_sent, direct.stats().messages_sent);
  EXPECT_EQ(direct.now_us(), 569'810u);
  EXPECT_EQ(inner.now_us(), direct.now_us());
}

bool HasTag(const std::vector<uint8_t>& bytes, uint8_t tag) {
  Result<uint8_t> peeked = msg::PeekTag(bytes);
  return peeked.ok() && *peeked == tag;
}

// The SL signatures do not cover RND_S or CL, so only the commitment
// check stops a reveal altered after L1 was fixed from steering the
// actor list: the first SL reveal with two or more keys is rewritten on
// the wire.
TEST_F(SelectionTest, RevealAlteredAfterCommitmentIsRejected) {
  const dht::Directory& dir = network_->directory();
  const std::vector<std::function<void(msg::SlReveal&)>> tampers = {
      [](msg::SlReveal& r) { r.rnd.bytes()[0] ^= 1; },
      [&dir](msg::SlReveal& r) {
        r.candidates[0] = dir.pub(0) != r.candidates[0] ? dir.pub(0)
                                                        : dir.pub(1);
      },
      [](msg::SlReveal& r) {
        std::fill(r.candidates.begin(), r.candidates.end(), r.candidates[0]);
      },
  };
  for (size_t t = 0; t < tampers.size(); ++t) {
    SCOPED_TRACE(t);
    net::SimNetwork inner =
        test::MakeZeroFaultSimNet(static_cast<uint32_t>(dir.size()));
    bool tampered = false;
    RewritingTransport wire(
        inner, [&](uint32_t, const std::vector<uint8_t>&,
                   std::optional<std::vector<uint8_t>>& reply) {
          if (tampered || !reply || !HasTag(*reply, msg::kTagSlReveal)) {
            return;
          }
          Result<msg::SlReveal> reveal = msg::Decode<msg::SlReveal>(*reply);
          if (!reveal.ok() || reveal->candidates.size() < 2) return;
          tampers[t](*reveal);
          *reply = msg::Encode(*reveal);
          tampered = true;
        });
    SelectionOptions options;
    options.network = &wire;
    util::Rng rng(21);
    auto outcome = SelectionProtocol(ctx_).Run(5, rng, options);
    ASSERT_TRUE(tampered);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::kSecurityViolation);
    EXPECT_NE(outcome.status().message().find("commitment"),
              std::string::npos)
        << outcome.status().ToString();
  }
}

// One SL lies end to end: it commits to a fabricated (RND', CL') built
// from the R3 scan around the point it is engaged for and reveals
// exactly that, so its commitment opens. The setter must still map CL'
// onto the scan: the whole scan in order is a legitimate (if useless)
// list, anything the forward walk cannot place is rejected.
class MaliciousSlTest : public SelectionTest {
 protected:
  enum class Fabrication { kWholeScan, kOutsideR3, kReversed, kTwice };

  Result<SelectionProtocol::Outcome> RunWith(Fabrication fabrication) {
    const dht::Directory& dir = network_->directory();
    net::SimNetwork inner =
        test::MakeZeroFaultSimNet(static_cast<uint32_t>(dir.size()));
    std::optional<uint32_t> liar;
    msg::SlReveal fabricated;
    RewritingTransport wire(
        inner, [&](uint32_t server, const std::vector<uint8_t>& request,
                   std::optional<std::vector<uint8_t>>& reply) {
          if (HasTag(request, msg::kTagSlEngage)) {
            if (!liar) liar = server;
            if (server != *liar) return;
            Result<msg::SlEngage> engage = msg::Decode<msg::SlEngage>(request);
            ASSERT_TRUE(engage.ok());
            const std::vector<uint32_t> r3 =
                dir.NodesInRegion(dht::Region::Centered(
                    engage->point.ring_pos(), ctx_.rs3));
            ASSERT_GE(r3.size(), 2u);
            fabricated.rnd = crypto::Hash256::Of("fabricated");
            fabricated.candidates.clear();
            for (uint32_t idx : r3) {
              fabricated.candidates.push_back(dir.pub(idx));
              if (fabrication == Fabrication::kTwice) {
                fabricated.candidates.push_back(dir.pub(idx));
              }
            }
            if (fabrication == Fabrication::kReversed) {
              std::reverse(fabricated.candidates.begin(),
                           fabricated.candidates.end());
            }
            if (fabrication == Fabrication::kOutsideR3) {
              uint32_t outside = 0;
              while (std::find(r3.begin(), r3.end(), outside) != r3.end()) {
                ++outside;
              }
              fabricated.candidates.insert(
                  fabricated.candidates.begin() + r3.size() / 2,
                  dir.pub(outside));
            }
            reply = msg::Encode(msg::CommitReply{
                SlCommitment(fabricated.rnd, fabricated.candidates)});
          } else if (liar && server == *liar &&
                     HasTag(request, msg::kTagCommitList)) {
            reply = msg::Encode(fabricated);
          }
        });
    SelectionOptions options;
    options.network = &wire;
    util::Rng rng(23);
    auto outcome = SelectionProtocol(ctx_).Run(5, rng, options);
    EXPECT_TRUE(liar.has_value());
    return outcome;
  }
};

TEST_F(MaliciousSlTest, WholeScanInOrderIsAccepted) {
  auto outcome = RunWith(Fabrication::kWholeScan);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(VerifyActorList(ctx_, outcome->val).ok());
  ASSERT_EQ(outcome->val.actor_count(), ctx_.actor_count);
  ASSERT_EQ(outcome->actor_indices.size(),
            static_cast<size_t>(ctx_.actor_count));
  for (int m = 0; m < ctx_.actor_count; ++m) {
    EXPECT_EQ(outcome->val.actor_keys[m],
              network_->directory().pub(outcome->actor_indices[m]));
  }
}

TEST_F(MaliciousSlTest, UnplaceableListsAreRejected) {
  for (Fabrication fabrication :
       {Fabrication::kOutsideR3, Fabrication::kReversed,
        Fabrication::kTwice}) {
    SCOPED_TRACE(static_cast<int>(fabrication));
    auto outcome = RunWith(fabrication);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::kSecurityViolation);
    EXPECT_NE(outcome.status().message().find("outside R3"),
              std::string::npos)
        << outcome.status().ToString();
  }
}

TEST_F(SelectionTest, FailureInjectionAbortsCleanly) {
  // Every participant crashes on its first request.
  net::SimNetwork crashing = test::MakeSimNet(
      static_cast<uint32_t>(network_->directory().size()));
  crashing.set_step_crash_probability(1.0);
  SelectionOptions options;
  options.network = &crashing;
  SelectionProtocol protocol(ctx_);
  auto outcome = protocol.Run(5, rng_, options);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace sep2p::core
