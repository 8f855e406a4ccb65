// Deterministic discrete-event message layer (net/sim_network.h), the
// typed protocol messages riding on it (core/messages.h), and the
// selection protocol executed end-to-end over the simulated network.

#include "net/sim_network.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/messages.h"
#include "core/selection.h"
#include "core/verification.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace sep2p {
namespace {

using net::LinkModel;
using net::RetryPolicy;
using net::SimNetwork;

// A link with no jitter and no drops: every transmission takes exactly
// base_latency_us, making clock arithmetic exact.
LinkModel ExactLink() {
  LinkModel link;
  link.base_latency_us = 10'000;
  link.jitter_mean_us = 0;
  link.drop_probability = 0.0;
  link.process_us = 1'000;
  return link;
}

RetryPolicy ExactRetry() {
  RetryPolicy retry;
  retry.timeout_us = 100'000;
  retry.max_attempts = 4;
  retry.backoff_base_us = 50'000;
  retry.backoff_factor = 2.0;
  retry.jitter_fraction = 0.0;
  return retry;
}

SimNetwork::Handler Echo() {
  return [](uint32_t, const std::vector<uint8_t>& request) {
    return std::optional<std::vector<uint8_t>>(request);
  };
}

// Replies with the id of the server that answered, so a quorum's replies
// show which member each came from.
SimNetwork::Handler ServerId() {
  return [](uint32_t server, const std::vector<uint8_t>&) {
    return std::optional<std::vector<uint8_t>>(
        std::vector<uint8_t>{static_cast<uint8_t>(server)});
  };
}

TEST(SimNetworkTest, PerfectLinkCallAdvancesExactlyOneRtt) {
  SimNetwork net(4, ExactLink(), ExactRetry(), /*seed=*/1);
  SimNetwork::RpcResult rpc = net.Call(0, 1, {0xab}, Echo());
  ASSERT_TRUE(rpc.ok);
  EXPECT_EQ(rpc.attempts, 1);
  EXPECT_EQ(rpc.reply, std::vector<uint8_t>({0xab}));
  // request latency + server processing + reply latency.
  EXPECT_EQ(net.now_us(), 10'000u + 1'000u + 10'000u);
  EXPECT_EQ(net.stats().messages_sent, 2u);
  EXPECT_EQ(net.stats().messages_delivered, 2u);
  EXPECT_EQ(net.stats().retries, 0u);
  EXPECT_EQ(net.stats().late_replies, 0u);
}

TEST(SimNetworkTest, SameSeedReplaysIdenticalTrace) {
  LinkModel link;  // defaults: jitter on
  link.drop_probability = 0.2;
  auto run = [&](uint64_t seed) {
    SimNetwork net(8, link, RetryPolicy(), seed);
    for (uint32_t s = 1; s < 8; ++s) net.Call(0, s, {0x01, 0x02}, Echo());
    return std::make_pair(net.now_us(), net.stats().messages_sent);
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // and the seed actually matters
}

TEST(SimNetworkTest, AllDropsExhaustRetryBudgetWithExactBackoff) {
  LinkModel link = ExactLink();
  link.drop_probability = 1.0;
  SimNetwork net(2, link, ExactRetry(), /*seed=*/3);
  SimNetwork::RpcResult rpc = net.Call(0, 1, {0xff}, Echo());
  EXPECT_FALSE(rpc.ok);
  EXPECT_EQ(rpc.attempts, 4);
  EXPECT_EQ(net.stats().timeouts, 4u);
  EXPECT_EQ(net.stats().retries, 3u);
  EXPECT_EQ(net.stats().rpc_failures, 1u);
  EXPECT_EQ(net.stats().messages_dropped, 4u);
  // 4 timeouts plus the 50/100/200 ms backoff ladder (no jitter).
  EXPECT_EQ(net.now_us(), 4 * 100'000u + 50'000u + 100'000u + 200'000u);
}

TEST(SimNetworkTest, CrashedServerTimesOutEveryAttempt) {
  SimNetwork net(2, ExactLink(), ExactRetry(), /*seed=*/4);
  net.CrashAt(1, 0);
  EXPECT_FALSE(net.IsUp(1, 0));
  SimNetwork::RpcResult rpc = net.Call(0, 1, {0x00}, Echo());
  EXPECT_FALSE(rpc.ok);
  EXPECT_EQ(net.stats().rpc_failures, 1u);
  EXPECT_EQ(net.stats().messages_delivered, 0u);
}

TEST(SimNetworkTest, StepCrashKillsTheServerPermanently) {
  SimNetwork net(2, ExactLink(), ExactRetry(), /*seed=*/5);
  net.set_step_crash_probability(1.0);
  SimNetwork::RpcResult rpc = net.Call(0, 1, {0x00}, Echo());
  EXPECT_FALSE(rpc.ok);
  // The coin fires on the first arriving request; later retries find a
  // dead node, so exactly one step crash is recorded.
  EXPECT_EQ(net.stats().step_crashes, 1u);
  EXPECT_FALSE(net.IsUp(1, net.now_us()));
}

TEST(SimNetworkTest, CallBatchBranchesShareTheClock) {
  SimNetwork net(4, ExactLink(), ExactRetry(), /*seed=*/6);
  std::vector<SimNetwork::RpcResult> results =
      net.CallBatch({{0, 1, {0x01}}, {0, 2, {0x02}}, {0, 3, {0x03}}}, Echo());
  ASSERT_EQ(results.size(), 3u);
  for (uint8_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(results[i].ok);
    EXPECT_EQ(results[i].reply, std::vector<uint8_t>({uint8_t(i + 1)}));
  }
  // Parallel branches: the round costs one RTT, not three.
  EXPECT_EQ(net.now_us(), 21'000u);
  EXPECT_EQ(net.stats().messages_sent, 6u);
}

TEST(SimNetworkTest, EngageQuorumReplacesFailedMembers) {
  SimNetwork net(6, ExactLink(), ExactRetry(), /*seed=*/7);
  net.CrashAt(2, 0);  // candidate slot 1 is dead from the start
  SimNetwork::QuorumResult q =
      net.EngageQuorum(0, {1, 2, 3, 4}, /*k=*/2, {0x01}, ServerId());
  ASSERT_TRUE(q.ok);
  EXPECT_EQ(q.members, std::vector<uint32_t>({1, 3}));
  EXPECT_EQ(q.replacements, 1);
  EXPECT_EQ(net.stats().quorum_replacements, 1u);
  ASSERT_EQ(q.replies.size(), 2u);
  EXPECT_EQ(q.replies[0], std::vector<uint8_t>({1}));
  EXPECT_EQ(q.replies[1], std::vector<uint8_t>({3}));
}

TEST(SimNetworkTest, EngageQuorumFailsWhenCandidatesRunDry) {
  SimNetwork net(4, ExactLink(), ExactRetry(), /*seed=*/8);
  for (uint32_t node : {1u, 2u, 3u}) net.CrashAt(node, 0);
  SimNetwork::QuorumResult q =
      net.EngageQuorum(0, {1, 2, 3}, /*k=*/2, {0x01}, ServerId());
  EXPECT_FALSE(q.ok);
}

TEST(SimNetworkTest, EngageQuorumRunsDryMidReplacementWave) {
  // Wave 1 engages {1, 2, 3} (k = 3) and collects slot 0's reply, but
  // members 2 and 3 are dead: the single spare (4) covers the first
  // failed slot and the list runs dry on the second — a PARTIAL quorum
  // with a substitution already made must still come back ok = false,
  // without losing the replies it did collect.
  SimNetwork net(6, ExactLink(), ExactRetry(), /*seed=*/10);
  net.CrashAt(2, 0);
  net.CrashAt(3, 0);
  SimNetwork::QuorumResult q =
      net.EngageQuorum(0, {1, 2, 3, 4}, /*k=*/3, {0x01}, ServerId());
  EXPECT_FALSE(q.ok);
  EXPECT_GE(q.replacements, 1);
  ASSERT_EQ(q.members.size(), 3u);
  EXPECT_EQ(q.members[0], 1u);  // the responsive member kept its slot
  ASSERT_EQ(q.replies.size(), 3u);
  EXPECT_EQ(q.replies[0], std::vector<uint8_t>({1}));  // reply retained
  // The caller treats ok = false as "restart with a fresh RND_T": no
  // member may be silently promoted into the dry slot.
  EXPECT_EQ(net.stats().rpc_failures, 2u);
}

TEST(SimNetworkTest, AdvanceRouteChargesOneLatencyPerHop) {
  SimNetwork net(2, ExactLink(), ExactRetry(), /*seed=*/9);
  net.AdvanceRoute(5);
  EXPECT_EQ(net.now_us(), 50'000u);
  EXPECT_EQ(net.stats().messages_sent, 5u);
}

// A timeout barely above the mean round trip: many replies land after
// their attempt gave up. No message is lost, so all 632 attempts'
// requests and replies are delivered, and each of the 365 replies not
// taken by its attempt counts as late wherever it lands. Pins that
// accounting, the delivery and timeout totals and the whole trace.
TEST(SimNetworkTest, LateReplyAccountingIsPinned) {
  RetryPolicy retry;
  retry.timeout_us = 55'000;
  SimNetwork net(6, LinkModel(), retry, /*seed=*/11);
  obs::TraceRecorder rec;
  net.set_trace(&rec);
  util::Rng draw(5);
  uint64_t ok = 0;
  for (int i = 0; i < 300; ++i) {
    const uint32_t client = static_cast<uint32_t>(draw.NextUint64(6));
    const uint32_t server =
        static_cast<uint32_t>((client + 1 + draw.NextUint64(5)) % 6);
    if (net.Call(client, server, {static_cast<uint8_t>(i)}, Echo()).ok) {
      ++ok;
    }
  }
  net.set_trace(nullptr);
  uint64_t digest = util::kFnvOffsetBasis;
  for (char c : obs::ToJsonl(rec.trace())) {
    digest = util::FnvFoldByte(digest, static_cast<uint8_t>(c));
  }
  EXPECT_EQ(ok, 267u);
  EXPECT_EQ(net.stats().late_replies, 365u);
  EXPECT_EQ(net.stats().messages_delivered, 1264u);
  EXPECT_EQ(net.stats().timeouts, 365u);
  EXPECT_EQ(digest, 0x53060739109df496u);
}

// A reply delivered after its attempt gave up is late wherever it
// lands. Every attempt here times out (15 ms against a 21 ms round
// trip), and node 0's reply from its first call lands at 21 ms, before
// the next call's request (25 ms): at 0 while it serves that call (a),
// or while another pair's call runs, after which 0 never calls or
// serves again (b).
TEST(SimNetworkTest, LateRepliesAreCountedWhereTheyLand) {
  RetryPolicy retry = ExactRetry();
  retry.timeout_us = 15'000;
  retry.max_attempts = 1;
  auto late_replies = [&](uint32_t client, uint32_t server) {
    SimNetwork net(4, ExactLink(), retry, /*seed=*/12);
    EXPECT_FALSE(net.Call(0, 1, {0x01}, Echo()).ok);
    EXPECT_FALSE(net.Call(client, server, {0x02}, Echo()).ok);
    // Both requests and 0's stale reply; the second reply is in flight.
    EXPECT_EQ(net.stats().messages_delivered, 3u);
    return net.stats().late_replies;
  };
  EXPECT_EQ(late_replies(2, 0), 1u);  // (a)
  EXPECT_EQ(late_replies(2, 3), 1u);  // (b)
}

// A reply whose caller crashed while it was in flight is dropped where
// it lands, not counted late. Node 0's first call times out at 15 ms
// and its reply (seq 1) lands at 21 ms, after 0 crashed at 18 ms; the
// next call delivers the queue up to its request's arrival at 25 ms.
TEST(SimNetworkTest, LateReplyToACrashedClientIsDropped) {
  RetryPolicy retry = ExactRetry();
  retry.timeout_us = 15'000;
  retry.max_attempts = 1;
  SimNetwork net(4, ExactLink(), retry, /*seed=*/13);
  obs::TraceRecorder rec;
  net.set_trace(&rec);
  EXPECT_FALSE(net.Call(0, 1, {0x01}, Echo()).ok);
  net.CrashAt(0, 18'000);
  EXPECT_FALSE(net.Call(2, 3, {0x02}, Echo()).ok);
  EXPECT_EQ(net.stats().late_replies, 0u);
  EXPECT_EQ(net.stats().messages_dropped, 1u);
  // Both requests; the second reply is in flight.
  EXPECT_EQ(net.stats().messages_delivered, 2u);
  std::vector<obs::Event> drops;
  for (const obs::Event& e : rec.trace().events) {
    if (e.kind == obs::EventKind::kDrop) drops.push_back(e);
  }
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].t_us, 21'000u);
  EXPECT_EQ(drops[0].node, 1u);
  EXPECT_EQ(drops[0].peer, 0u);
  EXPECT_EQ(drops[0].seq, 1u);
  EXPECT_EQ(drops[0].detail, "dead-dest");
}

// ------------------------------------------------------------ messages

TEST(MessagesTest, PlainMessagesRoundTrip) {
  core::msg::VrandInvite invite;
  invite.rs1 = 0.00125;
  invite.timestamp = 123456789;
  auto invite2 =
      core::msg::Decode<core::msg::VrandInvite>(core::msg::Encode(invite));
  ASSERT_TRUE(invite2.ok()) << invite2.status().ToString();
  EXPECT_DOUBLE_EQ(invite2->rs1, invite.rs1);
  EXPECT_EQ(invite2->timestamp, invite.timestamp);

  core::msg::CommitReply commit;
  commit.commitment = crypto::Hash256::Of("commitment");
  auto commit2 =
      core::msg::Decode<core::msg::CommitReply>(core::msg::Encode(commit));
  ASSERT_TRUE(commit2.ok());
  EXPECT_EQ(commit2->commitment, commit.commitment);

  core::msg::CommitList list;
  list.commitments = {crypto::Hash256::Of("a"), crypto::Hash256::Of("b")};
  list.timestamp = 42;
  auto list2 =
      core::msg::Decode<core::msg::CommitList>(core::msg::Encode(list));
  ASSERT_TRUE(list2.ok());
  EXPECT_EQ(list2->commitments, list.commitments);
  EXPECT_EQ(list2->timestamp, list.timestamp);

  core::msg::AttestRequest att;
  att.digest = crypto::Hash256::Of("digest");
  auto att2 =
      core::msg::Decode<core::msg::AttestRequest>(core::msg::Encode(att));
  ASSERT_TRUE(att2.ok());
  EXPECT_EQ(att2->digest, att.digest);
}

TEST(MessagesTest, StrictDecodeRejectsMangledBytes) {
  core::msg::CommitReply commit;
  commit.commitment = crypto::Hash256::Of("x");
  std::vector<uint8_t> bytes = core::msg::Encode(commit);

  // Truncation.
  std::vector<uint8_t> trunc(bytes.begin(), bytes.end() - 1);
  EXPECT_FALSE(core::msg::Decode<core::msg::CommitReply>(trunc).ok());
  // Trailing garbage.
  std::vector<uint8_t> trail = bytes;
  trail.push_back(0x00);
  EXPECT_FALSE(core::msg::Decode<core::msg::CommitReply>(trail).ok());
  // Wrong tag: a CommitReply is not an AttestRequest.
  EXPECT_FALSE(core::msg::Decode<core::msg::AttestRequest>(bytes).ok());
  // Wrong magic.
  std::vector<uint8_t> magic = bytes;
  magic[0] ^= 0xff;
  EXPECT_FALSE(core::msg::Decode<core::msg::CommitReply>(magic).ok());
  // Empty.
  EXPECT_FALSE(core::msg::Decode<core::msg::CommitReply>({}).ok());
}

TEST(MessagesTest, EmptyCommitListRejected) {
  core::msg::CommitList list;  // zero commitments
  EXPECT_FALSE(
      core::msg::Decode<core::msg::CommitList>(core::msg::Encode(list)).ok());
}

// --------------------------------------- selection over the simulation

class SelectionOverNetworkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = test::MakeNetwork(/*n=*/1500, /*c_fraction=*/0.01,
                                 /*cache=*/192);
    ASSERT_NE(network_, nullptr);
    ctx_ = network_->context();
  }

  // The harness's restart loop: Unavailable (failed participant after
  // commitment, or unreachable quorum) restarts with a fresh RND_T.
  Result<core::SelectionProtocol::Outcome> RunWithRestarts(
      SimNetwork& simnet, util::Rng& rng, int budget = 25) {
    core::SelectionProtocol protocol(ctx_);
    for (int attempt = 1; attempt <= budget; ++attempt) {
      core::SelectionOptions options;
      options.network = &simnet;
      auto run = protocol.Run(/*trigger_index=*/5, rng, options);
      if (run.ok() || run.status().code() != StatusCode::kUnavailable) {
        return run;
      }
    }
    return Status::Unavailable("restart budget exhausted");
  }

  std::unique_ptr<sim::Network> network_;
  core::ProtocolContext ctx_;
};

TEST_F(SelectionOverNetworkTest, PerfectNetworkSucceedsAndVerifies) {
  SimNetwork simnet(static_cast<uint32_t>(network_->directory().size()),
                    LinkModel(), RetryPolicy(), /*seed=*/21);
  util::Rng rng(11);
  auto outcome = RunWithRestarts(simnet, rng);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->actor_indices.size(),
            static_cast<size_t>(ctx_.actor_count));
  EXPECT_TRUE(core::VerifyActorList(ctx_, outcome->val).ok());
  // The protocol actually used the message layer...
  EXPECT_GT(simnet.stats().messages_sent, 0u);
  EXPECT_GT(simnet.now_us(), 0u);
  // ...and a perfect link needed no retries or replacements.
  EXPECT_EQ(simnet.stats().retries, 0u);
  EXPECT_EQ(simnet.stats().quorum_replacements, 0u);
}

TEST_F(SelectionOverNetworkTest, IdenticalSeedsGiveIdenticalSelections) {
  auto select = [&] {
    SimNetwork simnet(static_cast<uint32_t>(network_->directory().size()),
                      LinkModel(), RetryPolicy(), /*seed=*/33);
    util::Rng rng(17);
    auto outcome = RunWithRestarts(simnet, rng);
    EXPECT_TRUE(outcome.ok());
    return std::make_pair(outcome->actor_indices, simnet.now_us());
  };
  EXPECT_EQ(select(), select());
}

TEST_F(SelectionOverNetworkTest, LossyNetworkRetriesAndStillVerifies) {
  LinkModel link;
  link.drop_probability = 0.08;
  SimNetwork simnet(static_cast<uint32_t>(network_->directory().size()),
                    link, RetryPolicy(), /*seed=*/55);
  util::Rng rng(19);
  auto outcome = RunWithRestarts(simnet, rng);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(core::VerifyActorList(ctx_, outcome->val).ok());
  // With ~8% loss per transmission, some retry fired somewhere.
  EXPECT_GT(simnet.stats().retries, 0u);
}

TEST_F(SelectionOverNetworkTest, CrashingParticipantsAreAbsorbed) {
  SimNetwork simnet(static_cast<uint32_t>(network_->directory().size()),
                    LinkModel(), RetryPolicy(), /*seed=*/77);
  simnet.set_step_crash_probability(0.05);
  util::Rng rng(23);
  auto outcome = RunWithRestarts(simnet, rng);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(core::VerifyActorList(ctx_, outcome->val).ok());
  EXPECT_GT(simnet.stats().step_crashes, 0u);
}

}  // namespace
}  // namespace sep2p
