// Tests for the application message runtime: typed wire codecs,
// dispatch precedence, and the logical-cost measurement rules.

#include "node/app_runtime.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/messages.h"
#include "crypto/sealed.h"
#include "crypto/sim_provider.h"
#include "tests/test_util.h"

namespace sep2p::node {
namespace {

namespace msg = core::msg;

crypto::SealedMessage MakeSealed(util::Rng& rng) {
  crypto::SimProvider provider;
  auto pair = provider.GenerateKeyPair(rng);
  return crypto::SealForRecipient(pair->pub, {1, 2, 3, 4}, rng);
}

TEST(AppMessagesTest, SensingContributionRoundTrips) {
  util::Rng rng(1);
  msg::SensingContribution m;
  m.contribution_id = 0x1122334455667788ull;
  m.cell = 13;
  m.sealed = MakeSealed(rng);
  auto back = msg::Decode<msg::SensingContribution>(msg::Encode(m));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->contribution_id, m.contribution_id);
  EXPECT_EQ(back->cell, m.cell);
  EXPECT_EQ(back->sealed.recipient, m.sealed.recipient);
  EXPECT_EQ(back->sealed.nonce, m.sealed.nonce);
  EXPECT_EQ(back->sealed.ciphertext, m.sealed.ciphertext);
}

TEST(AppMessagesTest, SensingPartialRoundTripsIncludingMergedSlot) {
  msg::SensingPartial m;
  m.da_slot = msg::kMergedSlot;
  m.grid = 4;
  m.sums = {1.5, -2.25, 0.0, 1e9};
  m.counts = {3, 0, 1, 7};
  auto back = msg::Decode<msg::SensingPartial>(msg::Encode(m));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->da_slot, msg::kMergedSlot);
  EXPECT_EQ(back->grid, 4);
  EXPECT_EQ(back->sums, m.sums);
  EXPECT_EQ(back->counts, m.counts);
}

TEST(AppMessagesTest, ConceptMessagesRoundTrip) {
  msg::ConceptStore store;
  store.posting_id = 42;
  store.share_key = {'p', 'i', 'l', 'o', 't', '#', '0'};
  store.share_x = 3;
  store.share_data = {9, 8, 7};
  auto store_back = msg::Decode<msg::ConceptStore>(msg::Encode(store));
  ASSERT_TRUE(store_back.ok());
  EXPECT_EQ(store_back->posting_id, 42u);
  EXPECT_EQ(store_back->share_key, store.share_key);
  EXPECT_EQ(store_back->share_x, 3);
  EXPECT_EQ(store_back->share_data, store.share_data);

  msg::ConceptQuery query;
  query.share_key = store.share_key;
  auto query_back = msg::Decode<msg::ConceptQuery>(msg::Encode(query));
  ASSERT_TRUE(query_back.ok());
  EXPECT_EQ(query_back->share_key, store.share_key);

  msg::ConceptShares shares;
  shares.rows = {{7, crypto::SecretShare{1, {1, 2}}},
                 {9, crypto::SecretShare{2, {3, 4}}}};
  auto shares_back = msg::Decode<msg::ConceptShares>(msg::Encode(shares));
  ASSERT_TRUE(shares_back.ok());
  ASSERT_EQ(shares_back->rows.size(), 2u);
  EXPECT_EQ(shares_back->rows[0].posting_id, 7u);
  EXPECT_EQ(shares_back->rows[1].posting_id, 9u);
  EXPECT_EQ(shares_back->rows[1].share.x, 2);
  EXPECT_EQ(shares_back->rows[1].share.data, (std::vector<uint8_t>{3, 4}));
}

TEST(AppMessagesTest, ProxyAndDeliveryRoundTrip) {
  util::Rng rng(3);
  msg::ProxyRelay relay;
  relay.contribution_id = 5;
  relay.recipient_index = 77;
  relay.sealed = MakeSealed(rng);
  auto relay_back = msg::Decode<msg::ProxyRelay>(msg::Encode(relay));
  ASSERT_TRUE(relay_back.ok());
  EXPECT_EQ(relay_back->recipient_index, 77u);
  EXPECT_EQ(relay_back->sealed.ciphertext, relay.sealed.ciphertext);

  msg::SealedDelivery delivery;
  delivery.contribution_id = 5;
  delivery.sealed = relay.sealed;
  auto delivery_back = msg::Decode<msg::SealedDelivery>(msg::Encode(delivery));
  ASSERT_TRUE(delivery_back.ok());
  EXPECT_EQ(delivery_back->contribution_id, 5u);
  EXPECT_EQ(delivery_back->sealed.nonce, relay.sealed.nonce);
}

TEST(AppMessagesTest, DiffusionAndQueryMessagesRoundTrip) {
  msg::DiffusionOffer offer;
  offer.offer_id = 11;
  std::string expr = "pilot AND NOT retired";
  offer.expression.assign(expr.begin(), expr.end());
  offer.message = {'h', 'i'};
  auto offer_back = msg::Decode<msg::DiffusionOffer>(msg::Encode(offer));
  ASSERT_TRUE(offer_back.ok());
  EXPECT_EQ(offer_back->offer_id, 11u);
  EXPECT_EQ(offer_back->expression, offer.expression);
  EXPECT_EQ(offer_back->message, offer.message);

  msg::DiffusionAccept accept;
  accept.accepted = 1;
  auto accept_back = msg::Decode<msg::DiffusionAccept>(msg::Encode(accept));
  ASSERT_TRUE(accept_back.ok());
  EXPECT_EQ(accept_back->accepted, 1);

  msg::QueryAnswer answer;
  answer.da_slot = 2;
  answer.count = 10;
  answer.sum = 33.5;
  answer.min = -1.0;
  answer.max = 9.0;
  auto answer_back = msg::Decode<msg::QueryAnswer>(msg::Encode(answer));
  ASSERT_TRUE(answer_back.ok());
  EXPECT_EQ(answer_back->count, 10u);
  EXPECT_DOUBLE_EQ(answer_back->sum, 33.5);
  EXPECT_DOUBLE_EQ(answer_back->min, -1.0);
  EXPECT_DOUBLE_EQ(answer_back->max, 9.0);
}

TEST(AppMessagesTest, PeekTagValidatesHeader) {
  msg::AppAck ack;
  auto tag = msg::PeekTag(msg::Encode(ack));
  ASSERT_TRUE(tag.ok());
  EXPECT_EQ(*tag, msg::kTagAppAck);

  EXPECT_FALSE(msg::PeekTag({}).ok());
  EXPECT_FALSE(msg::PeekTag({1, 2, 3}).ok());
  EXPECT_FALSE(msg::PeekTag({'X', 'Y', 'Z', 0x20}).ok());
}

TEST(AppMessagesTest, CrossDecodingIsRejected) {
  msg::DiffusionAccept accept;
  EXPECT_FALSE(msg::Decode<msg::QueryAnswer>(msg::Encode(accept)).ok());
  msg::AppAck ack;
  EXPECT_FALSE(msg::Decode<msg::SensingPartial>(msg::Encode(ack)).ok());
}

TEST(AppRuntimeTest, UnknownTagTimesOutLikeADeafNode) {
  net::SimNetwork simnet = test::MakeZeroFaultSimNet(8);
  AppRuntime runtime(&simnet);
  auto rpc = runtime.Call(0, 1, msg::Encode(msg::AppAck{}));
  EXPECT_FALSE(rpc.ok);
  EXPECT_EQ(rpc.attempts, simnet.retry().max_attempts);
  EXPECT_GT(simnet.stats().timeouts, 0u);
}

TEST(AppRuntimeTest, CostChargesFollowTheMeasurementRules) {
  net::SimNetwork simnet = test::MakeZeroFaultSimNet(8);
  AppRuntime runtime(&simnet);
  simnet.Register(msg::kTagAppAck,
                  [](uint32_t, const std::vector<uint8_t>&)
                      -> std::optional<std::vector<uint8_t>> {
                    return msg::Encode(msg::AppAck{});
                  });

  // Sequential call: latency AND work.
  runtime.Call(0, 1, msg::Encode(msg::AppAck{}));
  EXPECT_DOUBLE_EQ(runtime.measured_cost().msg_latency, 1.0);
  EXPECT_DOUBLE_EQ(runtime.measured_cost().msg_work, 1.0);

  // Parallel wave: work only, one unit per call.
  std::vector<AppRuntime::Outgoing> wave;
  for (uint32_t i = 0; i < 3; ++i) {
    wave.push_back({i, 1, msg::Encode(msg::AppAck{})});
  }
  runtime.CallBatch(wave);
  EXPECT_DOUBLE_EQ(runtime.measured_cost().msg_latency, 1.0);
  EXPECT_DOUBLE_EQ(runtime.measured_cost().msg_work, 4.0);

  // Routing leg: one unit per hop, on the critical path.
  runtime.AdvanceRoute(5);
  EXPECT_DOUBLE_EQ(runtime.measured_cost().msg_latency, 6.0);
  EXPECT_DOUBLE_EQ(runtime.measured_cost().msg_work, 9.0);

  // Out-of-band charge (e.g. VAL verification).
  runtime.Charge(net::Cost::WorkOnly(8, 0));
  EXPECT_DOUBLE_EQ(runtime.measured_cost().crypto_work, 8.0);
}

TEST(AppRuntimeTest, FailedRpcStillChargesTheLogicalMessage) {
  net::SimNetwork simnet = test::MakeSimNet(8, /*drop=*/1.0);
  AppRuntime runtime(&simnet);
  simnet.Register(msg::kTagAppAck,
                  [](uint32_t, const std::vector<uint8_t>&)
                      -> std::optional<std::vector<uint8_t>> {
                    return msg::Encode(msg::AppAck{});
                  });
  auto rpc = runtime.Call(0, 1, msg::Encode(msg::AppAck{}));
  EXPECT_FALSE(rpc.ok);
  // The paper's figures count the protocol message whether or not the
  // transport eventually gave up; retransmissions live in stats() only.
  EXPECT_DOUBLE_EQ(runtime.measured_cost().msg_work, 1.0);
  EXPECT_GT(simnet.stats().messages_sent, 1u);
}

TEST(AppRuntimeTest, CallBatchClockLandsOnSlowestCall) {
  net::SimNetwork simnet = test::MakeZeroFaultSimNet(8);
  AppRuntime runtime(&simnet);
  simnet.Register(msg::kTagAppAck,
                  [](uint32_t, const std::vector<uint8_t>&)
                      -> std::optional<std::vector<uint8_t>> {
                    return msg::Encode(msg::AppAck{});
                  });
  const uint64_t before = simnet.now_us();
  std::vector<AppRuntime::Outgoing> wave;
  for (uint32_t i = 0; i < 4; ++i) {
    wave.push_back({i, (i + 1) % 8, msg::Encode(msg::AppAck{})});
  }
  auto results = runtime.CallBatch(wave);
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) EXPECT_TRUE(r.ok);
  // Zero jitter: every branch takes exactly one round trip, and the
  // clock advanced by one round trip, not four.
  const uint64_t round_trip = 2 * simnet.link().base_latency_us +
                              simnet.link().process_us;
  EXPECT_EQ(simnet.now_us(), before + round_trip);
}

TEST(AppRuntimeTest, MessageIdsAreUniqueAndMonotonic) {
  net::SimNetwork simnet = test::MakeZeroFaultSimNet(4);
  AppRuntime runtime(&simnet);
  uint64_t prev = runtime.NextMessageId();
  for (int i = 0; i < 100; ++i) {
    uint64_t next = runtime.NextMessageId();
    EXPECT_GT(next, prev);
    prev = next;
  }
}

TEST(CostDeltaTest, DeltaIsComponentWise) {
  net::Cost a;
  a.Step(2, 3);
  net::Cost b = a;
  b.Then(net::Cost::WorkOnly(1, 5));
  net::Cost d = net::Cost::Delta(b, a);
  EXPECT_DOUBLE_EQ(d.crypto_latency, 0.0);
  EXPECT_DOUBLE_EQ(d.msg_latency, 0.0);
  EXPECT_DOUBLE_EQ(d.crypto_work, 1.0);
  EXPECT_DOUBLE_EQ(d.msg_work, 5.0);
}

}  // namespace
}  // namespace sep2p::node
