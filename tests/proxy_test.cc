#include "apps/proxy.h"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/messages.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace sep2p::apps {
namespace {

TEST(SealedMessageTest, RecipientOpensSuccessfully) {
  crypto::SimProvider provider;
  util::Rng rng(1);
  auto pair = provider.GenerateKeyPair(rng);
  std::vector<uint8_t> payload{1, 2, 3, 4, 5, 6, 7};
  crypto::SealedMessage sealed =
      crypto::SealForRecipient(pair->pub, payload, rng);
  auto opened = crypto::OpenSealed(provider, sealed, pair->priv);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, payload);
}

TEST(SealedMessageTest, CiphertextDiffersFromPlaintext) {
  crypto::SimProvider provider;
  util::Rng rng(2);
  auto pair = provider.GenerateKeyPair(rng);
  std::vector<uint8_t> payload(100, 0xab);
  crypto::SealedMessage sealed =
      crypto::SealForRecipient(pair->pub, payload, rng);
  EXPECT_NE(sealed.ciphertext, payload);
}

TEST(SealedMessageTest, FreshNoncePerMessage) {
  crypto::SimProvider provider;
  util::Rng rng(3);
  auto pair = provider.GenerateKeyPair(rng);
  std::vector<uint8_t> payload{9, 9};
  crypto::SealedMessage a = crypto::SealForRecipient(pair->pub, payload, rng);
  crypto::SealedMessage b = crypto::SealForRecipient(pair->pub, payload, rng);
  EXPECT_NE(a.nonce, b.nonce);
  EXPECT_NE(a.ciphertext, b.ciphertext);
}

TEST(SealedMessageTest, WrongPrivateKeyDenied) {
  crypto::SimProvider provider;
  util::Rng rng(4);
  auto recipient = provider.GenerateKeyPair(rng);
  auto intruder = provider.GenerateKeyPair(rng);
  crypto::SealedMessage sealed =
      crypto::SealForRecipient(recipient->pub, {1, 2, 3}, rng);
  auto opened = crypto::OpenSealed(provider, sealed, intruder->priv);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kPermissionDenied);
}

TEST(SealedMessageTest, MultiBlockPayloadRoundTrips) {
  crypto::SimProvider provider;
  util::Rng rng(5);
  auto pair = provider.GenerateKeyPair(rng);
  std::vector<uint8_t> payload(1000);
  rng.FillBytes(payload.data(), payload.size());
  crypto::SealedMessage sealed =
      crypto::SealForRecipient(pair->pub, payload, rng);
  auto opened = crypto::OpenSealed(provider, sealed, pair->priv);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, payload);
}

// What one relay was handed.
struct Handed {
  uint32_t relay = 0;
  core::msg::ProxyRelay message;
};

// Serves proxied deliveries (test::ServeProxyDeliveries) with a relay
// that also appends what it is handed to `handed`.
void ServeRecordingRelays(net::Transport& transport,
                          std::vector<Handed>* handed) {
  test::ServeProxyDeliveries(transport);
  transport.Register(
      core::msg::kTagProxyRelay,
      [handed](uint32_t relay, const std::vector<uint8_t>& request)
          -> std::optional<std::vector<uint8_t>> {
        auto message = core::msg::Decode<core::msg::ProxyRelay>(request);
        if (!message.ok()) return std::nullopt;
        handed->push_back({relay, *message});
        return core::msg::Encode(core::msg::AppAck{});
      });
}

using Calls = std::vector<std::pair<uint32_t, uint32_t>>;

// The (client, server) pair of every RPC a trace records, in order.
Calls CallsIn(const obs::Trace& trace) {
  Calls calls;
  for (const obs::Event& e : trace.events) {
    if (e.kind == obs::EventKind::kRpcBegin) calls.emplace_back(e.node, e.peer);
  }
  return calls;
}

TEST(ProxyTest, DeliveryEnforcesKnowledgeSeparation) {
  auto network = test::MakeNetwork(500, 0.01);
  ASSERT_NE(network, nullptr);
  net::SimNetwork simnet = test::MakeZeroFaultSimNet(500);
  std::vector<Handed> handed;
  ServeRecordingRelays(simnet, &handed);
  obs::TraceRecorder rec;
  simnet.set_trace(&rec);
  node::AppRuntime runtime(&simnet);
  util::Rng rng(6);
  const crypto::PublicKey recipient_pub = network->directory().pub(33);
  auto delivery = ForwardViaProxy(runtime, *network, /*sender=*/7,
                                  recipient_pub, {1, 2, 3}, rng);
  ASSERT_TRUE(delivery.ok()) << delivery.status().ToString();
  EXPECT_TRUE(delivery->relayed);
  EXPECT_TRUE(delivery->delivered_ok);
  ASSERT_EQ(delivery->chain.size(), 1u);
  const uint32_t proxy = delivery->chain[0];
  EXPECT_NE(proxy, 7u);
  EXPECT_NE(proxy, 33u);
  EXPECT_DOUBLE_EQ(delivery->cost.msg_work, 2.0);

  // The proxy hears from the sender, the recipient only from the
  // proxy...
  EXPECT_EQ(CallsIn(rec.trace()), (Calls{{7, proxy}, {proxy, 33}}));
  // ...and the proxy is handed the recipient and a payload it cannot
  // open.
  ASSERT_EQ(handed.size(), 1u);
  EXPECT_EQ(handed[0].relay, proxy);
  EXPECT_EQ(handed[0].message.recipient_index, 33u);
  EXPECT_FALSE(crypto::OpenSealed(network->provider(), handed[0].message.sealed,
                                  network->directory().priv(proxy))
                   .ok());

  // Only the recipient opens the payload.
  auto opened = crypto::OpenSealed(network->provider(), delivery->delivered,
                           network->directory().priv(33));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, (std::vector<uint8_t>{1, 2, 3}));
}

TEST(ProxyTest, BothPartiesColludingIsRare) {
  // (C/N)^2 argument from the paper: count proxy+recipient collusions
  // across many deliveries with 5% colluders.
  auto network = test::MakeNetwork(500, 0.05);
  ASSERT_NE(network, nullptr);
  net::SimNetwork simnet = test::MakeZeroFaultSimNet(500);
  test::ServeProxyDeliveries(simnet);
  node::AppRuntime runtime(&simnet);
  util::Rng rng(8);
  const auto& dir = network->directory();
  int both_colluding = 0;
  const int kTrials = 300;
  for (int t = 0; t < kTrials; ++t) {
    uint32_t recipient_index = rng.NextUint64(dir.size());
    if (recipient_index == 7) continue;
    auto delivery = ForwardViaProxy(runtime, *network, 7,
                                    dir.pub(recipient_index), {1}, rng);
    ASSERT_TRUE(delivery.ok());
    if (network->colluders().contains(delivery->chain[0]) &&
        network->colluders().contains(recipient_index)) {
      ++both_colluding;
    }
  }
  // Expectation ~ kTrials * 0.05^2 = 0.75; demand well under 5%.
  EXPECT_LT(both_colluding, kTrials / 20);
}

TEST(ProxyTest, UnknownRecipientFails) {
  auto network = test::MakeNetwork(100, 0.01);
  ASSERT_NE(network, nullptr);
  net::SimNetwork simnet = test::MakeZeroFaultSimNet(100);
  node::AppRuntime runtime(&simnet);
  util::Rng rng(9);
  crypto::PublicKey stranger{};
  stranger[5] = 0x55;
  auto delivery = ForwardViaProxy(runtime, *network, 3, stranger, {1}, rng);
  EXPECT_FALSE(delivery.ok());
}

TEST(ProxyTest, DeadProxyLeavesRelayedFalse) {
  auto network = test::MakeNetwork(100, 0.0);
  ASSERT_NE(network, nullptr);
  // Every link drops everything: the relay leg must exhaust its retries.
  net::SimNetwork simnet = test::MakeSimNet(100, /*drop=*/1.0);
  test::ServeProxyDeliveries(simnet);
  node::AppRuntime runtime(&simnet);
  util::Rng rng(10);
  const crypto::PublicKey recipient_pub = network->directory().pub(12);
  auto delivery =
      ForwardViaProxy(runtime, *network, 3, recipient_pub, {1}, rng);
  ASSERT_TRUE(delivery.ok());
  EXPECT_FALSE(delivery->relayed);
  EXPECT_FALSE(delivery->delivered_ok);
  EXPECT_GT(simnet.stats().rpc_failures, 0u);
  // The logical cost still counts the attempted message.
  EXPECT_DOUBLE_EQ(delivery->cost.msg_work, 1.0);
}


TEST(ProxyChainTest, ChainHasDistinctRelaysExcludingEndpoints) {
  auto network = test::MakeNetwork(300, 0.01);
  ASSERT_NE(network, nullptr);
  net::SimNetwork simnet = test::MakeZeroFaultSimNet(300);
  test::ServeProxyDeliveries(simnet);
  node::AppRuntime runtime(&simnet);
  util::Rng rng(21);
  const crypto::PublicKey recipient_pub = network->directory().pub(50);
  auto delivery = ForwardViaProxy(runtime, *network, 7, recipient_pub,
                                  {1, 2, 3}, rng, /*relays=*/4);
  ASSERT_TRUE(delivery.ok()) << delivery.status().ToString();
  EXPECT_TRUE(delivery->relayed);
  EXPECT_TRUE(delivery->delivered_ok);
  EXPECT_EQ(delivery->chain.size(), 4u);
  std::set<uint32_t> unique(delivery->chain.begin(),
                            delivery->chain.end());
  EXPECT_EQ(unique.size(), 4u);
  EXPECT_EQ(unique.count(7), 0u);
  EXPECT_EQ(unique.count(50), 0u);
  EXPECT_DOUBLE_EQ(delivery->cost.msg_work, 5.0);
}

TEST(ProxyChainTest, OnlyEndsOfChainSeeEndpoints) {
  auto network = test::MakeNetwork(300, 0.01);
  ASSERT_NE(network, nullptr);
  net::SimNetwork simnet = test::MakeZeroFaultSimNet(300);
  std::vector<Handed> handed;
  ServeRecordingRelays(simnet, &handed);
  obs::TraceRecorder rec;
  simnet.set_trace(&rec);
  node::AppRuntime runtime(&simnet);
  util::Rng rng(23);
  const crypto::PublicKey recipient_pub = network->directory().pub(9);
  auto delivery = ForwardViaProxy(runtime, *network, 4, recipient_pub, {8},
                                  rng, /*relays=*/3);
  ASSERT_TRUE(delivery.ok());
  const std::vector<uint32_t>& chain = delivery->chain;
  ASSERT_EQ(chain.size(), 3u);
  // Only the first relay hears from the sender, and the recipient hears
  // only from the last...
  EXPECT_EQ(CallsIn(rec.trace()), (Calls{{4, chain[0]},
                                         {chain[0], chain[1]},
                                         {chain[1], chain[2]},
                                         {chain[2], 9}}));
  // ...which alone is handed the recipient as its next hop.
  ASSERT_EQ(handed.size(), 3u);
  for (size_t i = 0; i < handed.size(); ++i) {
    EXPECT_EQ(handed[i].relay, chain[i]);
    EXPECT_EQ(handed[i].message.recipient_index,
              i + 1 < chain.size() ? chain[i + 1] : 9u);
  }
}

TEST(ProxyChainTest, PayloadStaysSealedAcrossChain) {
  auto network = test::MakeNetwork(300, 0.01);
  ASSERT_NE(network, nullptr);
  net::SimNetwork simnet = test::MakeZeroFaultSimNet(300);
  std::vector<Handed> handed;
  ServeRecordingRelays(simnet, &handed);
  node::AppRuntime runtime(&simnet);
  util::Rng rng(25);
  const crypto::PublicKey recipient_pub = network->directory().pub(11);
  std::vector<uint8_t> payload{9, 8, 7, 6};
  auto delivery = ForwardViaProxy(runtime, *network, 4, recipient_pub,
                                  payload, rng, /*relays=*/2);
  ASSERT_TRUE(delivery.ok());
  // No relay can open what it was handed...
  ASSERT_EQ(handed.size(), 2u);
  for (const Handed& h : handed) {
    EXPECT_FALSE(crypto::OpenSealed(network->provider(), h.message.sealed,
                                    network->directory().priv(h.relay))
                     .ok());
  }
  // ...the recipient can.
  auto opened = crypto::OpenSealed(network->provider(), delivery->delivered,
                           network->directory().priv(11));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, payload);
}

TEST(ProxyChainTest, DegenerateParametersRejected) {
  auto network = test::MakeNetwork(64, 0.01);
  ASSERT_NE(network, nullptr);
  net::SimNetwork simnet = test::MakeZeroFaultSimNet(64);
  node::AppRuntime runtime(&simnet);
  util::Rng rng(27);
  const crypto::PublicKey recipient_pub = network->directory().pub(5);
  EXPECT_FALSE(ForwardViaProxy(runtime, *network, 1, recipient_pub, {1}, rng,
                               /*relays=*/0)
                   .ok());
  EXPECT_FALSE(ForwardViaProxy(runtime, *network, 1, recipient_pub, {1}, rng,
                               /*relays=*/64)
                   .ok());
}

}  // namespace
}  // namespace sep2p::apps
