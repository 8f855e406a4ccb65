#include "sim/network.h"

#include <gtest/gtest.h>

#include "dht/node_id.h"
#include "tests/test_util.h"

namespace sep2p::sim {
namespace {

TEST(NetworkTest, BuildsRequestedSize) {
  auto network = test::MakeNetwork(1000, 0.01);
  ASSERT_NE(network, nullptr);
  EXPECT_EQ(network->directory().size(), 1000u);
  EXPECT_EQ(network->directory().alive_count(), 1000u);
}

TEST(NetworkTest, ColluderCountMatchesFraction) {
  auto network = test::MakeNetwork(1000, 0.05);
  ASSERT_NE(network, nullptr);
  EXPECT_EQ(network->ColluderIndices().size(), 50u);
}

TEST(NetworkTest, AtLeastOneColluderEvenForTinyFractions) {
  auto network = test::MakeNetwork(1000, 1e-9);
  ASSERT_NE(network, nullptr);
  EXPECT_EQ(network->ColluderIndices().size(), 1u);
}

TEST(NetworkTest, NodeIdsAreImposedFromPublicKeys) {
  auto network = test::MakeNetwork(200, 0.01);
  ASSERT_NE(network, nullptr);
  for (uint32_t i = 0; i < network->directory().size(); ++i) {
    const dht::Directory& dir = network->directory();
    EXPECT_EQ(dir.id(i), dht::NodeIdForKey(dir.pub(i)));
    EXPECT_EQ(dir.pos(i), dir.id(i).ring_pos());
  }
}

TEST(NetworkTest, EveryCertificateChecksOut) {
  auto network = test::MakeNetwork(200, 0.01);
  ASSERT_NE(network, nullptr);
  for (uint32_t i = 0; i < network->directory().size(); ++i) {
    EXPECT_TRUE(network->ca().Check(network->directory().cert(i)));
  }
}

TEST(NetworkTest, ReassignColludersKeepsCount) {
  auto network = test::MakeNetwork(1000, 0.03);
  ASSERT_NE(network, nullptr);
  auto before = network->ColluderIndices();
  util::Rng rng(5);
  network->ReassignColluders(rng);
  auto after = network->ColluderIndices();
  EXPECT_EQ(before.size(), after.size());
  EXPECT_NE(before, after);  // overwhelmingly likely
}

TEST(NetworkTest, ColludersAreSpreadUniformly) {
  // Imposed locations: colluders cannot cluster. Bucket their ring
  // positions into 8 arcs and check rough balance.
  auto network = test::MakeNetwork(8000, 0.1, /*cache=*/256, /*seed=*/3);
  ASSERT_NE(network, nullptr);
  int buckets[8] = {};
  for (uint32_t idx : network->ColluderIndices()) {
    ++buckets[static_cast<int>(network->directory().pos(idx) >> 125)];
  }
  for (int b : buckets) EXPECT_NEAR(b, 100, 45);
}

TEST(NetworkTest, ContextIsFullyWired) {
  auto network = test::MakeNetwork(500, 0.01);
  ASSERT_NE(network, nullptr);
  core::ProtocolContext ctx = network->context();
  EXPECT_NE(ctx.directory, nullptr);
  EXPECT_NE(ctx.overlay, nullptr);
  EXPECT_NE(ctx.provider, nullptr);
  EXPECT_NE(ctx.ca, nullptr);
  EXPECT_NE(ctx.ktable, nullptr);
  EXPECT_GT(ctx.rs3, 0);
  EXPECT_GT(ctx.tolerance_rs, 0);
}

TEST(NetworkTest, RejectsDegenerateParameters) {
  Parameters too_small;
  too_small.n = 2;
  EXPECT_FALSE(Network::Build(too_small).ok());

  Parameters all_colluding;
  all_colluding.n = 100;
  all_colluding.colluding_fraction = 1.0;
  EXPECT_FALSE(Network::Build(all_colluding).ok());
}

TEST(NetworkTest, Ed25519ProviderWorksEndToEnd) {
  auto network = test::MakeNetwork(64, 0.05, /*cache=*/16, /*seed=*/9,
                                   Parameters::ProviderKind::kEd25519);
  ASSERT_NE(network, nullptr);
  EXPECT_STREQ(network->provider().name(), "ed25519");
  for (uint32_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(network->ca().Check(network->directory().cert(i)));
  }
}

TEST(NetworkTest, SameSeedSameNetwork) {
  auto a = test::MakeNetwork(300, 0.01, 64, /*seed=*/77);
  auto b = test::MakeNetwork(300, 0.01, 64, /*seed=*/77);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  for (uint32_t i = 0; i < a->directory().size(); ++i) {
    EXPECT_EQ(a->directory().id(i), b->directory().id(i));
  }
  EXPECT_EQ(a->ColluderIndices(), b->ColluderIndices());
}

// The provisioned SimProvider world, byte for byte: every handle's
// position, id, keys, serial, certificate (CA signature included),
// alive and has-cert, folded in handle order. The churn pool adds dead
// nodes whose certificates are not yet signed. Provisioning and the
// directory's construction may get faster, never different.
TEST(NetworkTest, SimProviderWorldIsPinned) {
  Parameters params;
  params.n = 2000;
  params.churn_pool = 20;
  params.seed = 1;
  auto network = Network::Build(params);
  ASSERT_TRUE(network.ok());
  const dht::Directory& dir = (*network)->directory();
  EXPECT_EQ(dir.size(), 2020u);
  EXPECT_EQ(dir.alive_count(), 2000u);
  EXPECT_EQ(test::DirectoryDigest(dir), 0x804dfce9c3ca3d6eull);
}

// The same pin under Ed25519, whose CA signatures are 64 bytes: the
// directory's signature blob takes its stride from the provider.
TEST(NetworkTest, Ed25519WorldIsPinned) {
  Parameters params;
  params.n = 64;
  params.churn_pool = 4;
  params.seed = 1;
  params.provider = Parameters::ProviderKind::kEd25519;
  auto network = Network::Build(params);
  ASSERT_TRUE(network.ok());
  const dht::Directory& dir = (*network)->directory();
  EXPECT_EQ(dir.size(), 68u);
  EXPECT_EQ(dir.alive_count(), 64u);
  EXPECT_EQ(dir.cert(0).ca_signature.size(), 64u);
  EXPECT_EQ(test::DirectoryDigest(dir), 0x3cde0e6507b3bcb3ull);
}

// A provisioned world read back into records, in shuffled order,
// builds the same directory: records and provisioning share one
// layout. Pool nodes come back dead, with no CA signature.
TEST(NetworkTest, RecordsRebuildTheProvisionedWorld) {
  Parameters params;
  params.n = 500;
  params.churn_pool = 25;
  params.seed = 3;
  auto network = Network::Build(params);
  ASSERT_TRUE(network.ok());
  const dht::Directory& provisioned = (*network)->directory();
  std::vector<dht::NodeRecord> records;
  for (uint32_t i = 0; i < provisioned.size(); ++i) {
    dht::NodeRecord record;
    record.id = provisioned.id(i);
    record.pos = provisioned.pos(i);
    record.pub = provisioned.pub(i);
    record.priv = provisioned.priv(i);
    record.cert = provisioned.cert(i);
    record.alive = provisioned.alive(i);
    records.push_back(std::move(record));
  }
  util::Rng rng(11);
  rng.Shuffle(records);
  dht::Directory rebuilt(records);
  EXPECT_EQ(rebuilt.alive_count(), 500u);
  test::ExpectSameNodes(provisioned, rebuilt);
}

TEST(NetworkTest, CanOverlayIsLazilyAvailable) {
  auto network = test::MakeNetwork(128, 0.01);
  ASSERT_NE(network, nullptr);
  EXPECT_EQ(network->can().zone_count(), 128u);
}

}  // namespace
}  // namespace sep2p::sim
