// Shared helpers for the SEP2P test-suite.

#ifndef SEP2P_TESTS_TEST_UTIL_H_
#define SEP2P_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "apps/proxy.h"
#include "core/ktable.h"
#include "core/messages.h"
#include "crypto/sim_provider.h"
#include "dht/directory.h"
#include "dht/node_id.h"
#include "net/sim_network.h"
#include "node/app_runtime.h"
#include "sim/network.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace sep2p::test {

// FNV-1a over every handle's columns, in handle order: position, id,
// public key, serial, private key, certificate (subject, serial, CA
// signature), alive and has-cert. Byte strings fold their length first.
inline uint64_t DirectoryDigest(const dht::Directory& dir) {
  uint64_t h = util::kFnvOffsetBasis;
  auto fold_bytes = [&h](const uint8_t* data, size_t len) {
    h = util::FnvFold(h, len);
    for (size_t i = 0; i < len; ++i) h = util::FnvFoldByte(h, data[i]);
  };
  for (uint32_t i = 0; i < dir.size(); ++i) {
    h = util::FnvFold(h, static_cast<uint64_t>(dir.pos(i) >> 64));
    h = util::FnvFold(h, static_cast<uint64_t>(dir.pos(i)));
    fold_bytes(dir.id(i).bytes().data(), dir.id(i).bytes().size());
    fold_bytes(dir.pub(i).data(), dir.pub(i).size());
    h = util::FnvFold(h, dir.serial(i));
    const crypto::PrivateKey priv = dir.priv(i);
    fold_bytes(priv.data.data(), priv.data.size());
    const crypto::Certificate cert = dir.cert(i);
    fold_bytes(cert.subject.data(), cert.subject.size());
    h = util::FnvFold(h, cert.serial);
    fold_bytes(cert.ca_signature.data(), cert.ca_signature.size());
    h = util::FnvFoldByte(h, dir.alive(i) ? 1 : 0);
    h = util::FnvFoldByte(h, dir.has_cert(i) ? 1 : 0);
  }
  return h;
}

// Expects `a` and `b` to hold the same node under every handle, column
// by column.
inline void ExpectSameNodes(const dht::Directory& a,
                            const dht::Directory& b) {
  ASSERT_EQ(a.size(), b.size());
  for (uint32_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a.pos(i) == b.pos(i)) << "node " << i;
    EXPECT_EQ(a.id(i), b.id(i)) << "node " << i;
    EXPECT_EQ(a.pub(i), b.pub(i)) << "node " << i;
    EXPECT_EQ(a.serial(i), b.serial(i)) << "node " << i;
    EXPECT_EQ(a.priv(i).data, b.priv(i).data) << "node " << i;
    EXPECT_EQ(a.cert(i).ca_signature, b.cert(i).ca_signature)
        << "node " << i;
    EXPECT_EQ(a.alive(i), b.alive(i)) << "node " << i;
    EXPECT_EQ(a.has_cert(i), b.has_cert(i)) << "node " << i;
  }
  EXPECT_EQ(a.alive_count(), b.alive_count());
  EXPECT_EQ(DirectoryDigest(a), DirectoryDigest(b));
}

// Builds a bare directory of `n` nodes with imposed ids (no CA/certs),
// enough for DHT-layer tests.
inline std::unique_ptr<dht::Directory> MakeDirectory(size_t n,
                                                     uint64_t seed = 1) {
  crypto::SimProvider provider;
  util::Rng rng(seed);
  std::vector<dht::NodeRecord> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto pair = provider.GenerateKeyPair(rng);
    dht::NodeRecord record;
    record.pub = pair->pub;
    record.priv = std::move(pair->priv);
    record.id = dht::NodeIdForKey(record.pub);
    record.pos = record.id.ring_pos();
    records.push_back(std::move(record));
  }
  return std::make_unique<dht::Directory>(std::move(records));
}

// Small full network with fast defaults for protocol-layer tests.
inline std::unique_ptr<sim::Network> MakeNetwork(
    uint64_t n = 2000, double c_fraction = 0.01, size_t cache = 0,
    uint64_t seed = 42,
    sim::Parameters::ProviderKind provider =
        sim::Parameters::ProviderKind::kSim) {
  sim::Parameters params;
  params.n = n;
  params.colluding_fraction = c_fraction;
  params.cache_size = cache == 0 ? std::max<size_t>(64, n / 20) : cache;
  params.actor_count = 8;
  params.seed = seed;
  params.provider = provider;
  auto network = sim::Network::Build(params);
  if (!network.ok()) return nullptr;
  return std::move(network.value());
}

// Message network with explicit fault rates for app-layer tests.
inline net::SimNetwork MakeSimNet(uint32_t node_count, double drop = 0.0,
                                  uint64_t jitter_mean_us = 0,
                                  uint64_t seed = 7) {
  net::LinkModel link;
  link.jitter_mean_us = jitter_mean_us;
  link.drop_probability = drop;
  return net::SimNetwork(node_count, link, net::RetryPolicy{}, seed);
}

// Zero-fault message network (no jitter, no drops): every RPC succeeds
// on the first attempt and virtual time is a pure function of the call
// sequence, so measured costs are exactly comparable to the legacy
// hand-rolled counters.
inline net::SimNetwork MakeZeroFaultSimNet(uint32_t node_count,
                                           uint64_t seed = 7) {
  return MakeSimNet(node_count, 0.0, 0, seed);
}

// Serves apps::ForwardViaProxy on a transport that runs no app: the
// proxy relay, and a SealedDelivery recipient that only acknowledges.
inline void ServeProxyDeliveries(net::Transport& transport) {
  apps::RegisterProxyRelay(transport);
  transport.Register(
      core::msg::kTagSealedDelivery,
      [](uint32_t, const std::vector<uint8_t>& request)
          -> std::optional<std::vector<uint8_t>> {
        if (!core::msg::Decode<core::msg::SealedDelivery>(request).ok()) {
          return std::nullopt;
        }
        return core::msg::Encode(core::msg::AppAck{});
      });
}

// Region sizes a verifier must refuse for security degree `k`: just past
// the alpha bound, NaN, zero and negative. Region sizes are in no signed
// bytes, so whoever relays an artifact can set them.
inline std::vector<double> RegionSizesOutsideAlphaBound(
    const core::KTable& table, int k) {
  double bound = 0;
  for (const core::KTable::Entry& entry : table.entries()) {
    if (entry.k == k) bound = entry.rs;
  }
  return {bound * 1.001, std::nan(""), 0.0, -bound};
}

}  // namespace sep2p::test

#endif  // SEP2P_TESTS_TEST_UTIL_H_
