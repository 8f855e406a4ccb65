// Micro-benchmarks for the primitives underlying the cost model:
// SHA-256 (free in the paper's accounting), Ed25519 sign/verify (the
// "asymmetric crypto operation" unit), Chord/CAN routing, region
// queries, one simulated RPC, an attested join, a whole network's
// provisioning, and the k-table math. These calibrate what one unit of
// the paper's metrics costs on real hardware.

#include <benchmark/benchmark.h>

#include "core/ktable.h"
#include "core/probability.h"
#include "crypto/ed25519_provider.h"
#include "crypto/sha256.h"
#include "crypto/sim_provider.h"
#include "dht/can.h"
#include "dht/chord.h"
#include "dht/directory.h"
#include "net/sim_network.h"
#include "node/join.h"
#include "sim/network.h"

namespace {

using namespace sep2p;

void BM_Sha256(benchmark::State& state) {
  std::vector<uint8_t> data(state.range(0));
  util::Rng rng(1);
  rng.FillBytes(data.data(), data.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

// Message sizes for BM_Sign and BM_Verify: 32 B is what an attestation
// signs (a SHA-256 digest), 256 B a small message, and 16,424 B the
// SignedBytes of a 512-entry attested cache (40 + 512 x 32), what a
// signature over the whole snapshot would cover.
void MessageSizes(benchmark::internal::Benchmark* b) {
  b->Arg(32)->Arg(256)->Arg(16424);
}

template <typename Provider>
void BM_Sign(benchmark::State& state) {
  Provider provider;
  util::Rng rng(2);
  auto pair = provider.GenerateKeyPair(rng);
  std::vector<uint8_t> msg(state.range(0));
  rng.FillBytes(msg.data(), msg.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(provider.Sign(pair->priv, msg));
  }
}
BENCHMARK(BM_Sign<crypto::Ed25519Provider>)
    ->Name("BM_Sign/ed25519")
    ->Apply(MessageSizes);
BENCHMARK(BM_Sign<crypto::SimProvider>)
    ->Name("BM_Sign/sim")
    ->Apply(MessageSizes);

// BM_Sign signs under one key, as the CA does while it provisions a
// network; SimProvider keeps that key's derived state between calls.
// The protocols' TL and SL signatures change key on every call: this row
// cycles through 1,024 keys, so each call signs under a new one.
void BM_SignNewKey(benchmark::State& state) {
  crypto::SimProvider provider;
  util::Rng rng(2);
  std::vector<crypto::KeyPair> pairs;
  for (int i = 0; i < 1024; ++i) {
    pairs.push_back(*provider.GenerateKeyPair(rng));
  }
  std::vector<uint8_t> msg(state.range(0));
  rng.FillBytes(msg.data(), msg.size());
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(provider.Sign(pairs[next].priv, msg));
    next = (next + 1) % pairs.size();
  }
}
BENCHMARK(BM_SignNewKey)->Name("BM_Sign/sim_new_key")->Apply(MessageSizes);

template <typename Provider>
void BM_Verify(benchmark::State& state) {
  Provider provider;
  util::Rng rng(3);
  auto pair = provider.GenerateKeyPair(rng);
  std::vector<uint8_t> msg(state.range(0));
  rng.FillBytes(msg.data(), msg.size());
  auto sig = provider.Sign(pair->priv, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(provider.Verify(pair->pub, msg, *sig));
  }
}
BENCHMARK(BM_Verify<crypto::Ed25519Provider>)
    ->Name("BM_Verify/ed25519")
    ->Apply(MessageSizes);
BENCHMARK(BM_Verify<crypto::SimProvider>)
    ->Name("BM_Verify/sim")
    ->Apply(MessageSizes);

// Batched verification (the BatchVerifier's inner loop) against the
// single-call baseline above: per-batch-size throughput shows how much
// of the per-call dispatch (EVP_PKEY import, MAC-key derivation) the
// key-sorted batch path amortizes. Items cycle through 8 signers.
template <typename Provider>
void BM_VerifyBatch(benchmark::State& state) {
  Provider provider;
  util::Rng rng(7);
  std::vector<crypto::KeyPair> pairs;
  for (int s = 0; s < 8; ++s) {
    pairs.push_back(std::move(provider.GenerateKeyPair(rng).value()));
  }
  const size_t batch = static_cast<size_t>(state.range(0));
  std::vector<crypto::VerifyItem> items(batch);
  for (size_t i = 0; i < batch; ++i) {
    const crypto::KeyPair& pair = pairs[i % pairs.size()];
    items[i].key = pair.pub;
    items[i].msg.assign(256, static_cast<uint8_t>(i));
    items[i].sig = std::move(provider.Sign(pair.priv, items[i].msg).value());
  }
  std::vector<uint8_t> ok(batch);
  for (auto _ : state) {
    provider.VerifyBatch(items.data(), items.size(), ok.data());
    benchmark::DoNotOptimize(ok.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_VerifyBatch<crypto::Ed25519Provider>)
    ->Name("BM_VerifyBatch/ed25519")
    ->Arg(1)->Arg(8)->Arg(64)->Arg(256);
BENCHMARK(BM_VerifyBatch<crypto::SimProvider>)
    ->Name("BM_VerifyBatch/sim")
    ->Arg(1)->Arg(8)->Arg(64)->Arg(256);

std::unique_ptr<sim::Network>& SharedNetwork(size_t n) {
  static std::map<size_t, std::unique_ptr<sim::Network>> cache;
  auto& slot = cache[n];
  if (!slot) {
    sim::Parameters params;
    params.n = n;
    params.cache_size = 256;
    slot = std::move(sim::Network::Build(params).value());
  }
  return slot;
}

void BM_ChordRoute(benchmark::State& state) {
  auto& net = SharedNetwork(state.range(0));
  util::Rng rng(4);
  for (auto _ : state) {
    uint32_t from = rng.NextUint64(net->directory().size());
    dht::RingPos target = (static_cast<dht::RingPos>(rng.NextUint64())
                           << 64) |
                          rng.NextUint64();
    benchmark::DoNotOptimize(net->chord().Route(from, target));
  }
}
BENCHMARK(BM_ChordRoute)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_CanRoute(benchmark::State& state) {
  auto& net = SharedNetwork(state.range(0));
  auto& can = net->can();
  util::Rng rng(5);
  int i = 0;
  for (auto _ : state) {
    uint32_t from = rng.NextUint64(net->directory().size());
    dht::NodeId key = dht::NodeId::Of("bench-" + std::to_string(i++));
    benchmark::DoNotOptimize(can.Route(from, key));
  }
}
BENCHMARK(BM_CanRoute)->Arg(1000)->Arg(10000);

void BM_RegionQuery(benchmark::State& state) {
  auto& net = SharedNetwork(10000);
  util::Rng rng(6);
  double rs = static_cast<double>(state.range(0)) / 10000.0;
  for (auto _ : state) {
    dht::RingPos center = (static_cast<dht::RingPos>(rng.NextUint64())
                           << 64) |
                          rng.NextUint64();
    benchmark::DoNotOptimize(
        net->directory().NodesInRegion(dht::Region::Centered(center, rs)));
  }
}
BENCHMARK(BM_RegionQuery)->Arg(32)->Arg(512)->Arg(4096);

// Region walks under churn need a directory of their own: BM_ChordRoute
// shares the N=10^5 network above, which must stay all alive. This one
// has N=10^5 nodes with `dead_per_mille` of them dead.
const dht::Directory& ChurnedDirectory(int64_t dead_per_mille) {
  static std::map<int64_t, std::unique_ptr<dht::Directory>> cache;
  auto& slot = cache[dead_per_mille];
  if (!slot) {
    util::Rng rng(8);
    std::vector<dht::NodeRecord> records(100000);
    for (dht::NodeRecord& record : records) {
      record.pub = rng.NextBytes32();
      record.id = dht::NodeIdForKey(record.pub);
      record.pos = record.id.ring_pos();
      record.alive =
          rng.NextUint64(1000) >= static_cast<uint64_t>(dead_per_mille);
    }
    slot = std::make_unique<dht::Directory>(std::move(records));
  }
  return *slot;
}

// Arg: per mille of the nodes dead. Each region holds ~512 alive nodes,
// the size of a churn join's cache walk. 0 takes the all-alive loop, for
// reference; at 990 the dead runs average ~100 ranks, the walk's worst
// case.
void BM_RegionQueryChurn(benchmark::State& state) {
  const dht::Directory& dir = ChurnedDirectory(state.range(0));
  util::Rng rng(6);
  const double rs = 512.0 / static_cast<double>(dir.alive_count());
  for (auto _ : state) {
    dht::RingPos center = (static_cast<dht::RingPos>(rng.NextUint64())
                           << 64) |
                          rng.NextUint64();
    benchmark::DoNotOptimize(
        dir.NodesInRegion(dht::Region::Centered(center, rs)));
  }
}
BENCHMARK(BM_RegionQueryChurn)->Arg(0)->Arg(10)->Arg(500)->Arg(990);

// One RPC over the ideal link (net::kIdealLink) per iteration: the
// request's send and delivery, the handler's 2-byte reply, and the
// reply's send and delivery. Arg: request bytes.
void BM_SimCall(benchmark::State& state) {
  net::SimNetwork transport(2, net::kIdealLink, net::RetryPolicy{},
                            /*seed=*/0);
  const std::vector<uint8_t> request(state.range(0), 0xab);
  const net::Transport::Handler reply_ok =
      [](uint32_t, const std::vector<uint8_t>&) {
        return std::optional<std::vector<uint8_t>>(
            std::vector<uint8_t>{0x4f, 0x4b});
      };
  for (auto _ : state) {
    benchmark::DoNotOptimize(transport.Call(0, 1, request, reply_ok));
  }
}
BENCHMARK(BM_SimCall)->Arg(64)->Arg(1024)->Arg(16384);

// One §3.6 attested join per iteration: two attested cache snapshots
// (k signatures each), their verification, and the union the newcomer
// keeps. Arg: N. The network is perfbench churn's: the reference network
// (paper Table 3) with a 1% standby pool, SimProvider, over ideal links.
// The newcomer is a uniform alive node.
void BM_AttestedJoin(benchmark::State& state) {
  static std::map<int64_t, std::unique_ptr<sim::Network>> cache;
  auto& net = cache[state.range(0)];
  if (!net) {
    sim::Parameters params;
    params.n = static_cast<uint64_t>(state.range(0));
    params.churn_pool = params.n / 100;
    net = std::move(sim::Network::Build(params).value());
  }
  const dht::Directory& dir = net->directory();
  const core::ProtocolContext ctx = net->context();
  net::SimNetwork transport(static_cast<uint32_t>(dir.size()),
                            net::kIdealLink, net::RetryPolicy{},
                            /*seed=*/0);
  node::JoinProtocol join(ctx, transport);
  util::Rng rng(9);
  for (auto _ : state) {
    const uint32_t newcomer =
        *dir.NthAlive(rng.NextUint64(dir.alive_count()));
    benchmark::DoNotOptimize(join.Join(newcomer, rng));
  }
}
BENCHMARK(BM_AttestedJoin)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

// Provisioning a whole network at one thread (sim::Network::Build): N
// SimProvider key pairs, N CA certificates, the directory's
// construction, the colluder draw and the k-table. Arg: N.
void BM_NetworkBuild(benchmark::State& state) {
  sim::Parameters params;
  params.n = static_cast<uint64_t>(state.range(0));
  params.threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::Network::Build(params));
  }
}
BENCHMARK(BM_NetworkBuild)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_KTableBuild(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::KTable::Build(10000000, state.range(0), 1e-6));
  }
}
BENCHMARK(BM_KTableBuild)->Arg(100)->Arg(10000)->Arg(100000);

void BM_BinomialTail(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BinomialTail(6, 10000000, 1e-6));
  }
}
BENCHMARK(BM_BinomialTail);

}  // namespace

BENCHMARK_MAIN();
