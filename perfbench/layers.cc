// Layer probes of the traced run: timed calls into each layer's public
// functions, on the workload's own world.

#include <algorithm>
#include <vector>

#include "core/messages.h"
#include "core/wire.h"
#include "crypto/sha256.h"
#include "dht/region.h"
#include "net/frame.h"
#include "net/sim_network.h"
#include "stats.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Keeps a computed value alive so the timed call is not optimized away.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

dht::RingPos RandomPos(util::Rng& rng) {
  return (static_cast<dht::RingPos>(rng.NextUint64()) << 64) |
         rng.NextUint64();
}

}  // namespace

double TimePerCallNs(const std::function<void()>& fn, double seconds) {
  // Calibrate a batch to about 1/20 of the budget, then time batches.
  uint64_t batch = 1;
  for (;;) {
    const Clock::time_point start = Clock::now();
    for (uint64_t i = 0; i < batch; ++i) fn();
    if (SecondsSince(start) >= seconds / 20 || batch >= (1u << 24)) break;
    batch *= 2;
  }
  std::vector<double> per_call_ns;
  const Clock::time_point deadline_start = Clock::now();
  while (per_call_ns.size() < 5 || SecondsSince(deadline_start) < seconds) {
    const Clock::time_point start = Clock::now();
    for (uint64_t i = 0; i < batch; ++i) fn();
    per_call_ns.push_back(SecondsSince(start) * 1e9 /
                          static_cast<double>(batch));
  }
  return Median(per_call_ns);
}

void ProbeCommonLayers(sim::Network& world, Report* report) {
  std::map<std::string, double>& out = report->per_layer;
  util::Rng rng(0x70726f6265ULL);  // "probe"
  dht::Directory& dir = world.directory();
  const uint32_t n = static_cast<uint32_t>(dir.size());

  {
    std::vector<uint8_t> block(64);
    rng.FillBytes(block.data(), block.size());
    out["crypto.sha256_64b_ns"] = TimePerCallNs([&] {
      Keep(crypto::Sha256Hash(block));
      ++block[0];
    });
    // The first alive node with a certificate signs; its own key checks.
    uint32_t signer = 0;
    while (signer + 1 < n && !(dir.alive(signer) && dir.has_cert(signer))) {
      ++signer;
    }
    crypto::SignatureProvider& provider = world.provider();
    const crypto::PrivateKey priv = dir.priv(signer);
    std::vector<uint8_t> msg(96);
    rng.FillBytes(msg.data(), msg.size());
    out["crypto.sign_ns"] = TimePerCallNs([&] {
      Keep(provider.Sign(priv, msg));
      ++msg[0];
    });
    const crypto::Signature sig = provider.Sign(priv, msg).value();
    out["crypto.verify_ns"] = TimePerCallNs(
        [&] { Keep(provider.Verify(dir.pub(signer), msg, sig)); });
  }

  {
    out["dht.successor_ns"] =
        TimePerCallNs([&] { Keep(dir.SuccessorIndex(RandomPos(rng))); });
    uint64_t routes = 0;
    uint64_t hops = 0;
    out["dht.route_us"] = TimePerCallNs([&] {
                            const uint32_t from =
                                *dir.NthAlive(rng.NextUint64(dir.alive_count()));
                            auto route = world.chord().Route(from, RandomPos(rng));
                            if (route.ok()) hops += route->hops;
                            ++routes;
                          }) /
                          1e3;
    out["dht.route_hops"] =
        static_cast<double>(hops) / static_cast<double>(routes);
    const double rs3 = world.params().rs3();
    out["dht.region_query_us"] =
        TimePerCallNs([&] {
          Keep(dir.NodesInRegion(dht::Region::Centered(RandomPos(rng), rs3))
                   .size());
        }) /
        1e3;
    // Toggle alive nodes off and back on: the directory ends as it began.
    out["dht.set_alive_ns"] = TimePerCallNs([&] {
      const uint32_t node = *dir.NthAlive(rng.NextUint64(dir.alive_count()));
      dir.SetAlive(node, false);
      dir.SetAlive(node, true);
    });
  }

  {
    net::Frame frame;
    frame.rpc_id = 7;
    frame.src = 1;
    frame.dst = 2;
    frame.payload.resize(1024);
    rng.FillBytes(frame.payload.data(), frame.payload.size());
    out["net.frame_codec_ns"] = TimePerCallNs([&] {
      const std::vector<uint8_t> bytes = net::EncodeFrame(frame);
      net::FrameParser parser;
      std::vector<net::Frame> frames;
      Keep(parser.Feed(bytes.data(), bytes.size(), &frames).ok());
      ++frame.rpc_id;
    });

    net::LinkModel link;
    link.jitter_mean_us = 0;
    net::SimNetwork simnet(2, link, net::RetryPolicy{}, /*seed=*/7);
    const std::vector<uint8_t> ack = core::msg::Encode(core::msg::AppAck{});
    simnet.Register(core::msg::kTagAppAck,
                    [&ack](uint32_t, const std::vector<uint8_t>&) {
                      return std::optional<std::vector<uint8_t>>(ack);
                    });
    out["net.sim_call_us"] =
        TimePerCallNs([&] { Keep(simnet.Call(0, 1, ack).ok); }) / 1e3;
  }
}

void ProbeValLayers(const core::ProtocolContext& ctx,
                    const core::VerifiableActorList& val, Report* report) {
  report->per_layer["core.verify_val_us"] =
      TimePerCallNs([&] { Keep(core::VerifyActorList(ctx, val).ok()); }) /
      1e3;
  report->per_layer["core.val_codec_us"] =
      TimePerCallNs([&] {
        Keep(core::wire::DecodeActorList(core::wire::EncodeActorList(val))
                 .ok());
      }) /
      1e3;
}

void ReportSelfTimes(const SpanRecorder& spans, uint64_t traced_ops,
                     Report* report) {
  for (const auto& [name, row] : spans.SelfTimes()) {
    report->Extra("self_us_per_op " + name,
                  static_cast<double>(row.self_ns) / 1e3 /
                      static_cast<double>(traced_ops),
                  "us");
  }
}

}  // namespace perfbench
