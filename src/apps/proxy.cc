#include "apps/proxy.h"

#include <set>

#include "core/messages.h"

namespace sep2p::apps {

namespace msg = core::msg;

void RegisterProxyRelay(net::Transport& transport) {
  // A relay's observable behaviour is just the acknowledgement; the
  // onward leg is issued by the delivery driver with the relay as
  // client, because a handler must not re-enter the network.
  transport.Register(msg::kTagProxyRelay,
                     [](uint32_t, const std::vector<uint8_t>& request)
                         -> std::optional<std::vector<uint8_t>> {
                       if (!msg::Decode<msg::ProxyRelay>(request).ok()) {
                         return std::nullopt;
                       }
                       return msg::Encode(msg::AppAck{});
                     });
}

Result<ProxyDelivery> ForwardViaProxy(
    node::AppRuntime& runtime, sim::Network& network, uint32_t sender_index,
    const crypto::PublicKey& recipient_key,
    const std::vector<uint8_t>& plaintext, util::Rng& rng,
    std::optional<uint64_t> contribution_id) {
  const dht::Directory& dir = network.directory();
  std::optional<uint32_t> recipient_index =
      dir.IndexOf(dht::NodeIdForKey(recipient_key));
  if (!recipient_index.has_value()) {
    return Status::NotFound("proxy: recipient not in directory");
  }

  // TN has every reason to pick the proxy honestly at random: it is the
  // party whose privacy is at stake.
  uint32_t proxy;
  do {
    proxy = static_cast<uint32_t>(rng.NextUint64(dir.size()));
  } while (proxy == sender_index || proxy == *recipient_index);

  ProxyDelivery delivery;
  delivery.proxy_index = proxy;
  delivery.delivered = crypto::SealForRecipient(recipient_key, plaintext, rng);
  delivery.proxy_saw_sender = true;    // P receives directly from TN
  delivery.proxy_saw_payload = false;  // but only ciphertext
  delivery.recipient_saw_sender = false;  // DA sees the proxy's address
  const uint64_t id =
      contribution_id.has_value() ? *contribution_id : runtime.NextMessageId();

  obs::Span forward_span(runtime.trace(), runtime.metrics(), sender_index, "proxy-forward");
  const net::Cost before = runtime.measured_cost();
  msg::ProxyRelay relay;
  relay.contribution_id = id;
  relay.recipient_index = *recipient_index;
  relay.sealed = delivery.delivered;
  net::Transport::RpcResult leg1 =
      runtime.Call(sender_index, proxy, msg::Encode(relay));
  delivery.relayed = leg1.ok;
  if (delivery.relayed) {
    msg::SealedDelivery final_leg;
    final_leg.contribution_id = id;
    final_leg.sealed = delivery.delivered;
    net::Transport::RpcResult leg2 =
        runtime.Call(proxy, *recipient_index, msg::Encode(final_leg));
    delivery.delivered_ok = leg2.ok;
  }
  delivery.cost = net::Cost::Delta(runtime.measured_cost(), before);
  return delivery;
}

Result<ChainDelivery> ForwardViaProxyChain(
    node::AppRuntime& runtime, sim::Network& network, uint32_t sender_index,
    const crypto::PublicKey& recipient_key,
    const std::vector<uint8_t>& plaintext, int chain_length, util::Rng& rng) {
  if (chain_length < 1) {
    return Status::InvalidArgument("proxy chain: need at least one relay");
  }
  const dht::Directory& dir = network.directory();
  std::optional<uint32_t> recipient_index =
      dir.IndexOf(dht::NodeIdForKey(recipient_key));
  if (!recipient_index.has_value()) {
    return Status::NotFound("proxy chain: recipient not in directory");
  }
  if (dir.size() < static_cast<size_t>(chain_length) + 2) {
    return Status::InvalidArgument("proxy chain: network too small");
  }

  ChainDelivery delivery;
  std::set<uint32_t> used{sender_index, *recipient_index};
  while (static_cast<int>(delivery.chain.size()) < chain_length) {
    uint32_t relay = static_cast<uint32_t>(rng.NextUint64(dir.size()));
    if (!used.insert(relay).second) continue;
    delivery.chain.push_back(relay);
  }

  delivery.delivered = crypto::SealForRecipient(recipient_key, plaintext, rng);
  for (int i = 0; i < chain_length; ++i) {
    delivery.relay_saw_sender.push_back(i == 0);
    delivery.relay_saw_recipient.push_back(i == chain_length - 1);
  }

  // Hop h forwards the still-sealed payload to hop h+1; the final hop
  // delivers it to the recipient. Each hop is its own RPC, so a dead
  // relay breaks the chain (delivered_ok stays false) instead of
  // teleporting the payload.
  const uint64_t id = runtime.NextMessageId();
  obs::Span chain_span(runtime.trace(), runtime.metrics(), sender_index, "proxy-chain");
  const net::Cost before = runtime.measured_cost();
  delivery.delivered_ok = true;
  uint32_t hop_from = sender_index;
  for (int i = 0; i < chain_length && delivery.delivered_ok; ++i) {
    msg::ProxyRelay relay;
    relay.contribution_id = id;
    relay.recipient_index = i + 1 < chain_length
                                ? delivery.chain[static_cast<size_t>(i) + 1]
                                : *recipient_index;
    relay.sealed = delivery.delivered;
    net::Transport::RpcResult hop = runtime.Call(
        hop_from, delivery.chain[static_cast<size_t>(i)], msg::Encode(relay));
    delivery.delivered_ok = hop.ok;
    hop_from = delivery.chain[static_cast<size_t>(i)];
  }
  if (delivery.delivered_ok) {
    msg::SealedDelivery final_leg;
    final_leg.contribution_id = id;
    final_leg.sealed = delivery.delivered;
    net::Transport::RpcResult last =
        runtime.Call(hop_from, *recipient_index, msg::Encode(final_leg));
    delivery.delivered_ok = last.ok;
  }
  delivery.cost = net::Cost::Delta(runtime.measured_cost(), before);
  return delivery;
}

}  // namespace sep2p::apps
