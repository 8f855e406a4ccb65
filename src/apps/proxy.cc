#include "apps/proxy.h"

#include <algorithm>

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
    const std::vector<uint8_t>& plaintext, util::Rng& rng, int relays,
    std::optional<uint64_t> contribution_id) {
  if (relays < 1) {
    return Status::InvalidArgument("proxy: need at least one relay");
  }
  const dht::Directory& dir = network.directory();
  std::optional<uint32_t> recipient_index =
      dir.IndexOf(dht::NodeIdForKey(recipient_key));
  if (!recipient_index.has_value()) {
    return Status::NotFound("proxy: recipient not in directory");
  }
  if (dir.size() < static_cast<size_t>(relays) + 2) {
    return Status::InvalidArgument("proxy: network too small");
  }

  // TN has every reason to draw the relays honestly at random: it is the
  // party whose privacy is at stake.
  ProxyDelivery delivery;
  std::vector<uint32_t>& chain = delivery.chain;
  chain.reserve(static_cast<size_t>(relays));
  while (chain.size() < static_cast<size_t>(relays)) {
    const auto relay = static_cast<uint32_t>(rng.NextUint64(dir.size()));
    if (relay == sender_index || relay == *recipient_index ||
        std::find(chain.begin(), chain.end(), relay) != chain.end()) {
      continue;
    }
    chain.push_back(relay);
  }
  delivery.delivered = crypto::SealForRecipient(recipient_key, plaintext, rng);
  const uint64_t id =
      contribution_id.has_value() ? *contribution_id : runtime.NextMessageId();

  // Relay i is handed the still-sealed payload and the next hop only;
  // the last relay delivers it to the recipient. Each leg is its own
  // RPC, so a dead relay breaks the chain (delivered_ok stays false)
  // instead of teleporting the payload.
  obs::Span forward_span(runtime.trace(), runtime.metrics(), sender_index,
                         "proxy-forward");
  const net::Cost before = runtime.measured_cost();
  size_t hops = 0;  // relays that took the payload
  for (; hops < chain.size(); ++hops) {
    msg::ProxyRelay relay;
    relay.contribution_id = id;
    relay.recipient_index =
        hops + 1 < chain.size() ? chain[hops + 1] : *recipient_index;
    relay.sealed = delivery.delivered;
    const uint32_t from = hops == 0 ? sender_index : chain[hops - 1];
    if (!runtime.Call(from, chain[hops], msg::Encode(relay)).ok) break;
  }
  delivery.relayed = hops > 0;
  if (hops == chain.size()) {
    msg::SealedDelivery final_leg;
    final_leg.contribution_id = id;
    final_leg.sealed = delivery.delivered;
    delivery.delivered_ok =
        runtime.Call(chain.back(), *recipient_index, msg::Encode(final_leg))
            .ok;
  }
  delivery.cost = net::Cost::Delta(runtime.measured_cost(), before);
  return delivery;
}

}  // namespace sep2p::apps
