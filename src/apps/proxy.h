// Proxy-forwarder for sealed messages (paper §5.3, user identity
// protection).
//
// A target node TN must deliver data to a data aggregator DA without the
// DA learning who sent it and without the relay learning what was sent.
// TN seals the payload to the DA's public key (known from the verifiable
// actor list), picks a random proxy P, and sends the sealed message
// through P as two typed wire messages over net::Transport
// (ProxyRelay: TN→P, SealedDelivery: P→DA): the DA sees data without a
// sender, P sees a sender without data. The probability that both DA
// and P collude is ~(C/N)^2. §5.3 also allows several proxies, "thus
// mimicking anonymization network techniques": the payload then passes
// a chain of relays, each handed only the next hop.
//
// The relay's handler is registered once per transport
// (RegisterProxyRelay); the recipient's SealedDelivery handler belongs
// to the app whose DAs receive (QueryApp registers both).
//
// Sealing itself lives in crypto/sealed.h (the wire messages carry
// crypto::SealedMessage payloads).

#ifndef SEP2P_APPS_PROXY_H_
#define SEP2P_APPS_PROXY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/sealed.h"
#include "crypto/signature_provider.h"
#include "net/cost.h"
#include "net/transport.h"
#include "node/app_runtime.h"
#include "sim/network.h"
#include "util/rng.h"
#include "util/status.h"

namespace sep2p::apps {

// Registers the relay handler on `transport`: any node can serve as
// proxy, and a relay acknowledges a ProxyRelay and holds the sealed
// payload for its own onward leg.
void RegisterProxyRelay(net::Transport& transport);

// The outcome of one proxied delivery (ForwardViaProxy).
struct ProxyDelivery {
  std::vector<uint32_t> chain;      // relay directory indices, in order
  crypto::SealedMessage delivered;  // what the recipient receives
  bool relayed = false;             // sender -> first relay leg succeeded
  bool delivered_ok = false;        // every leg succeeded
  net::Cost cost;                   // one message per leg: relays + 1
};

// Sends `plaintext` from `sender_index` to the node owning
// `recipient_key` through `relays` distinct relays drawn uniformly at
// random (never the sender or the recipient), sealed to the recipient
// on every leg, each leg its own RPC over the runtime's network. Only
// the first relay sees the sender and only the last sees the recipient;
// interior relays see neither endpoint. Defeating the delivery's
// unlinkability requires corrupting every relay AND the recipient,
// probability ~(C/N)^(relays+1). A failed first leg leaves relayed =
// false (the caller may draw another proxy); a failed later leg leaves
// delivered_ok = false (with one relay: the caller may fail over to
// another recipient). `contribution_id` tags the payload for
// recipient-side deduplication; by default a fresh runtime id is drawn.
Result<ProxyDelivery> ForwardViaProxy(
    node::AppRuntime& runtime, sim::Network& network, uint32_t sender_index,
    const crypto::PublicKey& recipient_key,
    const std::vector<uint8_t>& plaintext, util::Rng& rng, int relays = 1,
    std::optional<uint64_t> contribution_id = std::nullopt);

}  // namespace sep2p::apps

#endif  // SEP2P_APPS_PROXY_H_
