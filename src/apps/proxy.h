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
// and P collude is ~(C/N)^2.
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

// What each party observed during a proxied delivery; the privacy tests
// assert the knowledge separation.
struct ProxyDelivery {
  uint32_t proxy_index = 0;
  crypto::SealedMessage delivered;    // what the DA receives
  bool relayed = false;               // TN -> P leg succeeded
  bool delivered_ok = false;          // P -> DA leg succeeded
  bool proxy_saw_sender = false;      // P knows TN
  bool proxy_saw_payload = false;     // P could read the data
  bool recipient_saw_sender = false;  // DA learned TN's identity
  net::Cost cost;                     // two messages: TN->P, P->DA
};

// Sends `plaintext` from `sender_index` to the node owning
// `recipient_key` through a uniformly random proxy (never the sender or
// the recipient), as two RPCs over the runtime's network. A failed
// relay leg leaves relayed = false (the caller may re-pick a proxy); a
// failed delivery leg leaves delivered_ok = false (the caller may fail
// over to another recipient). `contribution_id` tags the payload for
// recipient-side deduplication; by default a fresh runtime id is drawn.
Result<ProxyDelivery> ForwardViaProxy(
    node::AppRuntime& runtime, sim::Network& network, uint32_t sender_index,
    const crypto::PublicKey& recipient_key,
    const std::vector<uint8_t>& plaintext, util::Rng& rng,
    std::optional<uint64_t> contribution_id = std::nullopt);

// Multi-hop variant (§5.3: "we could use several proxies, thus mimicking
// anonymization network techniques"): the payload stays sealed to the
// final recipient across `chain_length` distinct relays, each hop its
// own RPC. Only the first relay sees the sender and only the last sees
// the recipient; interior relays see neither endpoint. Defeating the
// delivery's unlinkability requires corrupting the whole chain AND the
// recipient, probability ~ (C/N)^(chain_length+1).
struct ChainDelivery {
  std::vector<uint32_t> chain;  // relay directory indices, in order
  crypto::SealedMessage delivered;
  bool delivered_ok = false;  // every hop succeeded
  net::Cost cost;  // chain_length + 1 messages
  // Knowledge trace per relay position for the privacy tests.
  std::vector<bool> relay_saw_sender;
  std::vector<bool> relay_saw_recipient;
};

Result<ChainDelivery> ForwardViaProxyChain(
    node::AppRuntime& runtime, sim::Network& network, uint32_t sender_index,
    const crypto::PublicKey& recipient_key,
    const std::vector<uint8_t>& plaintext, int chain_length, util::Rng& rng);

}  // namespace sep2p::apps

#endif  // SEP2P_APPS_PROXY_H_
