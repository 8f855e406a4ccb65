// Network: builds and owns a complete simulated SEP2P deployment.
//
// Provisioning follows the paper's architecture: each node gets a key
// pair from the signature provider and a certificate from the offline
// CA; its DHT id is imposed as hash(public key), so colluders — drawn
// uniformly at random — end up uniformly spread over the ring. The
// network exposes a core::ProtocolContext that protocol runs borrow.

#ifndef SEP2P_SIM_NETWORK_H_
#define SEP2P_SIM_NETWORK_H_

#include <memory>
#include <optional>
#include <vector>

#include "core/context.h"
#include "core/ktable.h"
#include "crypto/certificate.h"
#include "crypto/signature_provider.h"
#include "dht/can.h"
#include "dht/chord.h"
#include "dht/directory.h"
#include "sim/parameters.h"
#include "util/rng.h"

namespace sep2p::sim {

class Network {
 public:
  static Result<std::unique_ptr<Network>> Build(const Parameters& params);

  const Parameters& params() const { return params_; }
  dht::Directory& directory() { return *directory_; }
  const dht::Directory& directory() const { return *directory_; }
  dht::ChordOverlay& chord() { return *chord_; }
  // The routing overlay selected by params().overlay (Chord or CAN).
  dht::RoutingOverlay& overlay();
  crypto::SignatureProvider& provider() { return *provider_; }
  crypto::CertificateAuthority& ca() { return *ca_; }
  const core::KTable& ktable() const { return *ktable_; }
  util::Rng& rng() { return rng_; }

  // Lazily built CAN overlay (only some tests/benches need it).
  dht::CanOverlay& can();

  // Borrowed protocol context; valid while the Network lives. `now` and
  // tunables can be adjusted on the returned value.
  core::ProtocolContext context();

  // Installs a deferred-verification sink into every context() built
  // from here on (the throughput engine's batched mode); nullptr
  // restores synchronous verification. The sink must outlive any
  // protocol run using those contexts.
  void set_verify_sink(crypto::VerifySink* sink) { verify_sink_ = sink; }
  crypto::VerifySink* verify_sink() const { return verify_sink_; }

  // The network's colluder placement, which context() points at, and
  // its directory indices, ascending.
  const core::ColluderSet& colluders() const { return colluders_; }
  const std::vector<uint32_t>& ColluderIndices() const {
    return colluders_.handles();
  }

  // Draws a new placement (same C) with strategies::SampleColluders and
  // refills the set that every context() points at. Colluders are
  // sampled among the alive population (churn-pool nodes never
  // collude). Sweeps that vary the placement per shard draw their own
  // sets instead (sim/experiment.h).
  void ReassignColluders(util::Rng& rng);

  // Rebuilds the k-table for a new effective population (churn drivers
  // call this when the alive count drifts far from the k-table's N).
  void RefreshKTable(uint64_t population);

 private:
  Network(const Parameters& params) : params_(params), rng_(params.seed) {}

  Parameters params_;
  util::Rng rng_;
  std::unique_ptr<crypto::SignatureProvider> provider_;
  std::optional<crypto::CertificateAuthority> ca_;
  std::unique_ptr<dht::Directory> directory_;
  std::unique_ptr<dht::ChordOverlay> chord_;
  std::unique_ptr<dht::CanOverlay> can_;
  std::optional<core::KTable> ktable_;
  double tolerance_rs_ = 0;
  crypto::VerifySink* verify_sink_ = nullptr;
  core::ColluderSet colluders_;
};

}  // namespace sep2p::sim

#endif  // SEP2P_SIM_NETWORK_H_
