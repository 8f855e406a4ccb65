#include "sim/network.h"

#include <algorithm>
#include <mutex>

#include "core/probability.h"
#include "crypto/ed25519_provider.h"
#include "crypto/sim_provider.h"
#include "dht/node_id.h"
#include "sim/trial_runner.h"
#include "strategies/adversary.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace sep2p::sim {

namespace {

// Stream-family salt for per-node provisioning randomness (key pairs).
constexpr uint64_t kProvisionSalt = 0x70726f7669736eULL;  // "provisn"

}  // namespace

Result<std::unique_ptr<Network>> Network::Build(const Parameters& params) {
  if (params.n < 8) {
    return Status::InvalidArgument("network: need at least 8 nodes");
  }
  if (params.c() >= params.n) {
    return Status::InvalidArgument("network: colluders must be < N");
  }

  auto network = std::unique_ptr<Network>(new Network(params));
  if (params.provider == Parameters::ProviderKind::kEd25519) {
    network->provider_ = std::make_unique<crypto::Ed25519Provider>();
  } else {
    network->provider_ = std::make_unique<crypto::SimProvider>();
  }

  Result<crypto::CertificateAuthority> ca =
      crypto::CertificateAuthority::Create(*network->provider_,
                                           network->rng_);
  if (!ca.ok()) return ca.status();
  network->ca_.emplace(std::move(ca.value()));

  // Provision every node: key pair, certificate, imposed DHT location.
  // This is the dominant setup cost at scale (N key generations + N CA
  // signatures — with Ed25519, two EVP operations per node), so it is
  // sharded across the pool. Node i draws its key material from its own
  // RNG stream, gets serial `first_serial + i` and is written straight
  // into slot i of the directory's staged columns, whose credential
  // strides come from the provider; so the provisioned network is a
  // pure function of the parameters — identical for every thread count.
  // Churn-pool nodes (indices n..n+pool) are provisioned dead and
  // WITHOUT a CA signature: certificate issuance is part of the join
  // they will later perform (sim/churn_driver.h), which is exactly the
  // CA load the paper's §3.6 analysis charges to churn. Their serials
  // are reserved here so issuance order never depends on join order.
  const uint64_t total = params.n + params.churn_pool;
  dht::Directory::Columns staged(total,
                                 network->provider_->private_key_size(),
                                 network->provider_->signature_size());
  const uint64_t first_serial = network->ca_->ReserveSerials(total);
  const uint64_t provision_seed = MixSeed(params.seed, kProvisionSalt);
  std::mutex error_mutex;
  uint64_t error_index = total;
  Status error = Status::Ok();

  const int threads = util::ThreadPool::ResolveThreads(params.threads);
  util::ThreadPool pool(threads <= 1 ? 0 : threads);
  pool.ParallelFor(
      total,
      [&](size_t i) {
        auto fail = [&](Status status) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (i < error_index) {
            error_index = i;
            error = std::move(status);
          }
        };
        util::Rng rng(StreamSeed(provision_seed, i));
        Result<crypto::KeyPair> pair =
            network->provider_->GenerateKeyPair(rng);
        if (!pair.ok()) {
          fail(pair.status());
          return;
        }
        const uint64_t serial = first_serial + i;
        const bool pooled = i >= params.n;
        crypto::Signature ca_signature;  // none yet for a pool node
        if (!pooled) {
          Result<crypto::Certificate> cert =
              network->ca_->IssueWithSerial(pair->pub, serial);
          if (!cert.ok()) {
            fail(cert.status());
            return;
          }
          ca_signature = std::move(cert->ca_signature);
        }
        const dht::NodeId id = dht::NodeIdForKey(pair->pub);
        staged.Write(i, id.ring_pos(), id, pair->pub, serial, pair->priv,
                     ca_signature, /*alive=*/!pooled);
      },
      /*grain=*/64);
  if (!error.ok()) return error;
  network->directory_ = std::make_unique<dht::Directory>(std::move(staged));
  network->chord_ =
      std::make_unique<dht::ChordOverlay>(network->directory_.get());

  // Draw C colluders uniformly at random (their DHT spread is uniform by
  // the imposed-location construction regardless of which are drawn).
  network->ReassignColluders(network->rng_);

  network->ktable_.emplace(
      core::KTable::Build(params.n, params.c(), params.alpha));
  network->tolerance_rs_ =
      core::SolveRegionSizeForPopulation(1, params.n, params.alpha);

  SEP2P_LOG(Info) << "network built: " << params.ToString()
                  << " k_max=" << network->ktable_->k_max();
  return network;
}

dht::CanOverlay& Network::can() {
  if (!can_) can_ = std::make_unique<dht::CanOverlay>(directory_.get());
  return *can_;
}

dht::RoutingOverlay& Network::overlay() {
  if (params_.overlay == Parameters::OverlayKind::kCan) return can();
  return *chord_;
}

core::ProtocolContext Network::context() {
  core::ProtocolContext ctx;
  ctx.directory = directory_.get();
  ctx.overlay = &overlay();
  ctx.provider = provider_.get();
  ctx.ca = &ca_.value();
  ctx.ktable = &ktable_.value();
  ctx.actor_count = params_.actor_count;
  ctx.rs3 = params_.rs3();
  ctx.tolerance_rs = tolerance_rs_;
  ctx.verify_sink = verify_sink_;
  ctx.colluders = &colluders_;
  return ctx;
}

void Network::ReassignColluders(util::Rng& rng) {
  // The placement rule (and its exact RNG draw sequence) lives in
  // strategies::SampleColluders so the closed-form adversary model and
  // the live attack scenarios draw the identical coalition for the same
  // seed; attack_test pins the parity.
  colluders_ = strategies::SampleColluders(*directory_, params_.c(), rng);
}

void Network::RefreshKTable(uint64_t population) {
  ktable_.emplace(core::KTable::Build(population, params_.c(), params_.alpha));
  tolerance_rs_ =
      core::SolveRegionSizeForPopulation(1, population, params_.alpha);
}

}  // namespace sep2p::sim
