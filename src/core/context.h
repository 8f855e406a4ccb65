// ProtocolContext: the dependencies a protocol execution needs.
//
// The simulator (sim/network.h) owns the directory, overlay, signature
// provider, CA, k-table and colluder placement and hands protocols a
// non-owning context. Everything here must outlive the protocol run.

#ifndef SEP2P_CORE_CONTEXT_H_
#define SEP2P_CORE_CONTEXT_H_

#include <cstdint>

#include "core/colluder_set.h"
#include "core/ktable.h"
#include "crypto/certificate.h"
#include "crypto/signature_provider.h"
#include "dht/chord.h"
#include "dht/directory.h"
#include "dht/overlay.h"

namespace sep2p::core {

struct ProtocolContext {
  dht::Directory* directory = nullptr;
  // Routing overlay (Chord by default; CAN for the overlay ablation).
  dht::RoutingOverlay* overlay = nullptr;
  crypto::SignatureProvider* provider = nullptr;
  crypto::CertificateAuthority* ca = nullptr;
  const KTable* ktable = nullptr;
  // Who colludes: read by the adversary models, the attack scenarios and
  // the covert deviations, never by an honest participant. Sweeps point
  // each worker's context at the placement of the shard it runs.
  const ColluderSet* colluders = nullptr;

  // Number of actors to select (A).
  int actor_count = 32;
  // Node-cache region size (rs3 = cache_size / N).
  double rs3 = 0.00512;
  // Verifier tolerance for the baseline strategies: how close to a hashed
  // destination a node must be for verifiers to accept its claim. Sized so
  // that *some* genuine node is always within tolerance (otherwise honest
  // executions would stall); see strategies/es_strategies.cc.
  double tolerance_rs = 0;
  // Logical clock and timestamp freshness window (§3.6 reuse prevention).
  uint64_t now = 1000;
  uint64_t max_timestamp_age = 600;
  // Bound on relocation attempts when R3 regions are underpopulated.
  int max_relocations = 8;

  // When set, signature and certificate checks are deferred to this sink
  // (optimistic verification: the protocol proceeds assuming they pass,
  // and the engine folds batched verdicts back per task). When null —
  // every pre-engine caller — checks run synchronously as before.
  crypto::VerifySink* verify_sink = nullptr;

  bool Colludes(uint32_t index) const { return colluders->contains(index); }

  // Convenience: signs `msg` with the private key of the node at `index`.
  Result<crypto::Signature> SignAs(uint32_t index,
                                   const std::vector<uint8_t>& msg) const {
    return provider->Sign(directory->priv(index), msg);
  }

  // Signs the 32 bytes of `digest`. An attestation (AttestReply) signs
  // the SHA-256 digest its AttestRequest names, never the attested
  // bytes themselves (DESIGN.md §14).
  Result<crypto::Signature> SignAs(uint32_t index,
                                   const crypto::Hash256& digest) const {
    return provider->Sign(directory->priv(index), digest.bytes().data(),
                          digest.bytes().size());
  }

  // Verifies `sig` over `msg` under `key` — synchronously when no sink
  // is installed, otherwise deferred (returns true optimistically).
  // Metering happens when the deferred batch resolves (VerifyBatch
  // counts each item), so asym-op totals match the synchronous path.
  bool CheckSignature(const crypto::PublicKey& key,
                      const std::vector<uint8_t>& msg,
                      const crypto::Signature& sig) const {
    if (verify_sink != nullptr) {
      verify_sink->Defer(key, msg, sig);
      return true;
    }
    return provider->Verify(key, msg, sig);
  }

  // Verifies an attestation: `sig` over the 32 bytes of `digest`.
  bool CheckSignature(const crypto::PublicKey& key,
                      const crypto::Hash256& digest,
                      const crypto::Signature& sig) const {
    const std::vector<uint8_t> msg(digest.bytes().begin(),
                                   digest.bytes().end());
    return CheckSignature(key, msg, sig);
  }

  // Checks a certificate against the CA — synchronously or deferred.
  // Deferred cert checks verify the CA signature over the certificate's
  // canonical signed bytes, exactly what CertificateAuthority::Check does.
  bool CheckCertificate(const crypto::Certificate& cert) const {
    if (verify_sink != nullptr) {
      verify_sink->Defer(ca->public_key(), cert.SignedBytes(),
                         cert.ca_signature);
      return true;
    }
    return ca->Check(cert);
  }
};

}  // namespace sep2p::core

#endif  // SEP2P_CORE_CONTEXT_H_
