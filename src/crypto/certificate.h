// PDMS device certificates (paper Assumption 2).
//
// Every genuine PDMS is provisioned with a certificate binding its public
// key, signed by an *offline* certificate authority. Certificates defeat
// Sybil attacks: a verifier checks one CA signature to know a node is a
// genuine device. Checking a certificate costs exactly one asymmetric
// crypto operation, which is how the paper's verification-cost formulas
// (2k, 2k+A, ...) count them.

#ifndef SEP2P_CRYPTO_CERTIFICATE_H_
#define SEP2P_CRYPTO_CERTIFICATE_H_

#include <cstdint>
#include <tuple>
#include <vector>

#include "crypto/hash256.h"
#include "crypto/signature_provider.h"
#include "util/rng.h"
#include "util/status.h"

namespace sep2p::crypto {

struct Certificate {
  PublicKey subject{};      // the node's public key
  uint64_t serial = 0;      // issuance serial, included under the signature
  Signature ca_signature;   // CA signature over (subject, serial)

  // Imposed DHT location (§3.2): id = hash(public key).
  Hash256 NodeIdFromSubject() const {
    return Hash256::Of(subject.data(), subject.size());
  }

  // The signed portion, in the order the wire carries it: subject, then
  // the big-endian serial.
  std::vector<uint8_t> SignedBytes() const;

  // Wire order (core/wire_format.h).
  static constexpr auto kFields = std::tuple(
      &Certificate::subject, &Certificate::serial, &Certificate::ca_signature);
};

// True when two of `signers` carry certificates (`.cert`) for the same
// subject. The alpha bound promises an honest signer among k legitimate
// ones only if they are k distinct nodes.
template <typename Signers>
bool RepeatsSubject(const Signers& signers) {
  for (size_t i = 1; i < signers.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (signers[i].cert.subject == signers[j].cert.subject) return true;
    }
  }
  return false;
}

class CertificateAuthority {
 public:
  // Generates the CA key pair from `rng` using `provider`.
  // `provider` must outlive the authority.
  static Result<CertificateAuthority> Create(SignatureProvider& provider,
                                             util::Rng& rng);

  // Issues a certificate for `subject`.
  Result<Certificate> Issue(const PublicKey& subject);

  // Batch issuance support: reserves `count` consecutive serials and
  // returns the first one. Callers (the network builder) then issue the
  // certificates concurrently with IssueWithSerial, which touches no CA
  // state — serial assignment stays strictly sequential, signing
  // parallelizes.
  uint64_t ReserveSerials(uint64_t count);
  Result<Certificate> IssueWithSerial(const PublicKey& subject,
                                      uint64_t serial) const;

  // Verifies the CA signature on `cert`; costs 1 asymmetric operation.
  bool Check(const Certificate& cert) const;

  const PublicKey& public_key() const { return key_pair_.pub; }

 private:
  CertificateAuthority(SignatureProvider& provider, KeyPair key_pair)
      : provider_(&provider), key_pair_(std::move(key_pair)) {}

  SignatureProvider* provider_;
  KeyPair key_pair_;
  uint64_t next_serial_ = 1;
};

}  // namespace sep2p::crypto

#endif  // SEP2P_CRYPTO_CERTIFICATE_H_
