#include "crypto/certificate.h"

#include "core/wire_format.h"

namespace sep2p::crypto {

std::vector<uint8_t> Certificate::SignedBytes() const {
  core::wire::Writer out;
  out.Reserve(subject.size() + 8);
  out.Raw(subject.data(), subject.size());
  out.U64(serial);
  return out.Take();
}

Result<CertificateAuthority> CertificateAuthority::Create(
    SignatureProvider& provider, util::Rng& rng) {
  Result<KeyPair> pair = provider.GenerateKeyPair(rng);
  if (!pair.ok()) return pair.status();
  return CertificateAuthority(provider, std::move(pair.value()));
}

Result<Certificate> CertificateAuthority::Issue(const PublicKey& subject) {
  return IssueWithSerial(subject, next_serial_++);
}

uint64_t CertificateAuthority::ReserveSerials(uint64_t count) {
  const uint64_t first = next_serial_;
  next_serial_ += count;
  return first;
}

Result<Certificate> CertificateAuthority::IssueWithSerial(
    const PublicKey& subject, uint64_t serial) const {
  Certificate cert;
  cert.subject = subject;
  cert.serial = serial;
  Result<Signature> sig = provider_->Sign(key_pair_.priv, cert.SignedBytes());
  if (!sig.ok()) return sig.status();
  cert.ca_signature = std::move(sig.value());
  return cert;
}

bool CertificateAuthority::Check(const Certificate& cert) const {
  return provider_->Verify(key_pair_.pub, cert.SignedBytes(),
                           cert.ca_signature);
}

}  // namespace sep2p::crypto
