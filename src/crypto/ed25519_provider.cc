#include "crypto/ed25519_provider.h"

#include <openssl/evp.h>

#include <algorithm>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

namespace sep2p::crypto {

void EvpPkeyFree::operator()(EVP_PKEY* pkey) const { EVP_PKEY_free(pkey); }

namespace {

struct MdCtxDeleter {
  void operator()(EVP_MD_CTX* p) const { EVP_MD_CTX_free(p); }
};

using PkeyPtr = std::unique_ptr<EVP_PKEY, EvpPkeyFree>;
using MdCtxPtr = std::unique_ptr<EVP_MD_CTX, MdCtxDeleter>;

PkeyPtr LoadPrivate(const PrivateKey& key) {
  if (key.data.size() != 32) return nullptr;
  return PkeyPtr(EVP_PKEY_new_raw_private_key(EVP_PKEY_ED25519, nullptr,
                                              key.data.data(),
                                              key.data.size()));
}

PkeyPtr LoadPublic(const PublicKey& key) {
  return PkeyPtr(EVP_PKEY_new_raw_public_key(EVP_PKEY_ED25519, nullptr,
                                             key.data(), key.size()));
}

bool GetPublic(EVP_PKEY* pkey, PublicKey& pub) {
  size_t pub_len = pub.size();
  return EVP_PKEY_get_raw_public_key(pkey, pub.data(), &pub_len) == 1 &&
         pub_len == pub.size();
}

}  // namespace

size_t Ed25519Provider::SeedHash::operator()(const Seed& seed) const {
  return std::hash<std::string_view>{}(std::string_view(
      reinterpret_cast<const char*>(seed.data()), seed.size()));
}

const Ed25519Provider::SigningKey* Ed25519Provider::FindOrImport(
    const PrivateKey& key) {
  if (key.data.size() != 32) return nullptr;
  Seed seed{};
  std::copy(key.data.begin(), key.data.end(), seed.begin());
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = keys_.find(seed);
    if (it != keys_.end()) return &it->second;
  }
  // Import outside the lock, so first uses of different keys (parallel
  // CA issuance) do not queue behind each other. When two threads import
  // the same key, the first insert wins and the other copy is freed.
  SigningKey imported;
  imported.pkey = LoadPrivate(key);
  if (!imported.pkey || !GetPublic(imported.pkey.get(), imported.pub)) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return &keys_.try_emplace(seed, std::move(imported)).first->second;
}

Result<KeyPair> Ed25519Provider::DoGenerateKeyPair(util::Rng& rng) {
  KeyPair pair;
  auto seed = rng.NextBytes32();
  pair.priv.data.assign(seed.begin(), seed.end());

  // Not cached: most generated keys never sign.
  PkeyPtr pkey = LoadPrivate(pair.priv);
  if (!pkey) return Status::Internal("ed25519: failed to load private key");
  if (!GetPublic(pkey.get(), pair.pub)) {
    return Status::Internal("ed25519: failed to derive public key");
  }
  return pair;
}

Result<PublicKey> Ed25519Provider::DerivePublicKey(const PrivateKey& key) {
  const SigningKey* signing = FindOrImport(key);
  if (signing == nullptr) {
    return Status::InvalidArgument("ed25519: bad private key");
  }
  return signing->pub;
}

Result<Signature> Ed25519Provider::DoSign(const PrivateKey& key,
                                          const uint8_t* msg, size_t len) {
  const SigningKey* signing = FindOrImport(key);
  if (signing == nullptr) {
    return Status::InvalidArgument("ed25519: bad private key");
  }

  MdCtxPtr ctx(EVP_MD_CTX_new());
  if (!ctx) return Status::Internal("ed25519: EVP_MD_CTX_new failed");

  if (EVP_DigestSignInit(ctx.get(), nullptr, nullptr, nullptr,
                         signing->pkey.get()) != 1) {
    return Status::Internal("ed25519: DigestSignInit failed");
  }

  size_t sig_len = 0;
  if (EVP_DigestSign(ctx.get(), nullptr, &sig_len, msg, len) != 1) {
    return Status::Internal("ed25519: DigestSign (size) failed");
  }
  Signature sig(sig_len);
  if (EVP_DigestSign(ctx.get(), sig.data(), &sig_len, msg, len) != 1) {
    return Status::Internal("ed25519: DigestSign failed");
  }
  sig.resize(sig_len);
  return sig;
}

bool Ed25519Provider::DoVerify(const PublicKey& key, const uint8_t* msg,
                               size_t len, const Signature& sig) {
  PkeyPtr pkey = LoadPublic(key);
  if (!pkey) return false;

  MdCtxPtr ctx(EVP_MD_CTX_new());
  if (!ctx) return false;

  if (EVP_DigestVerifyInit(ctx.get(), nullptr, nullptr, nullptr,
                           pkey.get()) != 1) {
    return false;
  }
  return EVP_DigestVerify(ctx.get(), sig.data(), sig.size(), msg, len) == 1;
}

void Ed25519Provider::DoVerifyBatch(const VerifyItem* items, size_t count,
                                    uint8_t* ok_out) {
  // Visit items grouped by key (results stay positional) so each run of
  // equal keys imports its EVP_PKEY once; the certificate checks in a
  // batch, all under the single CA key, share one import.
  std::vector<uint32_t> order(count);
  for (size_t i = 0; i < count; ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(), [items](uint32_t a, uint32_t b) {
    return items[a].key < items[b].key;
  });
  MdCtxPtr ctx(EVP_MD_CTX_new());
  PkeyPtr pkey;
  const PublicKey* cached_key = nullptr;
  for (uint32_t idx : order) {
    const VerifyItem& item = items[idx];
    if (cached_key == nullptr || !(*cached_key == item.key)) {
      pkey = LoadPublic(item.key);
      cached_key = &item.key;
    }
    if (!pkey || !ctx) {
      ok_out[idx] = 0;
      continue;
    }
    // A one-shot EdDSA ctx cannot be re-Init'd in place: without the
    // reset, every second EVP_DigestVerify fails spuriously.
    EVP_MD_CTX_reset(ctx.get());
    if (EVP_DigestVerifyInit(ctx.get(), nullptr, nullptr, nullptr,
                             pkey.get()) != 1) {
      ok_out[idx] = 0;
      continue;
    }
    ok_out[idx] =
        EVP_DigestVerify(ctx.get(), item.sig.data(), item.sig.size(),
                         item.msg.data(), item.msg.size()) == 1
            ? 1
            : 0;
  }
}

}  // namespace sep2p::crypto
