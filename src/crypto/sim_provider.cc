#include "crypto/sim_provider.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>

#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace sep2p::crypto {

namespace {

constexpr char kTag[] = "sep2p-sim-tag";

// The forgeable "signing key" associated with a public key.
Digest MacKey(const PublicKey& pub) {
  Sha256 ctx;
  ctx.Update(reinterpret_cast<const uint8_t*>(kTag), sizeof(kTag) - 1);
  ctx.Update(pub.data(), pub.size());
  return ctx.Finish();
}

// The HMAC schedule a private key signs with. Recompute pub from priv,
// then MAC under the pub-derived key so Verify (which only has the
// public key) can recompute it.
HmacSha256Key SigningSchedule(const PrivateKey& key) {
  const Digest mac_key = MacKey(Sha256Hash(key.data));
  return HmacSha256Key(mac_key.data(), mac_key.size());
}

// Everything signing under one private key derives from it. A pure
// function of the key bytes, so one entry serves every SimProvider.
struct SigningState {
  explicit SigningState(const PrivateKey& key) : mac(SigningSchedule(key)) {
    std::copy(key.data.begin(), key.data.end(), priv.begin());
  }

  std::array<uint8_t, 32> priv{};
  HmacSha256Key mac;
};

// The last key this thread signed with (sim_provider.h says why one
// entry per thread and not a map).
thread_local std::optional<SigningState> last_signer;

}  // namespace

Result<KeyPair> SimProvider::DoGenerateKeyPair(util::Rng& rng) {
  KeyPair pair;
  auto seed = rng.NextBytes32();
  pair.priv.data.assign(seed.begin(), seed.end());
  // pub = SHA256(priv): unique, unforgeable-by-accident, cheap.
  Digest pub = Sha256Hash(pair.priv.data);
  std::memcpy(pair.pub.data(), pub.data(), pub.size());
  return pair;
}

Result<PublicKey> SimProvider::DerivePublicKey(const PrivateKey& key) {
  if (key.data.size() != 32) {
    return Status::InvalidArgument("sim: bad private key");
  }
  Digest pub_digest = Sha256Hash(key.data);
  PublicKey pub;
  std::memcpy(pub.data(), pub_digest.data(), pub_digest.size());
  return pub;
}

Result<Signature> SimProvider::DoSign(const PrivateKey& key,
                                      const uint8_t* msg, size_t len) {
  if (key.data.size() != 32) {
    return Status::InvalidArgument("sim: bad private key");
  }
  if (!last_signer.has_value() ||
      !std::equal(key.data.begin(), key.data.end(),
                  last_signer->priv.begin())) {
    last_signer.emplace(key);
  }
  Digest mac = last_signer->mac.Mac(msg, len);
  return Signature(mac.begin(), mac.end());
}

bool SimProvider::DoVerify(const PublicKey& key, const uint8_t* msg,
                           size_t len, const Signature& sig) {
  if (sig.size() != 32) return false;
  Digest mac_key = MacKey(key);
  Digest expected = HmacSha256(mac_key.data(), mac_key.size(), msg, len);
  return std::memcmp(expected.data(), sig.data(), expected.size()) == 0;
}

void SimProvider::DoVerifyBatch(const VerifyItem* items, size_t count,
                                uint8_t* ok_out) {
  // Visit items grouped by key (results stay positional): each run of
  // equal keys shares one MAC-key derivation.
  std::vector<uint32_t> order(count);
  for (size_t i = 0; i < count; ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(), [items](uint32_t a, uint32_t b) {
    return items[a].key < items[b].key;
  });
  Digest mac_key{};
  const PublicKey* cached_key = nullptr;
  for (uint32_t idx : order) {
    const VerifyItem& item = items[idx];
    if (item.sig.size() != 32) {
      ok_out[idx] = 0;
      continue;
    }
    if (cached_key == nullptr || !(*cached_key == item.key)) {
      mac_key = MacKey(item.key);
      cached_key = &item.key;
    }
    Digest expected = HmacSha256(mac_key.data(), mac_key.size(),
                                 item.msg.data(), item.msg.size());
    ok_out[idx] = std::memcmp(expected.data(), item.sig.data(),
                              expected.size()) == 0
                      ? 1
                      : 0;
  }
}

}  // namespace sep2p::crypto
