// Sealed messages: payloads only the intended recipient can open.
//
// Sealing simulates hybrid public-key encryption: the keystream is
// derived from the recipient key and a fresh nonce, and OpenSealed
// refuses to decrypt unless the caller proves key ownership by supplying
// the matching private key. This preserves exactly the structural
// property the paper's analysis needs (who *can* read what), but it is
// NOT confidential against an adversary outside the API — see DESIGN.md
// substitutions.
//
// Lives in crypto (not apps) because the typed wire messages of
// core/messages.h carry sealed payloads — sensing tuples sealed to their
// data aggregator, proxy-forwarded query contributions — and the core
// layer cannot depend on the app layer.

#ifndef SEP2P_CRYPTO_SEALED_H_
#define SEP2P_CRYPTO_SEALED_H_

#include <array>
#include <cstdint>
#include <tuple>
#include <vector>

#include "crypto/signature_provider.h"
#include "util/rng.h"
#include "util/status.h"

namespace sep2p::crypto {

struct SealedMessage {
  PublicKey recipient{};
  std::array<uint8_t, 32> nonce{};
  std::vector<uint8_t> ciphertext;

  // Wire order (core/wire_format.h).
  static constexpr auto kFields =
      std::tuple(&SealedMessage::recipient, &SealedMessage::nonce,
                 &SealedMessage::ciphertext);
};

// Seals `plaintext` so only the holder of the private key matching
// `recipient` opens it.
SealedMessage SealForRecipient(const PublicKey& recipient,
                               const std::vector<uint8_t>& plaintext,
                               util::Rng& rng);

// Opens a sealed message; fails with PERMISSION_DENIED when `priv` does
// not match the recipient key.
Result<std::vector<uint8_t>> OpenSealed(SignatureProvider& provider,
                                        const SealedMessage& sealed,
                                        const PrivateKey& priv);

}  // namespace sep2p::crypto

#endif  // SEP2P_CRYPTO_SEALED_H_
