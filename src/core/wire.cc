#include "core/wire.h"

namespace sep2p::core::wire {

std::vector<uint8_t> EncodeVerifiableRandom(const VerifiableRandom& vrnd) {
  return Encode(vrnd);
}

Result<VerifiableRandom> DecodeVerifiableRandom(
    const std::vector<uint8_t>& bytes) {
  return Decode<VerifiableRandom>(bytes);
}

std::vector<uint8_t> EncodeActorList(const VerifiableActorList& val) {
  return Encode(val);
}

Result<VerifiableActorList> DecodeActorList(
    const std::vector<uint8_t>& bytes) {
  return Decode<VerifiableActorList>(bytes);
}

}  // namespace sep2p::core::wire
