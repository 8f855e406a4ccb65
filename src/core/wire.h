// Wire format for SEP2P's verifiable artifacts.
//
// In a deployment, verifiable randoms and actor lists travel between
// nodes that do not trust each other, so the library ships a canonical,
// versioned, length-checked binary encoding: the one codec of
// core/wire_format.h, over the tag (0x01, 0x02) and field order each
// artifact declares (VerifiableRandom in core/vrand.h,
// VerifiableActorList in core/selection.h). Decoding is strict: any
// truncation, trailing garbage, bad magic or oversized field count fails
// with INVALID_ARGUMENT *before* any cryptographic check runs.

#ifndef SEP2P_CORE_WIRE_H_
#define SEP2P_CORE_WIRE_H_

#include <cstdint>
#include <vector>

#include "core/selection.h"
#include "core/vrand.h"
#include "util/status.h"

namespace sep2p::core::wire {

// Serializes a verifiable random (§3.4 artifact).
std::vector<uint8_t> EncodeVerifiableRandom(const VerifiableRandom& vrnd);
Result<VerifiableRandom> DecodeVerifiableRandom(
    const std::vector<uint8_t>& bytes);

// Serializes a verifiable actor list (§3.5 artifact), actor
// certificates included.
std::vector<uint8_t> EncodeActorList(const VerifiableActorList& val);
Result<VerifiableActorList> DecodeActorList(
    const std::vector<uint8_t>& bytes);

}  // namespace sep2p::core::wire

#endif  // SEP2P_CORE_WIRE_H_
