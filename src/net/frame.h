// Length-prefixed framing for TcpTransport (net/tcp_transport.h).
//
// A frame is one request, response or control exchange travelling a
// TCP stream:
//
//   magic   'S' '2' 'P'   (3 bytes; the header of core/wire_format.h,
//   type    u8             with the frame type in the tag byte:
//   version u16            1 = request, 2 = response, 3 = control;
//                          frame-layer version 1 or 2)
//   rpc_id  u64           (caller-assigned; responses echo it)
//   src     u32           (logical sender node)
//   dst     u32           (logical destination node)
//   status  u8            (responses: 0 = ok, 1 = refused; requests: 0)
//   span    u64           (version 2 only: caller's open trace span)
//   hlc     u64           (version 2 only: sender's HLC stamp,
//                          obs/hlc.h — receivers Observe() it so the
//                          merged cluster trace orders causally)
//   len     u32           (payload byte count, <= kMaxFramePayload)
//   payload len bytes     (a core/messages.h message for requests and
//                          ok-responses; empty for refusals; status
//                          text for control responses)
//
// Version negotiation by content, after the rule of core/wire_format.h:
// a frame whose span and hlc are BOTH zero encodes as version 1 (a
// 27-byte header, byte-identical to pre-observability builds), and only
// correlated frames (an obs::TraceRecorder attached) pay the 16 extra
// header bytes of version 2 (43 bytes). Span and hlc sit inside the
// header, not at its end, so the frame writes its own fields rather
// than a kFields list. Both versions parse on receive.
//
// Control frames (type 3) are the transport's status plane: a control
// request (empty payload) asks the serving process for its live status
// text; the control response carries it. They never enter protocol
// dispatch, stats, or traces.
//
// The header is written and read with the core/wire_format.h Writer and
// Reader (big-endian). The payload inside the frame is a
// self-describing protocol message with its own magic/tag/version
// header — the frame layer never interprets it; the versioning rule
// lives in core/wire_format.h (DESIGN.md §14).
//
// FrameParser is a strict streaming decoder built for adversarial
// input: it accumulates partial reads, validates the header before the
// payload arrives, and rejects bad magic, unknown type/version, and
// oversized declared lengths WITHOUT allocating payload-sized buffers
// first — a malicious 4 GB length prefix costs the attacker a closed
// connection, not our memory. A parse error is sticky: framing has no
// resync point, so the connection must be dropped.

#ifndef SEP2P_NET_FRAME_H_
#define SEP2P_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/status.h"

namespace sep2p::net {

inline constexpr uint8_t kFrameRequest = 1;
inline constexpr uint8_t kFrameResponse = 2;
inline constexpr uint8_t kFrameControl = 3;

inline constexpr uint8_t kFrameOk = 0;
inline constexpr uint8_t kFrameRefused = 1;

inline constexpr uint16_t kFrameVersion = 1;
inline constexpr uint16_t kFrameVersion2 = 2;
inline constexpr size_t kFrameHeaderLen = 27;
inline constexpr size_t kFrameHeaderLenV2 = kFrameHeaderLen + 16;
// Magic + type + version: enough to decide which header length applies.
inline constexpr size_t kFramePrefixLen = 6;

// Generous for protocol messages (the largest — a VAL broadcast with
// attestations — is tens of KB) while keeping a hostile length prefix
// harmless.
inline constexpr uint32_t kMaxFramePayload = 1u << 20;

struct Frame {
  uint8_t type = kFrameRequest;
  uint64_t rpc_id = 0;
  uint32_t src = 0;
  uint32_t dst = 0;
  uint8_t status = kFrameOk;
  uint64_t span = 0;  // trace correlation (0 = none; encodes version 1)
  uint64_t hlc = 0;   // HLC stamp (0 = none; encodes version 1)
  std::vector<uint8_t> payload;
};

std::vector<uint8_t> EncodeFrame(const Frame& frame);

class FrameParser {
 public:
  // Appends `len` stream bytes and decodes every frame that completes;
  // decoded frames are pushed onto `out`. Returns an error as soon as
  // the stream is malformed (bad magic / type / version / length) —
  // after which the parser refuses further input.
  Status Feed(const uint8_t* data, size_t len, std::vector<Frame>* out);

  // Bytes buffered awaiting the rest of a frame (test/diagnostic hook).
  size_t pending_bytes() const { return buffer_.size(); }

 private:
  std::vector<uint8_t> buffer_;
  bool poisoned_ = false;
};

}  // namespace sep2p::net

#endif  // SEP2P_NET_FRAME_H_
