#include "net/frame.h"

#include "core/wire_format.h"

namespace sep2p::net {

using core::wire::Reader;
using core::wire::Writer;

std::vector<uint8_t> EncodeFrame(const Frame& frame) {
  // Version by content: correlation fields at their defaults encode the
  // 27-byte version-1 header, byte-identical to pre-observability
  // builds; a nonzero span or hlc upgrades the frame to version 2.
  const bool v2 = frame.span != 0 || frame.hlc != 0;
  Writer out;
  out.Reserve((v2 ? kFrameHeaderLenV2 : kFrameHeaderLen) +
              frame.payload.size());
  core::wire::PutHeader(out, frame.type, v2 ? kFrameVersion2 : kFrameVersion);
  out.U64(frame.rpc_id);
  out.U32(frame.src);
  out.U32(frame.dst);
  out.U8(frame.status);
  if (v2) {
    out.U64(frame.span);
    out.U64(frame.hlc);
  }
  out.Blob(frame.payload);
  return out.Take();
}

namespace {

// Vets a frame's prefix (magic, type, version) as soon as it arrives:
// it decides the header length.
Status ReadPrefix(Reader& in, uint8_t* type, uint16_t* version) {
  SEP2P_RETURN_IF_ERROR(core::wire::GetHeader(in, type, version));
  if (*type != kFrameRequest && *type != kFrameResponse &&
      *type != kFrameControl) {
    return Status::InvalidArgument("frame: unknown type");
  }
  if (*version != kFrameVersion && *version != kFrameVersion2) {
    return Status::InvalidArgument("frame: unsupported version");
  }
  return Status::Ok();
}

// Reads the rest of a header whose bytes have all arrived, and rejects
// an unknown status or an oversized length before any payload byte is
// awaited or allocated.
Status ReadRest(Reader& in, uint16_t version, Frame* frame,
                uint32_t* payload_len) {
  SEP2P_RETURN_IF_ERROR(in.U64(&frame->rpc_id));
  SEP2P_RETURN_IF_ERROR(in.U32(&frame->src));
  SEP2P_RETURN_IF_ERROR(in.U32(&frame->dst));
  SEP2P_RETURN_IF_ERROR(in.U8(&frame->status));
  if (frame->status != kFrameOk && frame->status != kFrameRefused) {
    return Status::InvalidArgument("frame: unknown status");
  }
  if (version == kFrameVersion2) {
    SEP2P_RETURN_IF_ERROR(in.U64(&frame->span));
    SEP2P_RETURN_IF_ERROR(in.U64(&frame->hlc));
  }
  SEP2P_RETURN_IF_ERROR(in.U32(payload_len));
  if (*payload_len > kMaxFramePayload) {
    return Status::InvalidArgument("frame: declared payload too large");
  }
  return Status::Ok();
}

}  // namespace

Status FrameParser::Feed(const uint8_t* data, size_t len,
                         std::vector<Frame>* out) {
  if (poisoned_) {
    return Status::InvalidArgument("frame: parser poisoned by earlier error");
  }
  buffer_.insert(buffer_.end(), data, data + len);
  while (buffer_.size() >= kFramePrefixLen) {
    Reader in(buffer_);
    Frame frame;
    uint16_t version = 0;
    uint32_t payload_len = 0;
    Status header = ReadPrefix(in, &frame.type, &version);
    const size_t header_len =
        version == kFrameVersion2 ? kFrameHeaderLenV2 : kFrameHeaderLen;
    if (header.ok()) {
      if (buffer_.size() < header_len) break;  // wait for the header
      header = ReadRest(in, version, &frame, &payload_len);
    }
    if (!header.ok()) {
      poisoned_ = true;
      return header;
    }
    const size_t total = header_len + payload_len;
    if (buffer_.size() < total) break;  // wait for the rest
    frame.payload.assign(buffer_.begin() + header_len,
                         buffer_.begin() + total);
    buffer_.erase(buffer_.begin(), buffer_.begin() + total);
    out->push_back(std::move(frame));
  }
  return Status::Ok();
}

}  // namespace sep2p::net
