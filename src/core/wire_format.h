// Primitive big-endian writer/reader shared by the wire codecs.
//
// core/wire.cc (verifiable artifacts) and core/messages.cc (protocol
// messages for the simulated network) encode with the same primitives so
// every byte that crosses the SimNetwork uses one canonical format:
// big-endian integers, IEEE-754 bit-pattern doubles, length-prefixed
// blobs with hard caps. Decoding is strict — truncation or an oversized
// length prefix fails with INVALID_ARGUMENT before any allocation
// larger than the input could be triggered.

#ifndef SEP2P_CORE_WIRE_FORMAT_H_
#define SEP2P_CORE_WIRE_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "crypto/certificate.h"
#include "crypto/hash256.h"
#include "util/status.h"

namespace sep2p::core::wire {

// Hard caps so a malicious length prefix cannot trigger huge
// allocations before validation.
inline constexpr uint32_t kMaxParticipants = 4096;
inline constexpr uint32_t kMaxActors = 65536;
inline constexpr uint32_t kMaxBlobLen = 1 << 16;

class Writer {
 public:
  void Reserve(size_t bytes) { out_.reserve(bytes); }
  void U8(uint8_t v) { out_.push_back(v); }
  void U16(uint16_t v) {
    out_.push_back(static_cast<uint8_t>(v >> 8));
    out_.push_back(static_cast<uint8_t>(v));
  }
  void U32(uint32_t v) {
    for (int i = 3; i >= 0; --i) {
      out_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void U64(uint64_t v) {
    for (int i = 7; i >= 0; --i) {
      out_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Raw(const uint8_t* data, size_t len) {
    out_.insert(out_.end(), data, data + len);
  }
  void Blob(const std::vector<uint8_t>& data) {
    U32(static_cast<uint32_t>(data.size()));
    Raw(data.data(), data.size());
  }
  void Hash(const crypto::Hash256& h) {
    Raw(h.bytes().data(), h.bytes().size());
  }
  void Key(const crypto::PublicKey& k) { Raw(k.data(), k.size()); }
  void Cert(const crypto::Certificate& cert) {
    Key(cert.subject);
    U64(cert.serial);
    Blob(cert.ca_signature);
  }

  std::vector<uint8_t> Take() { return std::move(out_); }

 private:
  std::vector<uint8_t> out_;
};

class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& data) : data_(data) {}

  Status U8(uint8_t* v) { return Fixed(v, 1); }
  Status U16(uint16_t* v) {
    uint8_t b[2];
    SEP2P_RETURN_IF_ERROR(Bytes(b, 2));
    *v = static_cast<uint16_t>((b[0] << 8) | b[1]);
    return Status::Ok();
  }
  Status U32(uint32_t* v) {
    uint8_t b[4];
    SEP2P_RETURN_IF_ERROR(Bytes(b, 4));
    *v = (static_cast<uint32_t>(b[0]) << 24) |
         (static_cast<uint32_t>(b[1]) << 16) |
         (static_cast<uint32_t>(b[2]) << 8) | b[3];
    return Status::Ok();
  }
  Status U64(uint64_t* v) {
    uint8_t b[8];
    SEP2P_RETURN_IF_ERROR(Bytes(b, 8));
    *v = 0;
    for (int i = 0; i < 8; ++i) *v = (*v << 8) | b[i];
    return Status::Ok();
  }
  Status F64(double* v) {
    uint64_t bits;
    SEP2P_RETURN_IF_ERROR(U64(&bits));
    std::memcpy(v, &bits, sizeof(*v));
    return Status::Ok();
  }
  Status Blob(std::vector<uint8_t>* out) {
    uint32_t len;
    SEP2P_RETURN_IF_ERROR(U32(&len));
    if (len > kMaxBlobLen) {
      return Status::InvalidArgument("wire: blob too large");
    }
    if (pos_ + len > data_.size()) {
      return Status::InvalidArgument("wire: truncated blob");
    }
    out->assign(data_.begin() + pos_, data_.begin() + pos_ + len);
    pos_ += len;
    return Status::Ok();
  }
  Status Hash(crypto::Hash256* h) {
    return Bytes(h->bytes().data(), h->bytes().size());
  }
  Status Key(crypto::PublicKey* k) { return Bytes(k->data(), k->size()); }
  // Bounds-checked bulk read of `len` raw bytes into `out`.
  Status Raw(uint8_t* out, size_t len) {
    return len == 0 ? Status::Ok() : Bytes(out, len);
  }
  Status Cert(crypto::Certificate* cert) {
    SEP2P_RETURN_IF_ERROR(Key(&cert->subject));
    SEP2P_RETURN_IF_ERROR(U64(&cert->serial));
    return Blob(&cert->ca_signature);
  }

  Status ExpectEnd() const {
    if (pos_ != data_.size()) {
      return Status::InvalidArgument("wire: trailing bytes");
    }
    return Status::Ok();
  }

 private:
  Status Bytes(uint8_t* out, size_t len) {
    if (pos_ + len > data_.size()) {
      return Status::InvalidArgument("wire: truncated input");
    }
    std::memcpy(out, data_.data() + pos_, len);
    pos_ += len;
    return Status::Ok();
  }
  template <typename T>
  Status Fixed(T* v, size_t len) {
    return Bytes(reinterpret_cast<uint8_t*>(v), len);
  }

  const std::vector<uint8_t>& data_;
  size_t pos_ = 0;
};

}  // namespace sep2p::core::wire

#endif  // SEP2P_CORE_WIRE_FORMAT_H_
