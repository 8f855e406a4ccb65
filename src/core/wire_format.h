// The one wire codec: big-endian byte primitives, and the generic
// encoder and strict decoder that every protocol message
// (core/messages.h), verifiable artifact (core/wire.h) and TCP frame
// header (net/frame.h) goes through.
//
// Primitives: integers are big-endian, doubles travel as their IEEE-754
// bit pattern, fixed-size byte strings (keys, nonces, hashes) as their
// raw bytes, and byte vectors (signatures, blobs) as a u32 length then
// the bytes.
//
// A wire type states its layout once, as static members:
//   kTag       the tag byte of its header (top-level types only);
//   kFields    its fields in wire order: member pointers, or the list
//              descriptors below, which bound a list's count; a nested
//              struct is written by its own kFields;
//   kAppended  optional: the fields the type gained after it first
//              shipped, written after kFields.
// Encode<T> writes the header, then the fields; Decode<T> reads them
// back and rejects truncation, trailing bytes, a bad magic, tag or
// version, and a count or length outside its bound, before any
// cryptographic processing and before an allocation the input cannot
// back.
//
// Header: magic 'S' '2' 'P', the tag, a u16 version (6 bytes).
//
// Versioning rule (DESIGN.md §14), stated here only: new fields are
// appended. A value whose appended fields all hold their defaults
// encodes as version 1, byte for byte what the type encoded before it
// had them; any other value encodes as version 2. Decoders accept
// version 1 (appended fields defaulted) and, for a type with appended
// fields, version 2.

#ifndef SEP2P_CORE_WIRE_FORMAT_H_
#define SEP2P_CORE_WIRE_FORMAT_H_

#include <array>
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/status.h"

namespace sep2p::core::wire {

// Hard caps so a malicious count or length prefix cannot trigger huge
// allocations before validation.
inline constexpr uint32_t kMaxParticipants = 4096;
inline constexpr uint32_t kMaxActors = 65536;
inline constexpr uint32_t kMaxBlobLen = 1 << 16;

inline constexpr uint8_t kMagic[3] = {'S', '2', 'P'};
inline constexpr uint16_t kVersion1 = 1;
inline constexpr uint16_t kVersion2 = 2;

class Writer {
 public:
  void Reserve(size_t bytes) { out_.reserve(bytes); }
  void U8(uint8_t v) { out_.push_back(v); }
  void U16(uint16_t v) { BigEndian(v); }
  void U32(uint32_t v) { BigEndian(v); }
  void U64(uint64_t v) { BigEndian(v); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void Raw(const uint8_t* data, size_t len) {
    out_.insert(out_.end(), data, data + len);
  }
  void Blob(const std::vector<uint8_t>& data) {
    U32(static_cast<uint32_t>(data.size()));
    Raw(data.data(), data.size());
  }

  std::vector<uint8_t> Take() { return std::move(out_); }

 private:
  template <typename T>
  void BigEndian(T v) {
    uint8_t bytes[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      bytes[sizeof(T) - 1 - i] = static_cast<uint8_t>(v >> (8 * i));
    }
    Raw(bytes, sizeof(T));
  }

  std::vector<uint8_t> out_;
};

// Counts the bytes a Writer would write, so Encode reserves exactly.
class Sizer {
 public:
  void U8(uint8_t) { size_ += 1; }
  void U16(uint16_t) { size_ += 2; }
  void U32(uint32_t) { size_ += 4; }
  void U64(uint64_t) { size_ += 8; }
  void F64(double) { size_ += 8; }
  void Raw(const uint8_t*, size_t len) { size_ += len; }
  void Blob(const std::vector<uint8_t>& data) { size_ += 4 + data.size(); }

  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& data) : data_(data) {}

  Status U8(uint8_t* v) { return BigEndian(v); }
  Status U16(uint16_t* v) { return BigEndian(v); }
  Status U32(uint32_t* v) { return BigEndian(v); }
  Status U64(uint64_t* v) { return BigEndian(v); }
  Status F64(double* v) {
    uint64_t bits = 0;
    SEP2P_RETURN_IF_ERROR(U64(&bits));
    *v = std::bit_cast<double>(bits);
    return Status::Ok();
  }
  // Bounds-checked bulk read of `len` raw bytes into `out`.
  Status Raw(uint8_t* out, size_t len) {
    if (len > remaining()) {
      return Status::InvalidArgument("wire: truncated input");
    }
    if (len != 0) std::memcpy(out, data_.data() + pos_, len);
    pos_ += len;
    return Status::Ok();
  }
  Status Blob(std::vector<uint8_t>* out) {
    uint32_t len = 0;
    SEP2P_RETURN_IF_ERROR(U32(&len));
    if (len > kMaxBlobLen) {
      return Status::InvalidArgument("wire: blob too large");
    }
    if (len > remaining()) {
      return Status::InvalidArgument("wire: truncated blob");
    }
    out->assign(data_.begin() + pos_, data_.begin() + pos_ + len);
    pos_ += len;
    return Status::Ok();
  }

  size_t remaining() const { return data_.size() - pos_; }
  Status ExpectEnd() const {
    if (pos_ != data_.size()) {
      return Status::InvalidArgument("wire: trailing bytes");
    }
    return Status::Ok();
  }

 private:
  template <typename T>
  Status BigEndian(T* v) {
    if (remaining() < sizeof(T)) {
      return Status::InvalidArgument("wire: truncated input");
    }
    const uint8_t* bytes = data_.data() + pos_;
    T value = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      value = static_cast<T>((value << 8) | bytes[i]);
    }
    pos_ += sizeof(T);
    *v = value;
    return Status::Ok();
  }

  const std::vector<uint8_t>& data_;
  size_t pos_ = 0;
};

// The header every message, artifact and frame opens with.
template <typename Out>
void PutHeader(Out& out, uint8_t tag, uint16_t version) {
  out.Raw(kMagic, sizeof(kMagic));
  out.U8(tag);
  out.U16(version);
}

// Reads a header and checks its magic; the caller checks the tag and
// the version.
inline Status GetHeader(Reader& in, uint8_t* tag, uint16_t* version) {
  uint8_t magic[sizeof(kMagic)];
  SEP2P_RETURN_IF_ERROR(in.Raw(magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("wire: bad magic");
  }
  SEP2P_RETURN_IF_ERROR(in.U8(tag));
  return in.U16(version);
}

// ---------------------------------------------------------------------
// Field descriptors for kFields.
// ---------------------------------------------------------------------

// A list: a u32 count in [min, max], then the elements.
template <typename C, typename E>
struct Count {
  std::vector<E> C::*member;
  uint32_t min;
  uint32_t max;
};

// A list whose count must equal that of an earlier list (columns of one
// table).
template <typename C, typename E, typename F>
struct CountLike {
  std::vector<E> C::*member;
  std::vector<F> C::*like;
};

// An int travelling as a u32 of at most `max`.
template <typename C>
struct AtMost {
  int C::*member;
  uint32_t max;
};

// ---------------------------------------------------------------------
// The generic walker. Out is a Writer or a Sizer.
// ---------------------------------------------------------------------

template <typename T>
struct IsByteArray : std::false_type {};
template <size_t N>
struct IsByteArray<std::array<uint8_t, N>> : std::true_type {};

// A fixed-size byte string: a std::array<uint8_t, N>, or a class whose
// bytes() is one (crypto::Hash256).
template <typename V>
concept FixedBytes = IsByteArray<std::remove_const_t<V>>::value ||
                     requires(V& v) {
                       requires IsByteArray<
                           std::remove_cvref_t<decltype(v.bytes())>>::value;
                     };

template <FixedBytes V>
auto& RawBytes(V& v) {
  if constexpr (IsByteArray<std::remove_const_t<V>>::value) {
    return v;
  } else {
    return v.bytes();
  }
}

template <typename T>
concept HasAppended = requires { T::kAppended; };

template <typename Out, typename V>
void Put(Out& out, const V& v);

// A u32 count, then the elements; a list of fixed-size byte strings is
// one contiguous copy, since each element is exactly its bytes.
template <typename Out, typename E>
void PutList(Out& out, const std::vector<E>& list) {
  out.U32(static_cast<uint32_t>(list.size()));
  if constexpr (FixedBytes<E>) {
    static_assert(std::is_trivially_copyable_v<E> &&
                  sizeof(E) == sizeof(RawBytes(std::declval<E&>())));
    out.Raw(reinterpret_cast<const uint8_t*>(list.data()),
            list.size() * sizeof(E));
  } else {
    for (const E& e : list) Put(out, e);
  }
}

template <typename Out, typename C, typename M, typename V>
void PutField(Out& out, const C& obj, V M::*member) {
  Put(out, obj.*member);
}
template <typename Out, typename C, typename M, typename E>
void PutField(Out& out, const C& obj, const Count<M, E>& field) {
  PutList(out, obj.*field.member);
}
template <typename Out, typename C, typename M, typename E, typename F>
void PutField(Out& out, const C& obj, const CountLike<M, E, F>& field) {
  PutList(out, obj.*field.member);
}
template <typename Out, typename C, typename M>
void PutField(Out& out, const C& obj, const AtMost<M>& field) {
  out.U32(static_cast<uint32_t>(obj.*field.member));
}

template <typename Out, typename C, typename Fields>
void PutFields(Out& out, const C& obj, const Fields& fields) {
  std::apply([&](const auto&... field) { (PutField(out, obj, field), ...); },
             fields);
}

template <typename Out, typename V>
void Put(Out& out, const V& v) {
  if constexpr (std::is_same_v<V, uint8_t>) {
    out.U8(v);
  } else if constexpr (std::is_same_v<V, uint16_t>) {
    out.U16(v);
  } else if constexpr (std::is_same_v<V, uint32_t>) {
    out.U32(v);
  } else if constexpr (std::is_same_v<V, uint64_t>) {
    out.U64(v);
  } else if constexpr (std::is_same_v<V, double>) {
    out.F64(v);
  } else if constexpr (std::is_same_v<V, std::vector<uint8_t>>) {
    out.Blob(v);
  } else if constexpr (FixedBytes<V>) {
    const auto& bytes = RawBytes(v);
    out.Raw(bytes.data(), bytes.size());
  } else {
    PutFields(out, v, V::kFields);
  }
}

template <typename V>
Status Get(Reader& in, V& v);

template <typename E>
Status GetElements(Reader& in, uint32_t count, std::vector<E>& list) {
  // Every element takes at least one byte, so a count the remaining
  // input cannot back fails before the list is allocated.
  if (count > in.remaining()) {
    return Status::InvalidArgument("wire: truncated list");
  }
  list.resize(count);
  if constexpr (FixedBytes<E>) {
    return in.Raw(reinterpret_cast<uint8_t*>(list.data()),
                  size_t{count} * sizeof(E));
  } else {
    for (E& e : list) SEP2P_RETURN_IF_ERROR(Get(in, e));
    return Status::Ok();
  }
}

// A u32 in [min, max]: a list count, or an AtMost int.
inline Status GetBounded(Reader& in, uint32_t min, uint32_t max,
                         uint32_t* value) {
  SEP2P_RETURN_IF_ERROR(in.U32(value));
  if (*value < min || *value > max) {
    return Status::InvalidArgument("wire: count out of bounds");
  }
  return Status::Ok();
}

template <typename C, typename M, typename V>
Status GetField(Reader& in, C& obj, V M::*member) {
  return Get(in, obj.*member);
}
template <typename C, typename M, typename E>
Status GetField(Reader& in, C& obj, const Count<M, E>& field) {
  uint32_t count = 0;
  SEP2P_RETURN_IF_ERROR(GetBounded(in, field.min, field.max, &count));
  return GetElements(in, count, obj.*field.member);
}
template <typename C, typename M, typename E, typename F>
Status GetField(Reader& in, C& obj, const CountLike<M, E, F>& field) {
  const uint32_t like = static_cast<uint32_t>((obj.*field.like).size());
  uint32_t count = 0;
  SEP2P_RETURN_IF_ERROR(GetBounded(in, like, like, &count));
  return GetElements(in, count, obj.*field.member);
}
template <typename C, typename M>
Status GetField(Reader& in, C& obj, const AtMost<M>& field) {
  uint32_t value = 0;
  SEP2P_RETURN_IF_ERROR(GetBounded(in, 0, field.max, &value));
  obj.*field.member = static_cast<int>(value);
  return Status::Ok();
}

template <typename C, typename Fields>
Status GetFields(Reader& in, C& obj, const Fields& fields) {
  Status status;
  std::apply(
      [&](const auto&... field) {
        static_cast<void>(((status = GetField(in, obj, field)).ok() && ...));
      },
      fields);
  return status;
}

template <typename V>
Status Get(Reader& in, V& v) {
  if constexpr (std::is_same_v<V, uint8_t>) {
    return in.U8(&v);
  } else if constexpr (std::is_same_v<V, uint16_t>) {
    return in.U16(&v);
  } else if constexpr (std::is_same_v<V, uint32_t>) {
    return in.U32(&v);
  } else if constexpr (std::is_same_v<V, uint64_t>) {
    return in.U64(&v);
  } else if constexpr (std::is_same_v<V, double>) {
    return in.F64(&v);
  } else if constexpr (std::is_same_v<V, std::vector<uint8_t>>) {
    return in.Blob(&v);
  } else if constexpr (FixedBytes<V>) {
    auto& bytes = RawBytes(v);
    return in.Raw(bytes.data(), bytes.size());
  } else {
    return GetFields(in, v, V::kFields);
  }
}

// A top-level wire type: a header tag and a field list.
template <typename T>
concept Tagged = requires {
  { T::kTag } -> std::convertible_to<uint8_t>;
  T::kFields;
};

template <Tagged T>
bool AppendedAtDefaults(const T& m) {
  if constexpr (HasAppended<T>) {
    return std::apply(
        [&](const auto... field) {
          return ((m.*field == std::remove_cvref_t<decltype(m.*field)>{}) &&
                  ...);
        },
        T::kAppended);
  } else {
    return true;
  }
}

template <Tagged T>
std::vector<uint8_t> Encode(const T& m) {
  const bool v1 = AppendedAtDefaults(m);
  auto write = [&](auto& out) {
    PutHeader(out, T::kTag, v1 ? kVersion1 : kVersion2);
    PutFields(out, m, T::kFields);
    if constexpr (HasAppended<T>) {
      if (!v1) PutFields(out, m, T::kAppended);
    }
  };
  Sizer sizer;
  write(sizer);
  Writer writer;
  writer.Reserve(sizer.size());
  write(writer);
  return writer.Take();
}

template <Tagged T>
Result<T> Decode(const std::vector<uint8_t>& bytes) {
  Reader in(bytes);
  uint8_t tag = 0;
  uint16_t version = 0;
  SEP2P_RETURN_IF_ERROR(GetHeader(in, &tag, &version));
  if (tag != T::kTag) return Status::InvalidArgument("wire: wrong tag");
  if (version != kVersion1 && !(HasAppended<T> && version == kVersion2)) {
    return Status::InvalidArgument("wire: unsupported version");
  }
  T m;
  SEP2P_RETURN_IF_ERROR(GetFields(in, m, T::kFields));
  if constexpr (HasAppended<T>) {
    if (version == kVersion2) {
      SEP2P_RETURN_IF_ERROR(GetFields(in, m, T::kAppended));
    }
  }
  SEP2P_RETURN_IF_ERROR(in.ExpectEnd());
  return m;
}

}  // namespace sep2p::core::wire

#endif  // SEP2P_CORE_WIRE_FORMAT_H_
