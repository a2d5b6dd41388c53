// The field-list codec: how every byte format of the system is encoded and
// parsed.
//
// A record type names its fields once, in encoding order: a static
// `Fields(record, f)` calls f(field) once per field, with the constness of
// `record`. The encoder (PutFields, Encode), the parser (GetFields,
// Decode), the exact encoded size (FieldsSize) and the fewest bytes an
// encoding takes (FieldsMinBytes) all derive from that list through one
// codec per field type (Field<T>), so a format cannot encode one field
// order and parse another. The formats built on it: the wire messages
// (net/messages.h), the stored and served posting elements and the sealed
// payload (zerber/posting_element.h), WAL records (store/wal.h), the
// snapshot body (zerber/persistence.h) and the TCP frame extensions
// (net/tcp.h). Framing around a record — a tag, a length prefix, a
// checksum — belongs to its format, not to this codec.
//
// Encoding of each field type:
//   uint8_t              one raw byte
//   bool                 one byte, 0 or 1
//   uint32_t, uint64_t   LEB128 varint
//   double               its IEEE-754 bits as fixed64
//   Fixed64{x}           the uint64_t x as 8 little-endian bytes
//   enum                 its integer, range-checked (EnumField)
//   std::string          varint length, then the bytes
//   std::vector<T>       varint count, then the elements (a std::span
//                        encodes like the vector it views)
//   record               its own fields, inline
//
// Threading: pure functions of their arguments, safe from any thread.
// Parsers never trust input (the server, the wire and the disk are the
// adversary's): a malformed byte sequence comes back as a Corruption
// status, never UB, and every repeated field obeys one count rule — a count
// above the remaining bytes divided by the fewest bytes one element takes
// is Corruption before anything is reserved, so allocation stays bounded
// by the input. Every record has one encoding: a parser accepts only the
// bytes the encoder would write for what it parsed (no padded varint, no
// bool but 0 or 1), so re-encoding an accepted input gives the input back
// (tests/net_messages_test.cc mutates a golden of every record type of
// every format).

#ifndef ZERBERR_UTIL_CODEC_H_
#define ZERBERR_UTIL_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/coding.h"
#include "util/status.h"
#include "util/statusor.h"

namespace zr::codec {

/// A visitor that accepts any field (detects a Fields list).
struct AnyField {
  void operator()(const auto&) const {}
};

/// A type with a Fields list: `T::Fields(t, f)` calls f(field) once per
/// field, in encoding order, with the constness of `t`.
template <typename T>
concept WireRecord = requires(T& t) { T::Fields(t, AnyField{}); };

/// The codec of field type T. Every specialization provides
///   Put(out, x)  appends x's encoding to *out;
///   Size(x)      the number of bytes Put appends;
///   Get(in, x)   reads x from the front of *in, advancing it past the
///                bytes read (Corruption on malformed input);
///   MinBytes()   the fewest bytes any encoding of T takes, which bounds
///                the count of a repeated T.
template <typename T>
struct Field;

template <typename T>
using FieldOf = Field<std::remove_cvref_t<T>>;

/// Reads one raw byte.
Status GetByte(std::string_view* in, uint8_t* byte);

template <typename T>
void PutFields(std::string* out, const T& record) {
  T::Fields(record,
            [out](const auto& x) { FieldOf<decltype(x)>::Put(out, x); });
}

template <typename T>
size_t FieldsSize(const T& record) {
  size_t size = 0;
  T::Fields(record,
            [&](const auto& x) { size += FieldOf<decltype(x)>::Size(x); });
  return size;
}

template <typename T>
Status GetFields(std::string_view* in, T* record) {
  Status status;
  T::Fields(*record, [&](auto&& x) {
    if (!status.ok()) return;
    Status got = FieldOf<decltype(x)>::Get(in, &x);
    if (!got.ok()) status = std::move(got);
  });
  return status;
}

template <typename T>
size_t FieldsMinBytes() {
  T record{};
  size_t size = 0;
  T::Fields(record, [&](const auto& x) {
    size += FieldOf<decltype(x)>::MinBytes();
  });
  return size;
}

/// A record's bytes: its fields, with no tag or length around them.
template <WireRecord T>
std::string Encode(const T& record) {
  std::string out;
  PutFields(&out, record);
  return out;
}

/// Parses exactly one T: Corruption on malformed fields or trailing bytes.
template <WireRecord T>
StatusOr<T> Decode(std::string_view data) {
  T record;
  ZR_RETURN_IF_ERROR(GetFields(&data, &record));
  if (!data.empty()) return Status::Corruption("trailing bytes after record");
  return record;
}

// ---------------------------------------------------------------------------
// Field codecs.
// ---------------------------------------------------------------------------

template <>
struct Field<uint8_t> {
  static void Put(std::string* out, uint8_t x) {
    out->push_back(static_cast<char>(x));
  }
  static size_t Size(uint8_t) { return 1; }
  static Status Get(std::string_view* in, uint8_t* x) { return GetByte(in, x); }
  static size_t MinBytes() { return 1; }
};

template <>
struct Field<bool> {
  static void Put(std::string* out, bool x) { out->push_back(x ? 1 : 0); }
  static size_t Size(bool) { return 1; }
  static Status Get(std::string_view* in, bool* x) {
    uint8_t byte;
    ZR_RETURN_IF_ERROR(GetByte(in, &byte));
    if (byte > 1) return Status::Corruption("bad bool");
    *x = byte == 1;
    return Status::OK();
  }
  static size_t MinBytes() { return 1; }
};

template <>
struct Field<uint32_t> {
  static void Put(std::string* out, uint32_t x) { PutVarint32(out, x); }
  static size_t Size(uint32_t x) { return VarintLength32(x); }
  static Status Get(std::string_view* in, uint32_t* x) {
    return GetVarint32Cursor(in, x);
  }
  static size_t MinBytes() { return 1; }
};

template <>
struct Field<uint64_t> {
  static void Put(std::string* out, uint64_t x) { PutVarint64(out, x); }
  static size_t Size(uint64_t x) { return VarintLength64(x); }
  static Status Get(std::string_view* in, uint64_t* x) {
    return GetVarint64Cursor(in, x);
  }
  static size_t MinBytes() { return 1; }
};

/// A uint64_t carried as 8 little-endian bytes rather than a varint.
/// `U` is uint64_t, const when encoding.
template <typename U>
struct Fixed64 {
  U& value;
};
// Spelled out: clang before 17 has no aggregate deduction.
template <typename U>
Fixed64(U&) -> Fixed64<U>;

template <typename U>
struct Field<Fixed64<U>> {
  static void Put(std::string* out, Fixed64<U> x) { PutFixed64(out, x.value); }
  static size_t Size(Fixed64<U>) { return 8; }
  static Status Get(std::string_view* in, Fixed64<U>* x) {
    return GetFixed64Cursor(in, &x->value);
  }
  static size_t MinBytes() { return 8; }
};

template <>
struct Field<double> {
  static void Put(std::string* out, double x) { PutDouble(out, x); }
  static size_t Size(double) { return 8; }
  static Status Get(std::string_view* in, double* x);
  static size_t MinBytes() { return 8; }
};

template <>
struct Field<std::string> {
  static void Put(std::string* out, std::string_view x) {
    PutLengthPrefixed(out, x);
  }
  static size_t Size(std::string_view x) {
    return VarintLength64(x.size()) + x.size();
  }
  static Status Get(std::string_view* in, std::string* x) {
    std::string_view bytes;
    ZR_RETURN_IF_ERROR(GetLengthPrefixedCursor(in, &bytes));
    x->assign(bytes);
    return Status::OK();
  }
  static size_t MinBytes() { return 1; }
};

/// An enum whose valid values run kFirst..kLast, carried as integer type
/// Int (uint8_t: one raw byte; uint32_t: a varint). Any other value is
/// Corruption.
template <typename E, typename Int, E kFirst, E kLast>
struct EnumField {
  static void Put(std::string* out, E x) {
    Field<Int>::Put(out, static_cast<Int>(x));
  }
  static size_t Size(E x) { return Field<Int>::Size(static_cast<Int>(x)); }
  static Status Get(std::string_view* in, E* x) {
    Int value;
    ZR_RETURN_IF_ERROR(Field<Int>::Get(in, &value));
    if (value < static_cast<Int>(kFirst) || value > static_cast<Int>(kLast)) {
      return Status::Corruption("enum value out of range");
    }
    *x = static_cast<E>(value);
    return Status::OK();
  }
  static size_t MinBytes() { return 1; }
};

/// A repeated field as an encoder hands it over without copying.
template <typename T>
struct Field<std::span<const T>> {
  static void Put(std::string* out, std::span<const T> xs) {
    PutVarint64(out, xs.size());
    for (const T& x : xs) Field<T>::Put(out, x);
  }
  static size_t Size(std::span<const T> xs) {
    size_t size = VarintLength64(xs.size());
    for (const T& x : xs) size += Field<T>::Size(x);
    return size;
  }
  static size_t MinBytes() { return 1; }
};

/// The one count rule of every repeated field.
template <typename T>
struct Field<std::vector<T>> : Field<std::span<const T>> {
  static Status Get(std::string_view* in, std::vector<T>* xs) {
    uint64_t count;
    ZR_RETURN_IF_ERROR(GetVarint64Cursor(in, &count));
    // A count the remaining bytes cannot hold is corrupt, not a reason to
    // allocate: each element takes at least MinBytes().
    if (count > in->size() / Field<T>::MinBytes()) {
      return Status::Corruption("element count exceeds record size");
    }
    xs->reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      ZR_RETURN_IF_ERROR(Field<T>::Get(in, &xs->emplace_back()));
    }
    return Status::OK();
  }
};

/// A record's fields, inline.
template <WireRecord T>
struct Field<T> {
  static void Put(std::string* out, const T& x) { PutFields(out, x); }
  static size_t Size(const T& x) { return FieldsSize(x); }
  static Status Get(std::string_view* in, T* x) { return GetFields(in, x); }
  static size_t MinBytes() { return FieldsMinBytes<T>(); }
};

}  // namespace zr::codec

#endif  // ZERBERR_UTIL_CODEC_H_
