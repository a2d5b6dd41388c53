// Endian-safe binary encoding primitives (LevelDB/RocksDB coding idiom).
//
// All fixed-width integers are encoded little-endian regardless of host
// byte order. Varints use the LEB128 scheme. Decoding is bounds-checked and
// reports failures via Status (never UB on corrupt input).

#ifndef ZERBERR_UTIL_CODING_H_
#define ZERBERR_UTIL_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/status.h"

namespace zr {

// ---------------------------------------------------------------------------
// Encoders. All append to a std::string buffer.
// ---------------------------------------------------------------------------

/// Appends a 32-bit little-endian integer.
void PutFixed32(std::string* dst, uint32_t value);

/// Appends a 64-bit little-endian integer.
void PutFixed64(std::string* dst, uint64_t value);

/// Appends an IEEE-754 double (bit pattern, little-endian).
void PutDouble(std::string* dst, double value);

/// Appends a LEB128 varint (1-5 bytes).
void PutVarint32(std::string* dst, uint32_t value);

/// Appends a LEB128 varint (1-10 bytes).
void PutVarint64(std::string* dst, uint64_t value);

/// Appends varint length followed by the raw bytes.
void PutLengthPrefixed(std::string* dst, std::string_view value);

/// Number of bytes PutVarint32 would emit.
int VarintLength32(uint32_t value);

/// Number of bytes PutVarint64 would emit.
int VarintLength64(uint64_t value);

// ---------------------------------------------------------------------------
// Cursor-style decoding: reads from the front of a string_view, advancing
// it past the consumed bytes. Composes with other cursor-style parsers
// (e.g. zerber::ParseElement).
// ---------------------------------------------------------------------------

/// Reads a varint64 from the front of `*data`, advancing it.
Status GetVarint64Cursor(std::string_view* data, uint64_t* value);

/// Reads a varint32 from the front of `*data`, advancing it.
Status GetVarint32Cursor(std::string_view* data, uint32_t* value);

/// Reads a varint length and that many raw bytes (a view into `*data`)
/// from the front of `*data`, advancing it.
Status GetLengthPrefixedCursor(std::string_view* data, std::string_view* value);

// ---------------------------------------------------------------------------
// Decoder: a cursor over an immutable byte range.
// ---------------------------------------------------------------------------

/// Sequentially decodes values from a byte buffer. Every Get* consumes input
/// and returns Corruption when the buffer is exhausted or malformed.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  /// Bytes not yet consumed.
  size_t remaining() const { return data_.size() - pos_; }

  /// True when all input has been consumed.
  bool empty() const { return pos_ >= data_.size(); }

  Status GetFixed32(uint32_t* value);
  Status GetFixed64(uint64_t* value);
  Status GetDouble(double* value);
  Status GetVarint32(uint32_t* value);
  Status GetVarint64(uint64_t* value);

  /// Reads a varint length then that many raw bytes (view into the buffer).
  Status GetLengthPrefixed(std::string_view* value);

  /// Reads exactly n raw bytes (view into the buffer).
  Status GetRaw(size_t n, std::string_view* value);

  /// Fails unless the input is fully consumed (detects trailing garbage).
  Status ExpectEof() const {
    if (!empty()) return Status::Corruption("trailing bytes after message");
    return Status::OK();
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace zr

#endif  // ZERBERR_UTIL_CODING_H_
