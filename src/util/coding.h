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
// Decoders, cursor-style: each reads from the front of `*data` and
// advances it past the bytes read. On malformed or exhausted input they
// return Corruption and leave `*data` as it was. Record formats compose
// them through the field-list codec (util/codec.h).
// ---------------------------------------------------------------------------

/// Reads a 32-bit little-endian integer.
Status GetFixed32Cursor(std::string_view* data, uint32_t* value);

/// Reads a 64-bit little-endian integer.
Status GetFixed64Cursor(std::string_view* data, uint64_t* value);

/// Reads a varint64 (at most ten bytes, the tenth holding bit 63 alone, and
/// no padding: a last byte of 0 must be the only byte).
Status GetVarint64Cursor(std::string_view* data, uint64_t* value);

/// Reads a varint32 (a varint64 that must fit in 32 bits).
Status GetVarint32Cursor(std::string_view* data, uint32_t* value);

/// Reads a varint length and that many raw bytes (a view into `*data`).
Status GetLengthPrefixedCursor(std::string_view* data, std::string_view* value);

}  // namespace zr

#endif  // ZERBERR_UTIL_CODING_H_
