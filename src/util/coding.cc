#include "util/coding.h"

namespace zr {

void PutFixed32(std::string* dst, uint32_t value) {
  char buf[4];
  buf[0] = static_cast<char>(value & 0xff);
  buf[1] = static_cast<char>((value >> 8) & 0xff);
  buf[2] = static_cast<char>((value >> 16) & 0xff);
  buf[3] = static_cast<char>((value >> 24) & 0xff);
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t value) {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  dst->append(buf, 8);
}

void PutDouble(std::string* dst, double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  PutFixed64(dst, bits);
}

void PutVarint32(std::string* dst, uint32_t value) {
  while (value >= 0x80) {
    dst->push_back(static_cast<char>(value | 0x80));
    value >>= 7;
  }
  dst->push_back(static_cast<char>(value));
}

void PutVarint64(std::string* dst, uint64_t value) {
  while (value >= 0x80) {
    dst->push_back(static_cast<char>(value | 0x80));
    value >>= 7;
  }
  dst->push_back(static_cast<char>(value));
}

void PutLengthPrefixed(std::string* dst, std::string_view value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

int VarintLength32(uint32_t value) {
  int len = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++len;
  }
  return len;
}

int VarintLength64(uint64_t value) {
  int len = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++len;
  }
  return len;
}

namespace {

/// Reads the `n`-byte little-endian integer at the front of `*data`; false
/// (nothing read) when fewer bytes remain.
bool GetLittleEndian(std::string_view* data, size_t n, uint64_t* value) {
  if (data->size() < n) return false;
  uint64_t v = 0;
  for (size_t i = n; i-- > 0;) v = (v << 8) | static_cast<uint8_t>((*data)[i]);
  *value = v;
  data->remove_prefix(n);
  return true;
}

/// Decodes the varint64 at the front of `in` into *value and returns its
/// length; 0 (value untouched) when `in` ends inside it, it is longer than
/// ten bytes (the tenth holding bit 63 alone), or it is padded (a last byte
/// of 0 after others), so each value has exactly one encoding.
size_t DecodeVarint64(std::string_view in, uint64_t* value) {
  uint64_t result = 0;
  for (size_t i = 0, shift = 0; i < in.size(); ++i, shift += 7) {
    const uint64_t byte = static_cast<uint8_t>(in[i]);
    if (shift == 63 && byte > 1) return 0;
    result |= (byte & 0x7f) << shift;
    if (byte < 0x80) {
      if (byte == 0 && i > 0) return 0;
      *value = result;
      return i + 1;
    }
  }
  return 0;
}

}  // namespace

Status GetFixed32Cursor(std::string_view* data, uint32_t* value) {
  uint64_t v = 0;
  if (!GetLittleEndian(data, 4, &v)) {
    return Status::Corruption("truncated fixed32");
  }
  *value = static_cast<uint32_t>(v);
  return Status::OK();
}

Status GetFixed64Cursor(std::string_view* data, uint64_t* value) {
  if (!GetLittleEndian(data, 8, value)) {
    return Status::Corruption("truncated fixed64");
  }
  return Status::OK();
}

Status GetVarint64Cursor(std::string_view* data, uint64_t* value) {
  size_t n = DecodeVarint64(*data, value);
  if (n == 0) return Status::Corruption("truncated or overlong varint");
  data->remove_prefix(n);
  return Status::OK();
}

Status GetVarint32Cursor(std::string_view* data, uint32_t* value) {
  uint64_t v = 0;
  size_t n = DecodeVarint64(*data, &v);
  if (n == 0 || v > UINT32_MAX) return Status::Corruption("bad varint32");
  *value = static_cast<uint32_t>(v);
  data->remove_prefix(n);
  return Status::OK();
}

Status GetLengthPrefixedCursor(std::string_view* data,
                               std::string_view* value) {
  uint64_t len = 0;
  size_t n = DecodeVarint64(*data, &len);
  if (n == 0 || len > data->size() - n) {
    return Status::Corruption("bad length-prefixed bytes");
  }
  *value = data->substr(n, static_cast<size_t>(len));
  data->remove_prefix(n + static_cast<size_t>(len));
  return Status::OK();
}

}  // namespace zr
