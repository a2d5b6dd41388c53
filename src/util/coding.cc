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

Status GetVarint64Cursor(std::string_view* data, uint64_t* value) {
  ByteReader reader(*data);
  ZR_RETURN_IF_ERROR(reader.GetVarint64(value));
  *data = data->substr(data->size() - reader.remaining());
  return Status::OK();
}

Status GetVarint32Cursor(std::string_view* data, uint32_t* value) {
  ByteReader reader(*data);
  ZR_RETURN_IF_ERROR(reader.GetVarint32(value));
  *data = data->substr(data->size() - reader.remaining());
  return Status::OK();
}

Status GetLengthPrefixedCursor(std::string_view* data,
                               std::string_view* value) {
  ByteReader reader(*data);
  ZR_RETURN_IF_ERROR(reader.GetLengthPrefixed(value));
  *data = data->substr(data->size() - reader.remaining());
  return Status::OK();
}

Status ByteReader::GetFixed32(uint32_t* value) {
  if (remaining() < 4) return Status::Corruption("truncated fixed32");
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(data_.data()) + pos_;
  *value = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
  pos_ += 4;
  return Status::OK();
}

Status ByteReader::GetFixed64(uint64_t* value) {
  if (remaining() < 8) return Status::Corruption("truncated fixed64");
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(data_.data()) + pos_;
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  *value = v;
  pos_ += 8;
  return Status::OK();
}

Status ByteReader::GetDouble(double* value) {
  uint64_t bits;
  ZR_RETURN_IF_ERROR(GetFixed64(&bits));
  std::memcpy(value, &bits, sizeof(*value));
  return Status::OK();
}

Status ByteReader::GetVarint32(uint32_t* value) {
  uint64_t v;
  ZR_RETURN_IF_ERROR(GetVarint64(&v));
  if (v > UINT32_MAX) return Status::Corruption("varint32 overflow");
  *value = static_cast<uint32_t>(v);
  return Status::OK();
}

Status ByteReader::GetVarint64(uint64_t* value) {
  uint64_t result = 0;
  for (int shift = 0;; shift += 7) {
    if (empty()) return Status::Corruption("truncated varint");
    uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
    // The tenth byte holds bit 63 alone: anything more would not fit.
    if (shift == 63 && byte > 1) return Status::Corruption("varint too long");
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if (!(byte & 0x80)) {
      *value = result;
      return Status::OK();
    }
  }
}

Status ByteReader::GetLengthPrefixed(std::string_view* value) {
  uint64_t len;
  ZR_RETURN_IF_ERROR(GetVarint64(&len));
  return GetRaw(static_cast<size_t>(len), value);
}

Status ByteReader::GetRaw(size_t n, std::string_view* value) {
  if (remaining() < n) return Status::Corruption("truncated raw bytes");
  *value = data_.substr(pos_, n);
  pos_ += n;
  return Status::OK();
}

}  // namespace zr
