#include "util/codec.h"

#include <cstring>

namespace zr::codec {

Status GetByte(std::string_view* in, uint8_t* byte) {
  if (in->empty()) return Status::Corruption("truncated record");
  *byte = static_cast<uint8_t>(in->front());
  in->remove_prefix(1);
  return Status::OK();
}

Status Field<double>::Get(std::string_view* in, double* x) {
  uint64_t bits;
  ZR_RETURN_IF_ERROR(GetFixed64Cursor(in, &bits));
  std::memcpy(x, &bits, sizeof(*x));
  return Status::OK();
}

}  // namespace zr::codec
