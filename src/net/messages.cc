#include "net/messages.h"

#include <cassert>

namespace zr::net {

MessageTag TagOf(std::string_view message) {
  if (message.empty()) return MessageTag::kInvalid;
  const auto tag = static_cast<MessageTag>(static_cast<uint8_t>(message[0]));
  bool known = false;
  Messages::ForTag(tag, [&](auto) { known = true; });
  return known ? tag : MessageTag::kInvalid;
}

ErrorResponse ErrorResponse::Of(const Status& error) {
  assert(!error.ok() && "error responses carry non-OK statuses");
  return ErrorResponse{error.code(), error.message()};
}

}  // namespace zr::net
