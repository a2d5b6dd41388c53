// Fixture: two distinct leaks in one TU. First, a decrypted snippet is
// stored in a local and later length-prefixed into a fetch response — the
// taint survives the intervening clean statement. Second, raw bytes are
// laundered into a sealed slot via SealedBytes::Adopt outside the audited
// allowlist (src/zerber/posting_element.cc).

#include <string>
#include <utility>

namespace zr {

struct SealedBytes {
  static SealedBytes Adopt(std::string bytes);
};

struct SealedSlot {
  SealedBytes bytes;
};

std::string OpenSnippet(const std::string& sealed, unsigned key);  // expect-finding: plaintext-type-at-boundary
void PutBytes(std::string* out, const std::string& bytes);
void PutLengthPrefixed(std::string* out, const std::string& bytes);

void EncodeFetchResponse(std::string* out, const std::string& sealed) {
  std::string snippet = OpenSnippet(sealed, 7);  // expect-finding: plaintext-type-at-boundary
  std::string checksum = "crc";
  PutLengthPrefixed(out, snippet);  // expect-finding: tainted-flow
  PutBytes(out, checksum);
}

void SmuggleIntoSealedSlot(SealedSlot* slot, std::string plaintext) {
  slot->bytes = SealedBytes::Adopt(std::move(plaintext));  // expect-finding: adopt-outside-allowlist
}

}  // namespace zr
