#include "crypto/aes.h"

#include <cstring>
#include <utility>

#include "crypto/internal.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <wmmintrin.h>
#endif

namespace zr::crypto {

namespace {

// S-box generated from the AES definition (multiplicative inverse in GF(2^8)
// followed by the affine transform); stored as a table for speed.
constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                               0x20, 0x40, 0x80, 0x1b, 0x36};

// Multiply by x in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1.
inline uint8_t XTime(uint8_t a) {
  return static_cast<uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1b : 0x00));
}

#if defined(__x86_64__) || defined(__i386__)

// CPUID leaf 1, ECX bit 25.
bool CpuHasAesNi() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 && (ecx & bit_AES) != 0;
}

// The round keys are in state order, the byte order AESENC takes them in,
// so each round is one unaligned load and one instruction.
__attribute__((target("aes,sse2"))) void AesEncryptBlockAesNi(
    const uint8_t* round_keys, int rounds, uint8_t* block) {
  const auto* keys = reinterpret_cast<const __m128i*>(round_keys);
  __m128i s = _mm_xor_si128(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block)),
      _mm_loadu_si128(keys));
  for (int round = 1; round < rounds; ++round) {
    s = _mm_aesenc_si128(s, _mm_loadu_si128(keys + round));
  }
  s = _mm_aesenclast_si128(s, _mm_loadu_si128(keys + rounds));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(block), s);
}

#endif

}  // namespace

namespace internal {

void AesEncryptBlockPortable(const uint8_t* round_keys, int rounds,
                             uint8_t* block) {
  uint8_t* s = block;

  auto add_round_key = [&](int round) {
    const uint8_t* k = round_keys + kAesBlockSize * round;
    for (size_t i = 0; i < kAesBlockSize; ++i) s[i] ^= k[i];
  };

  auto sub_bytes = [&] {
    for (size_t i = 0; i < kAesBlockSize; ++i) s[i] = kSbox[s[i]];
  };

  // State is column-major: s[4c + r] is row r, column c.
  auto shift_rows = [&] {
    uint8_t t;
    // Row 1: rotate left by 1.
    t = s[1]; s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;
    // Row 2: rotate left by 2.
    std::swap(s[2], s[10]);
    std::swap(s[6], s[14]);
    // Row 3: rotate left by 3 (== right by 1).
    t = s[15]; s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;
  };

  auto mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      uint8_t* col = s + 4 * c;
      uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      uint8_t all = a0 ^ a1 ^ a2 ^ a3;
      col[0] = static_cast<uint8_t>(a0 ^ all ^ XTime(a0 ^ a1));
      col[1] = static_cast<uint8_t>(a1 ^ all ^ XTime(a1 ^ a2));
      col[2] = static_cast<uint8_t>(a2 ^ all ^ XTime(a2 ^ a3));
      col[3] = static_cast<uint8_t>(a3 ^ all ^ XTime(a3 ^ a0));
    }
  };

  add_round_key(0);
  for (int round = 1; round < rounds; ++round) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes();
  shift_rows();
  add_round_key(rounds);
}

AesBlockRoutine AesNiRoutine() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool available = CpuHasAesNi();
  return available ? &AesEncryptBlockAesNi : nullptr;
#else
  return nullptr;
#endif
}

}  // namespace internal

StatusOr<Aes> Aes::Create(std::string_view key) {
  if (key.size() != 16 && key.size() != 32) {
    return Status::InvalidArgument(
        "AES key must be 16 (AES-128) or 32 (AES-256) bytes, got " +
        std::to_string(key.size()));
  }
  Aes aes;
  aes.ExpandKey(reinterpret_cast<const uint8_t*>(key.data()), key.size());
  return aes;
}

// FIPS-197 5.2 on bytes: word i of the schedule is round_keys_[4i..4i+3],
// which puts every round key in state order.
void Aes::ExpandKey(const uint8_t* key, size_t key_len) {
  const size_t nk = key_len / 4;       // 4 or 8 words
  rounds_ = static_cast<int>(nk) + 6;  // 10 or 14
  const size_t total_words = 4 * (nk + 7);
  uint8_t* w = round_keys_.data();

  std::memcpy(w, key, key_len);
  for (size_t i = nk; i < total_words; ++i) {
    uint8_t t[4] = {};
    std::memcpy(t, w + 4 * (i - 1), 4);
    if (i % nk == 0) {
      // SubWord(RotWord(t)) ^ Rcon.
      const uint8_t first = t[0];
      t[0] = static_cast<uint8_t>(kSbox[t[1]] ^ kRcon[i / nk]);
      t[1] = kSbox[t[2]];
      t[2] = kSbox[t[3]];
      t[3] = kSbox[first];
    } else if (nk > 6 && i % nk == 4) {
      for (uint8_t& b : t) b = kSbox[b];
    }
    for (size_t j = 0; j < 4; ++j) {
      w[4 * i + j] = static_cast<uint8_t>(w[4 * (i - nk) + j] ^ t[j]);
    }
  }
}

void Aes::EncryptBlock(AesBlock* block) const {
  static const internal::AesBlockRoutine routine = [] {
    const internal::AesBlockRoutine hardware = internal::AesNiRoutine();
    return hardware != nullptr ? hardware : &internal::AesEncryptBlockPortable;
  }();
  routine(round_keys_.data(), rounds_, block->data());
}

}  // namespace zr::crypto
