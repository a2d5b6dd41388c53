#include "crypto/sha256.h"

#include <cstring>

#include "crypto/internal.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace zr::crypto {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#if defined(__x86_64__) || defined(__i386__)

// CPUID leaf 7, EBX bit 29, plus SSSE3 and SSE4.1 (leaf 1, ECX bits 9 and
// 19) for the byte shuffles and blends around the SHA instructions.
bool CpuHasShaNi() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 ||
      (ecx & bit_SSSE3) == 0 || (ecx & bit_SSE4_1) == 0) {
    return false;
  }
  return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 &&
         (ebx & bit_SHA) != 0;
}

#define ZR_TARGET_SHA_NI __attribute__((target("sha,ssse3,sse4.1")))

// Message words 4j..4j+3 from the four before them (FIPS 180-4 6.2.2 step 1),
// given w[4j-16..4j-13], w[4j-12..4j-9], w[4j-8..4j-5], w[4j-4..4j-1].
ZR_TARGET_SHA_NI inline __m128i NextMessage(__m128i m0, __m128i m1,
                                            __m128i m2, __m128i m3) {
  const __m128i w_minus_7 = _mm_alignr_epi8(m3, m2, 4);
  return _mm_sha256msg2_epu32(
      _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1), w_minus_7), m3);
}

// Rounds 4j..4j+3 on the state held as ABEF and CDGH.
ZR_TARGET_SHA_NI inline void FourRounds(__m128i* abef, __m128i* cdgh,
                                        __m128i message, int j) {
  __m128i wk = _mm_add_epi32(
      message, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * j)));
  *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
  wk = _mm_shuffle_epi32(wk, 0x0e);
  *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, wk);
}

ZR_TARGET_SHA_NI void Sha256ProcessBlockShaNi(uint32_t* state,
                                              const uint8_t* block) {
  // Big-endian message words to lanes.
  const __m128i byte_swap =
      _mm_setr_epi8(3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12);
  const auto* in = reinterpret_cast<const __m128i*>(block);

  // state[0..7] is A..H; SHA256RNDS2 wants A,B,E,F and C,D,G,H, highest
  // lane first.
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  const __m128i abef_in = _mm_alignr_epi8(cdab, efgh, 8);
  const __m128i cdgh_in = _mm_blend_epi16(efgh, cdab, 0xf0);
  __m128i abef = abef_in;
  __m128i cdgh = cdgh_in;

  __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128(in), byte_swap);
  __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), byte_swap);
  __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), byte_swap);
  __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), byte_swap);
  FourRounds(&abef, &cdgh, m0, 0);
  FourRounds(&abef, &cdgh, m1, 1);
  FourRounds(&abef, &cdgh, m2, 2);
  FourRounds(&abef, &cdgh, m3, 3);
  for (int j = 4; j < 16; j += 4) {
    m0 = NextMessage(m0, m1, m2, m3);
    FourRounds(&abef, &cdgh, m0, j);
    m1 = NextMessage(m1, m2, m3, m0);
    FourRounds(&abef, &cdgh, m1, j + 1);
    m2 = NextMessage(m2, m3, m0, m1);
    FourRounds(&abef, &cdgh, m2, j + 2);
    m3 = NextMessage(m3, m0, m1, m2);
    FourRounds(&abef, &cdgh, m3, j + 3);
  }

  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#undef ZR_TARGET_SHA_NI

#endif

}  // namespace

namespace internal {

void Sha256ProcessBlockPortable(uint32_t* state, const uint8_t* block) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[4 * i]) << 24) |
           (static_cast<uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
    uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

Sha256BlockRoutine ShaNiRoutine() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool available = CpuHasShaNi();
  return available ? &Sha256ProcessBlockShaNi : nullptr;
#else
  return nullptr;
#endif
}

}  // namespace internal

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  bit_count_ = 0;
  buffer_len_ = 0;
}

void Sha256::Update(std::string_view data) {
  Update(reinterpret_cast<const uint8_t*>(data.data()), data.size());
}

void Sha256::Update(const uint8_t* data, size_t len) {
  bit_count_ += static_cast<uint64_t>(len) * 8;
  while (len > 0) {
    size_t take = std::min(len, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ == sizeof(buffer_)) {
      ProcessBlock(buffer_);
      buffer_len_ = 0;
    }
  }
}

Sha256Digest Sha256::Finish() {
  // Padding: 0x80, zeros, 64-bit big-endian length. Update never leaves a
  // full buffer, so the 0x80 always fits; when fewer than 8 bytes remain
  // after it, the length goes into a second block.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, sizeof(buffer_) - buffer_len_);
    ProcessBlock(buffer_);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_count_ >> (56 - 8 * i));
  }
  ProcessBlock(buffer_);
  buffer_len_ = 0;

  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

void Sha256::ProcessBlock(const uint8_t* block) {
  static const internal::Sha256BlockRoutine routine = [] {
    const internal::Sha256BlockRoutine hardware = internal::ShaNiRoutine();
    return hardware != nullptr ? hardware
                               : &internal::Sha256ProcessBlockPortable;
  }();
  routine(state_, block);
}

Sha256Digest Sha256::Hash(std::string_view data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

std::string DigestToHex(const Sha256Digest& digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (uint8_t b : digest) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

}  // namespace zr::crypto
