#include "apps/crypto/aes.hpp"

#include <cassert>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <wmmintrin.h>
#define ZC_AES_X86 1
#endif

namespace zc::app {
namespace {

constexpr std::uint8_t kSbox[256] = {
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

constexpr std::uint8_t kInvSbox[256] = {
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e,
    0x81, 0xf3, 0xd7, 0xfb, 0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87,
    0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb, 0x54, 0x7b, 0x94, 0x32,
    0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49,
    0x6d, 0x8b, 0xd1, 0x25, 0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16,
    0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92, 0x6c, 0x70, 0x48, 0x50,
    0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05,
    0xb8, 0xb3, 0x45, 0x06, 0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02,
    0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b, 0x3a, 0x91, 0x11, 0x41,
    0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8,
    0x1c, 0x75, 0xdf, 0x6e, 0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89,
    0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b, 0xfc, 0x56, 0x3e, 0x4b,
    0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59,
    0x27, 0x80, 0xec, 0x5f, 0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d,
    0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef, 0xa0, 0xe0, 0x3b, 0x4d,
    0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63,
    0x55, 0x21, 0x0c, 0x7d};

constexpr std::uint8_t kRcon[15] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36,
                                    0x6c, 0xd8, 0xab, 0x4d, 0x9a};

inline std::uint8_t xtime(std::uint8_t x) noexcept {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

constexpr std::uint8_t gmul_const(std::uint8_t a, std::uint8_t b) noexcept {
  std::uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    a = static_cast<std::uint8_t>((a << 1) ^ ((a >> 7) * 0x1b));
    b >>= 1;
  }
  return p;
}

// Precomputed GF(2^8) multiplication tables for InvMixColumns — the
// pipeline benchmarks decrypt megabytes, so decryption must not be orders
// of magnitude slower than encryption (OpenSSL's certainly is not).
struct GmulTables {
  std::uint8_t by9[256];
  std::uint8_t by11[256];
  std::uint8_t by13[256];
  std::uint8_t by14[256];
};

constexpr GmulTables make_gmul_tables() noexcept {
  GmulTables t{};
  for (int i = 0; i < 256; ++i) {
    const auto b = static_cast<std::uint8_t>(i);
    t.by9[i] = gmul_const(b, 0x09);
    t.by11[i] = gmul_const(b, 0x0b);
    t.by13[i] = gmul_const(b, 0x0d);
    t.by14[i] = gmul_const(b, 0x0e);
  }
  return t;
}

constexpr GmulTables kGmul = make_gmul_tables();

}  // namespace

#ifdef ZC_AES_X86

namespace {

__attribute__((target("aes,sse2"))) inline void aesni_make_dec_keys(
    const std::uint8_t* rk, std::uint8_t* dk) {
  const auto* enc = reinterpret_cast<const __m128i*>(rk);
  auto* dec = reinterpret_cast<__m128i*>(dk);
  _mm_storeu_si128(dec + 0, _mm_loadu_si128(enc + 0));
  for (unsigned r = 1; r < Aes256::kRounds; ++r) {
    _mm_storeu_si128(dec + r, _mm_aesimc_si128(_mm_loadu_si128(enc + r)));
  }
  _mm_storeu_si128(dec + Aes256::kRounds,
                   _mm_loadu_si128(enc + Aes256::kRounds));
}

// CBC encryption is one dependency chain: block i's rounds start from
// ciphertext i-1.  So the kernel is latency-bound; it loads the 15 round
// keys once per call and keeps them and the chaining value in registers
// (the one key the 16 SSE registers cannot also hold is spilled to the
// stack once), and XORs with SSE.
__attribute__((target("aes,sse2"))) void aesni_cbc_encrypt(
    const std::uint8_t* rk, std::uint8_t* iv, const std::uint8_t* in,
    std::size_t n, std::uint8_t* out) {
  const auto* keys = reinterpret_cast<const __m128i*>(rk);
  __m128i k[Aes256::kRounds + 1];
#pragma GCC unroll 15
  for (unsigned r = 0; r <= Aes256::kRounds; ++r) {
    k[r] = _mm_load_si128(keys + r);
  }
  __m128i chain = _mm_loadu_si128(reinterpret_cast<const __m128i*>(iv));
  for (std::size_t off = 0; off < n; off += Aes256::kBlockSize) {
    __m128i s = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + off)), k[0]);
    s = _mm_xor_si128(s, chain);
#pragma GCC unroll 13
    for (unsigned r = 1; r < Aes256::kRounds; ++r) {
      s = _mm_aesenc_si128(s, k[r]);
    }
    chain = _mm_aesenclast_si128(s, k[Aes256::kRounds]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + off), chain);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(iv), chain);
}

// Loads one ciphertext block and hides its value from the optimiser, so
// the register is the only copy the kernel ever uses: the compiler cannot
// re-read `p` in place of keeping (or spilling) the register.
__attribute__((target("aes,sse2"))) inline __m128i load_once(
    const std::uint8_t* p) {
  __m128i c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  asm("" : "+x"(c));
  return c;
}

// CBC decryption has no chain through the cipher: block i needs only
// ciphertexts i and i-1.  The kernel runs four blocks through each round
// together so their aesdec latencies overlap (one round-key load serves
// four blocks); on the reference Xeon this is 3x faster than a one-block
// loop and faster than eight-wide, which spills registers.
//
// Hostile host: with copy=single `in` is the untrusted frame, which the
// host can rewrite at any time.  Each ciphertext block is loaded exactly
// once (load_once) and that register serves both as cipher input and as
// the next block's chaining value, so no block is fetched twice and a
// racing host cannot make the two uses disagree.  All four loads of a
// group precede its stores, so `out == in` is safe.
__attribute__((target("aes,sse2"))) void aesni_cbc_decrypt(
    const std::uint8_t* dk, std::uint8_t* iv, const std::uint8_t* in,
    std::size_t n, std::uint8_t* out) {
  const auto* keys = reinterpret_cast<const __m128i*>(dk);
  constexpr std::size_t kB = Aes256::kBlockSize;
  __m128i chain = _mm_loadu_si128(reinterpret_cast<const __m128i*>(iv));
  std::size_t off = 0;
  for (; off + 4 * kB <= n; off += 4 * kB) {
    const __m128i c0 = load_once(in + off);
    const __m128i c1 = load_once(in + off + kB);
    const __m128i c2 = load_once(in + off + 2 * kB);
    const __m128i c3 = load_once(in + off + 3 * kB);
    __m128i k = _mm_load_si128(keys + Aes256::kRounds);
    __m128i s0 = _mm_xor_si128(c0, k);
    __m128i s1 = _mm_xor_si128(c1, k);
    __m128i s2 = _mm_xor_si128(c2, k);
    __m128i s3 = _mm_xor_si128(c3, k);
#pragma GCC unroll 13
    for (unsigned r = Aes256::kRounds - 1; r > 0; --r) {
      k = _mm_load_si128(keys + r);
      s0 = _mm_aesdec_si128(s0, k);
      s1 = _mm_aesdec_si128(s1, k);
      s2 = _mm_aesdec_si128(s2, k);
      s3 = _mm_aesdec_si128(s3, k);
    }
    k = _mm_load_si128(keys);
    auto* dst = reinterpret_cast<__m128i*>(out + off);
    _mm_storeu_si128(dst, _mm_xor_si128(_mm_aesdeclast_si128(s0, k), chain));
    _mm_storeu_si128(dst + 1, _mm_xor_si128(_mm_aesdeclast_si128(s1, k), c0));
    _mm_storeu_si128(dst + 2, _mm_xor_si128(_mm_aesdeclast_si128(s2, k), c1));
    _mm_storeu_si128(dst + 3, _mm_xor_si128(_mm_aesdeclast_si128(s3, k), c2));
    chain = c3;
  }
  for (; off < n; off += kB) {
    const __m128i c = load_once(in + off);
    __m128i s = _mm_xor_si128(c, _mm_load_si128(keys + Aes256::kRounds));
#pragma GCC unroll 13
    for (unsigned r = Aes256::kRounds - 1; r > 0; --r) {
      s = _mm_aesdec_si128(s, _mm_load_si128(keys + r));
    }
    s = _mm_aesdeclast_si128(s, _mm_load_si128(keys));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + off),
                     _mm_xor_si128(s, chain));
    chain = c;
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(iv), chain);
}

}  // namespace

#endif  // ZC_AES_X86 helpers

Aes256::Aes256(const std::uint8_t key[kKeySize]) noexcept {
  // Key expansion (FIPS-197 §5.2) for Nk = 8, Nr = 14.
  constexpr unsigned kNk = 8;
  constexpr unsigned kNw = 4 * (kRounds + 1);  // words in the schedule
  std::uint8_t w[kNw][4];
  std::memcpy(w, key, kKeySize);
  for (unsigned i = kNk; i < kNw; ++i) {
    std::uint8_t temp[4] = {w[i - 1][0], w[i - 1][1], w[i - 1][2], w[i - 1][3]};
    if (i % kNk == 0) {
      // RotWord + SubWord + Rcon.
      const std::uint8_t t0 = temp[0];
      temp[0] = static_cast<std::uint8_t>(kSbox[temp[1]] ^ kRcon[i / kNk - 1]);
      temp[1] = kSbox[temp[2]];
      temp[2] = kSbox[temp[3]];
      temp[3] = kSbox[t0];
    } else if (i % kNk == 4) {
      // AES-256 extra SubWord.
      for (auto& t : temp) t = kSbox[t];
    }
    for (int b = 0; b < 4; ++b) {
      w[i][b] = static_cast<std::uint8_t>(w[i - kNk][b] ^ temp[b]);
    }
  }
  std::memcpy(round_keys_.data(), w, round_keys_.size());
#ifdef ZC_AES_X86
  if (has_aesni()) {
    aesni_make_dec_keys(round_keys_.data(), dec_keys_.data());
  }
#endif
}

void Aes256::encrypt_block_sw(const std::uint8_t in[kBlockSize],
                              std::uint8_t out[kBlockSize]) const noexcept {
  std::uint8_t s[16];
  std::memcpy(s, in, 16);
  auto add_round_key = [&](unsigned round) {
    const std::uint8_t* rk = round_keys_.data() + round * 16;
    for (int i = 0; i < 16; ++i) s[i] ^= rk[i];
  };
  auto sub_shift = [&] {
    std::uint8_t t[16];
    // SubBytes + ShiftRows fused: t[col*4+row] = S(s[((col+row)%4)*4+row])
    for (int col = 0; col < 4; ++col) {
      for (int row = 0; row < 4; ++row) {
        t[col * 4 + row] = kSbox[s[((col + row) % 4) * 4 + row]];
      }
    }
    std::memcpy(s, t, 16);
  };
  auto mix_columns = [&] {
    for (int col = 0; col < 4; ++col) {
      std::uint8_t* c = s + col * 4;
      const std::uint8_t a0 = c[0], a1 = c[1], a2 = c[2], a3 = c[3];
      c[0] = static_cast<std::uint8_t>(xtime(a0) ^ xtime(a1) ^ a1 ^ a2 ^ a3);
      c[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ xtime(a2) ^ a2 ^ a3);
      c[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ xtime(a3) ^ a3);
      c[3] = static_cast<std::uint8_t>(xtime(a0) ^ a0 ^ a1 ^ a2 ^ xtime(a3));
    }
  };

  add_round_key(0);
  for (unsigned round = 1; round < kRounds; ++round) {
    sub_shift();
    mix_columns();
    add_round_key(round);
  }
  sub_shift();
  add_round_key(kRounds);
  std::memcpy(out, s, 16);
}

void Aes256::decrypt_block_sw(const std::uint8_t in[kBlockSize],
                              std::uint8_t out[kBlockSize]) const noexcept {
  std::uint8_t s[16];
  std::memcpy(s, in, 16);
  auto add_round_key = [&](unsigned round) {
    const std::uint8_t* rk = round_keys_.data() + round * 16;
    for (int i = 0; i < 16; ++i) s[i] ^= rk[i];
  };
  auto inv_sub_shift = [&] {
    std::uint8_t t[16];
    // InvShiftRows + InvSubBytes fused.
    for (int col = 0; col < 4; ++col) {
      for (int row = 0; row < 4; ++row) {
        t[((col + row) % 4) * 4 + row] = kInvSbox[s[col * 4 + row]];
      }
    }
    std::memcpy(s, t, 16);
  };
  auto inv_mix_columns = [&] {
    for (int col = 0; col < 4; ++col) {
      std::uint8_t* c = s + col * 4;
      const std::uint8_t a0 = c[0], a1 = c[1], a2 = c[2], a3 = c[3];
      c[0] = static_cast<std::uint8_t>(kGmul.by14[a0] ^ kGmul.by11[a1] ^
                                       kGmul.by13[a2] ^ kGmul.by9[a3]);
      c[1] = static_cast<std::uint8_t>(kGmul.by9[a0] ^ kGmul.by14[a1] ^
                                       kGmul.by11[a2] ^ kGmul.by13[a3]);
      c[2] = static_cast<std::uint8_t>(kGmul.by13[a0] ^ kGmul.by9[a1] ^
                                       kGmul.by14[a2] ^ kGmul.by11[a3]);
      c[3] = static_cast<std::uint8_t>(kGmul.by11[a0] ^ kGmul.by13[a1] ^
                                       kGmul.by9[a2] ^ kGmul.by14[a3]);
    }
  };

  add_round_key(kRounds);
  for (unsigned round = kRounds - 1; round > 0; --round) {
    inv_sub_shift();
    add_round_key(round);
    inv_mix_columns();
  }
  inv_sub_shift();
  add_round_key(0);
  std::memcpy(out, s, 16);
}


#ifdef ZC_AES_X86

bool Aes256::has_aesni() noexcept {
  static const bool supported = __builtin_cpu_supports("aes") != 0;
  return supported;
}

#else

bool Aes256::has_aesni() noexcept { return false; }

#endif  // ZC_AES_X86

void Aes256::cbc_encrypt(std::uint8_t iv[kBlockSize], const std::uint8_t* in,
                         std::size_t n, std::uint8_t* out) const noexcept {
  assert(n % kBlockSize == 0);
#ifdef ZC_AES_X86
  if (has_aesni()) {
    aesni_cbc_encrypt(round_keys_.data(), iv, in, n, out);
    return;
  }
#endif
  cbc_encrypt_sw(iv, in, n, out);
}

void Aes256::cbc_decrypt(std::uint8_t iv[kBlockSize], const std::uint8_t* in,
                         std::size_t n, std::uint8_t* out) const noexcept {
  assert(n % kBlockSize == 0);
#ifdef ZC_AES_X86
  if (has_aesni()) {
    aesni_cbc_decrypt(dec_keys_.data(), iv, in, n, out);
    return;
  }
#endif
  cbc_decrypt_sw(iv, in, n, out);
}

void Aes256::cbc_encrypt_sw(std::uint8_t iv[kBlockSize],
                            const std::uint8_t* in, std::size_t n,
                            std::uint8_t* out) const noexcept {
  // The chaining value is kept in trusted memory, never re-read from `out`.
  for (std::size_t off = 0; off < n; off += kBlockSize) {
    for (std::size_t i = 0; i < kBlockSize; ++i) iv[i] ^= in[off + i];
    encrypt_block_sw(iv, iv);
    std::memcpy(out + off, iv, kBlockSize);
  }
}

void Aes256::cbc_decrypt_sw(std::uint8_t iv[kBlockSize],
                            const std::uint8_t* in, std::size_t n,
                            std::uint8_t* out) const noexcept {
  // One copy of each ciphertext block into trusted memory; both its uses
  // (cipher input, next chaining value) read that copy.
  for (std::size_t off = 0; off < n; off += kBlockSize) {
    std::uint8_t cipher[kBlockSize];
    std::memcpy(cipher, in + off, kBlockSize);
    std::uint8_t block[kBlockSize];
    decrypt_block_sw(cipher, block);
    for (std::size_t i = 0; i < kBlockSize; ++i) {
      out[off + i] = static_cast<std::uint8_t>(block[i] ^ iv[i]);
    }
    std::memcpy(iv, cipher, kBlockSize);
  }
}

}  // namespace zc::app
