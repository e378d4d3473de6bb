#include "apps/crypto/aes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

namespace zc::app {
namespace {

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(
        std::stoul(hex.substr(2 * i, 2), nullptr, 16));
  }
  return out;
}

// One block through CBC with an all-zero IV is the bare block cipher.
void encrypt_one(const Aes256& aes, const std::uint8_t* in,
                 std::uint8_t* out) {
  std::uint8_t iv[16] = {};
  aes.cbc_encrypt(iv, in, 16, out);
}

void decrypt_one(const Aes256& aes, const std::uint8_t* in,
                 std::uint8_t* out) {
  std::uint8_t iv[16] = {};
  aes.cbc_decrypt(iv, in, 16, out);
}

TEST(Aes256, Fips197AppendixC3KnownAnswer) {
  // FIPS-197 Appendix C.3: AES-256 example vector.
  const auto key = from_hex(
      "000102030405060708090a0b0c0d0e0f"
      "101112131415161718191a1b1c1d1e1f");
  const auto plain = from_hex("00112233445566778899aabbccddeeff");
  const auto expected = from_hex("8ea2b7ca516745bfeafc49904b496089");

  Aes256 aes(key.data());
  std::uint8_t cipher[16];
  encrypt_one(aes, plain.data(), cipher);
  EXPECT_EQ(std::memcmp(cipher, expected.data(), 16), 0);

  std::uint8_t back[16];
  decrypt_one(aes, cipher, back);
  EXPECT_EQ(std::memcmp(back, plain.data(), 16), 0);
}

TEST(Aes256, Sp80038ACbcBlockCipherVectors) {
  // NIST SP 800-38A F.1.5/F.1.6 use ECB; the underlying block transforms
  // appear in the F.2.5 CBC vectors' first block (P1 XOR IV).
  const auto key = from_hex(
      "603deb1015ca71be2b73aef0857d7781"
      "1f352c073b6108d72d9810a30914dff4");
  // ECB vectors for the same key (F.1.5):
  const auto p1 = from_hex("6bc1bee22e409f96e93d7e117393172a");
  const auto c1 = from_hex("f3eed1bdb5d2a03c064b5a7e3db181f8");
  Aes256 aes(key.data());
  std::uint8_t out[16];
  encrypt_one(aes, p1.data(), out);
  EXPECT_EQ(std::memcmp(out, c1.data(), 16), 0);
}

TEST(Aes256, EncryptDecryptRoundTripRandomBlocks) {
  std::mt19937 rng(7);
  std::uint8_t key[32];
  for (auto& b : key) b = static_cast<std::uint8_t>(rng());
  Aes256 aes(key);
  for (int i = 0; i < 256; ++i) {
    std::uint8_t block[16];
    for (auto& b : block) b = static_cast<std::uint8_t>(rng());
    std::uint8_t cipher[16];
    std::uint8_t back[16];
    encrypt_one(aes, block, cipher);
    decrypt_one(aes, cipher, back);
    ASSERT_EQ(std::memcmp(back, block, 16), 0) << "iteration " << i;
  }
}

TEST(Aes256, InPlaceEncryptionWorks) {
  const auto key = from_hex(
      "000102030405060708090a0b0c0d0e0f"
      "101112131415161718191a1b1c1d1e1f");
  Aes256 aes(key.data());
  auto block = from_hex("00112233445566778899aabbccddeeff");
  const auto expected = from_hex("8ea2b7ca516745bfeafc49904b496089");
  encrypt_one(aes, block.data(), block.data());  // out aliases in
  EXPECT_EQ(block, expected);
}

TEST(Aes256, DifferentKeysProduceDifferentCiphertext) {
  std::uint8_t key_a[32] = {};
  std::uint8_t key_b[32] = {};
  key_b[31] = 1;  // single-bit key difference
  const std::uint8_t plain[16] = {};
  std::uint8_t ca[16];
  std::uint8_t cb[16];
  encrypt_one(Aes256(key_a), plain, ca);
  encrypt_one(Aes256(key_b), plain, cb);
  EXPECT_NE(std::memcmp(ca, cb, 16), 0);
}

TEST(Aes256, HardwareAndSoftwarePathsAgree) {
  // When AES-NI is available the CBC calls run on it; one block through
  // them must match the portable transforms byte for byte.
  std::mt19937 rng(99);
  std::uint8_t key[32];
  for (auto& b : key) b = static_cast<std::uint8_t>(rng());
  Aes256 aes(key);
  for (int i = 0; i < 64; ++i) {
    std::uint8_t block[16];
    for (auto& b : block) b = static_cast<std::uint8_t>(rng());
    std::uint8_t hw[16];
    std::uint8_t sw[16];
    encrypt_one(aes, block, hw);
    aes.encrypt_block_sw(block, sw);
    ASSERT_EQ(std::memcmp(hw, sw, 16), 0) << "encrypt divergence at " << i;
    decrypt_one(aes, hw, block);
    aes.decrypt_block_sw(sw, block);  // reuse buffers; compare below
    std::uint8_t hw_d[16];
    std::uint8_t sw_d[16];
    decrypt_one(aes, hw, hw_d);
    aes.decrypt_block_sw(hw, sw_d);
    ASSERT_EQ(std::memcmp(hw_d, sw_d, 16), 0) << "decrypt divergence at " << i;
  }
}

TEST(Aes256, SoftwarePathPassesFips197Kat) {
  const auto key = from_hex(
      "000102030405060708090a0b0c0d0e0f"
      "101112131415161718191a1b1c1d1e1f");
  const auto plain = from_hex("00112233445566778899aabbccddeeff");
  const auto expected = from_hex("8ea2b7ca516745bfeafc49904b496089");
  Aes256 aes(key.data());
  std::uint8_t cipher[16];
  aes.encrypt_block_sw(plain.data(), cipher);
  EXPECT_EQ(std::memcmp(cipher, expected.data(), 16), 0);
  std::uint8_t back[16];
  aes.decrypt_block_sw(cipher, back);
  EXPECT_EQ(std::memcmp(back, plain.data(), 16), 0);
}

TEST(Aes256, AvalancheOnPlaintextBit) {
  std::uint8_t key[32] = {0x42};
  std::uint8_t p0[16] = {};
  std::uint8_t p1[16] = {};
  p1[0] = 0x01;
  std::uint8_t c0[16];
  std::uint8_t c1[16];
  Aes256 aes(key);
  encrypt_one(aes, p0, c0);
  encrypt_one(aes, p1, c1);
  int differing_bits = 0;
  for (int i = 0; i < 16; ++i) {
    differing_bits += __builtin_popcount(c0[i] ^ c1[i]);
  }
  // A healthy block cipher flips roughly half of the 128 bits.
  EXPECT_GT(differing_bits, 30);
  EXPECT_LT(differing_bits, 98);
}

// --- CBC kernels -----------------------------------------------------------
// Aes256::cbc_encrypt/cbc_decrypt (AES-NI kernels where the CPU has them)
// against a block-by-block CBC built on the portable block transforms.

std::vector<std::uint8_t> seeded_bytes(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

std::vector<std::uint8_t> reference_cbc_encrypt(
    const Aes256& aes, const std::vector<std::uint8_t>& iv,
    const std::vector<std::uint8_t>& plain) {
  std::vector<std::uint8_t> out(plain.size());
  std::uint8_t chain[16];
  std::memcpy(chain, iv.data(), 16);
  for (std::size_t off = 0; off < plain.size(); off += 16) {
    std::uint8_t x[16];
    for (int i = 0; i < 16; ++i) {
      x[i] = static_cast<std::uint8_t>(plain[off + i] ^ chain[i]);
    }
    aes.encrypt_block_sw(x, chain);
    std::memcpy(out.data() + off, chain, 16);
  }
  return out;
}

std::vector<std::uint8_t> reference_cbc_decrypt(
    const Aes256& aes, const std::vector<std::uint8_t>& iv,
    const std::vector<std::uint8_t>& cipher) {
  std::vector<std::uint8_t> out(cipher.size());
  const std::uint8_t* chain = iv.data();
  for (std::size_t off = 0; off < cipher.size(); off += 16) {
    std::uint8_t x[16];
    aes.decrypt_block_sw(cipher.data() + off, x);
    for (int i = 0; i < 16; ++i) {
      out[off + i] = static_cast<std::uint8_t>(x[i] ^ chain[i]);
    }
    chain = cipher.data() + off;
  }
  return out;
}

// Both CBC paths: the dispatching calls (the AES-NI kernels on AES-NI
// hosts) and the portable branch they fall back to without AES-NI.
using CbcFn = void (Aes256::*)(std::uint8_t*, const std::uint8_t*,
                               std::size_t, std::uint8_t*) const noexcept;
struct CbcPath {
  const char* name;
  CbcFn enc;
  CbcFn dec;
};
constexpr CbcPath kCbcPaths[] = {
    {"dispatch", &Aes256::cbc_encrypt, &Aes256::cbc_decrypt},
    {"portable", &Aes256::cbc_encrypt_sw, &Aes256::cbc_decrypt_sw},
};

class AesCbcKernel : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AesCbcKernel, MatchesBlockByBlockReference) {
  const std::size_t n = GetParam() * 16;
  const auto key = seeded_bytes(32, static_cast<unsigned>(n) + 1);
  const auto iv = seeded_bytes(16, static_cast<unsigned>(n) + 2);
  const auto plain = seeded_bytes(n, static_cast<unsigned>(n) + 3);
  const Aes256 aes(key.data());
  const auto expected = reference_cbc_encrypt(aes, iv, plain);
  ASSERT_EQ(reference_cbc_decrypt(aes, iv, expected), plain);

  for (const CbcPath& path : kCbcPaths) {
    SCOPED_TRACE(path.name);
    std::vector<std::uint8_t> cipher(n);
    std::uint8_t chain[16];
    std::memcpy(chain, iv.data(), 16);
    (aes.*path.enc)(chain, plain.data(), n, cipher.data());
    EXPECT_EQ(cipher, expected);
    // The chaining value is left as the last ciphertext block.
    EXPECT_EQ(std::memcmp(chain, expected.data() + n - 16, 16), 0);

    std::vector<std::uint8_t> back(n);
    std::memcpy(chain, iv.data(), 16);
    (aes.*path.dec)(chain, cipher.data(), n, back.data());
    EXPECT_EQ(back, plain);
    EXPECT_EQ(std::memcmp(chain, expected.data() + n - 16, 16), 0);
  }
}

// Every length from 1 to 17 blocks covers the four-block decrypt groups
// with every tail length; 2048 blocks is one 32 KB sector.
INSTANTIATE_TEST_SUITE_P(Blocks, AesCbcKernel,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u,
                                           9u, 10u, 11u, 12u, 13u, 14u, 15u,
                                           16u, 17u, 2048u));

TEST(AesCbc, RandomChunksChainLikeOneCall) {
  const std::size_t n = 32 * 1024;
  const auto key = seeded_bytes(32, 11);
  const auto iv = seeded_bytes(16, 12);
  const auto plain = seeded_bytes(n, 13);
  const Aes256 aes(key.data());
  const auto expected = reference_cbc_encrypt(aes, iv, plain);

  for (const CbcPath& path : kCbcPaths) {
    SCOPED_TRACE(path.name);
    std::mt19937 rng(14);
    std::vector<std::uint8_t> cipher(n);
    std::vector<std::uint8_t> back(n);
    std::uint8_t enc_chain[16];
    std::uint8_t dec_chain[16];
    std::memcpy(enc_chain, iv.data(), 16);
    std::memcpy(dec_chain, iv.data(), 16);
    std::size_t off = 0;
    while (off < n) {
      // 0..9 blocks per chunk: empty chunks and group-straddling ones too.
      const std::size_t len = std::min<std::size_t>(rng() % 10 * 16, n - off);
      (aes.*path.enc)(enc_chain, plain.data() + off, len, cipher.data() + off);
      (aes.*path.dec)(dec_chain, cipher.data() + off, len, back.data() + off);
      off += len;
    }
    EXPECT_EQ(cipher, expected);
    EXPECT_EQ(back, plain);
  }
}

TEST(AesCbc, InPlaceMatchesOutOfPlace) {
  const std::size_t n = 37 * 16;
  const auto key = seeded_bytes(32, 21);
  const auto iv = seeded_bytes(16, 22);
  const auto plain = seeded_bytes(n, 23);
  const Aes256 aes(key.data());
  const auto expected = reference_cbc_encrypt(aes, iv, plain);

  for (const CbcPath& path : kCbcPaths) {
    SCOPED_TRACE(path.name);
    auto buf = plain;
    std::uint8_t chain[16];
    std::memcpy(chain, iv.data(), 16);
    (aes.*path.enc)(chain, buf.data(), n, buf.data());
    EXPECT_EQ(buf, expected);
    std::memcpy(chain, iv.data(), 16);
    (aes.*path.dec)(chain, buf.data(), n, buf.data());
    EXPECT_EQ(buf, plain);
  }
}

TEST(AesCbc, UnalignedBuffers) {
  // Input and output one byte off 16-byte alignment: the kernels use
  // unaligned loads and stores for data.
  const std::size_t n = 21 * 16;
  const auto key = seeded_bytes(32, 31);
  const auto iv = seeded_bytes(16, 32);
  const auto plain = seeded_bytes(n, 33);
  const Aes256 aes(key.data());
  const auto expected = reference_cbc_encrypt(aes, iv, plain);

  for (const CbcPath& path : kCbcPaths) {
    SCOPED_TRACE(path.name);
    alignas(16) std::uint8_t in[21 * 16 + 1];
    alignas(16) std::uint8_t out[21 * 16 + 1];
    std::memcpy(in + 1, plain.data(), n);
    std::uint8_t chain[16];
    std::memcpy(chain, iv.data(), 16);
    (aes.*path.enc)(chain, in + 1, n, out + 1);
    EXPECT_EQ(std::vector<std::uint8_t>(out + 1, out + 1 + n), expected);

    std::memcpy(chain, iv.data(), 16);
    (aes.*path.dec)(chain, out + 1, n, in + 1);
    EXPECT_EQ(std::vector<std::uint8_t>(in + 1, in + 1 + n), plain);
  }
}

}  // namespace
}  // namespace zc::app
