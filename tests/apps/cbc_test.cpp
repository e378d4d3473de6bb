#include "apps/crypto/cbc.hpp"

#include <gtest/gtest.h>

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

struct Sp80038AF25 {
  // NIST SP 800-38A F.2.5: CBC-AES256 encryption.
  std::vector<std::uint8_t> key = from_hex(
      "603deb1015ca71be2b73aef0857d7781"
      "1f352c073b6108d72d9810a30914dff4");
  std::vector<std::uint8_t> iv = from_hex("000102030405060708090a0b0c0d0e0f");
  std::vector<std::uint8_t> plain = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  std::vector<std::uint8_t> cipher = from_hex(
      "f58c4c04d6e5f1ba779eabfb5f7bfbd6"
      "9cfc4e967edb808d679f777bc6702c7d"
      "39f23369a9d9bacfa530e26304231461"
      "b2eb05e2c39be9fcda6c19078c6a9d1b");
};

TEST(Cbc, NistSp80038AEncryptVector) {
  Sp80038AF25 v;
  CbcEncryptor enc(v.key.data(), v.iv.data());
  std::vector<std::uint8_t> out(v.plain.size());
  enc.update(v.plain.data(), v.plain.size(), out.data());
  EXPECT_EQ(out, v.cipher);
}

TEST(Cbc, NistSp80038ADecryptVector) {
  Sp80038AF25 v;
  CbcDecryptor dec(v.key.data(), v.iv.data());
  std::vector<std::uint8_t> out(v.cipher.size());
  dec.update(v.cipher.data(), v.cipher.size(), out.data());
  EXPECT_EQ(out, v.plain);
}

TEST(Cbc, NistSp80038ADecryptVectorInPlace) {
  // F.2.6 through a single update with out == in.
  Sp80038AF25 v;
  CbcDecryptor dec(v.key.data(), v.iv.data());
  auto buf = v.cipher;
  dec.update(buf.data(), buf.size(), buf.data());
  EXPECT_EQ(buf, v.plain);
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<std::uint8_t> seeded_bytes(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(Cbc, SeededSectorCiphertextDigestIsPinned) {
  // One seeded 32 KB sector.  The digest was taken from the original
  // block-at-a-time CBC implementation, so a cipher that drifts yet stays
  // self-consistent (which a read-back check cannot see) fails here.
  const auto key = seeded_bytes(32, 1);
  const auto iv = seeded_bytes(16, 2);
  const auto plain = seeded_bytes(32 * 1024, 3);
  CbcEncryptor enc(key.data(), iv.data());
  std::vector<std::uint8_t> cipher(plain.size());
  enc.update(plain.data(), plain.size(), cipher.data());
  EXPECT_EQ(fnv1a(cipher), 0xc6dcee4a3115e6dbULL);

  CbcDecryptor dec(key.data(), iv.data());
  dec.update(cipher.data(), cipher.size(), cipher.data());
  EXPECT_EQ(cipher, plain);
}

TEST(Cbc, ChunkedUpdatesMatchOneShot) {
  Sp80038AF25 v;
  // Process 16 bytes at a time: the chained IV must carry across calls.
  CbcEncryptor enc(v.key.data(), v.iv.data());
  std::vector<std::uint8_t> out(v.plain.size());
  for (std::size_t off = 0; off < v.plain.size(); off += 16) {
    enc.update(v.plain.data() + off, 16, out.data() + off);
  }
  EXPECT_EQ(out, v.cipher);
}

TEST(Cbc, FinalPadsPkcs7) {
  Sp80038AF25 v;
  CbcEncryptor enc(v.key.data(), v.iv.data());
  std::uint8_t out[16];
  const std::uint8_t tail[5] = {'h', 'e', 'l', 'l', 'o'};
  enc.final(tail, 5, out);

  // Decrypting must recover "hello" + 11 bytes of 0x0B.
  CbcDecryptor dec(v.key.data(), v.iv.data());
  std::uint8_t plain[16];
  dec.update(out, 16, plain);
  EXPECT_EQ(std::memcmp(plain, tail, 5), 0);
  for (int i = 5; i < 16; ++i) EXPECT_EQ(plain[i], 11);
  EXPECT_EQ(CbcDecryptor::unpad(plain), 5);
}

TEST(Cbc, EmptyFinalIsFullPaddingBlock) {
  Sp80038AF25 v;
  CbcEncryptor enc(v.key.data(), v.iv.data());
  std::uint8_t out[16];
  enc.final(nullptr, 0, out);
  CbcDecryptor dec(v.key.data(), v.iv.data());
  std::uint8_t plain[16];
  dec.update(out, 16, plain);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(plain[i], 16);
  EXPECT_EQ(CbcDecryptor::unpad(plain), 0);
}

TEST(Cbc, UnpadRejectsMalformedPadding) {
  std::uint8_t block[16] = {};
  block[15] = 0;  // pad length 0 is invalid
  EXPECT_EQ(CbcDecryptor::unpad(block), -1);
  block[15] = 17;  // > block size
  EXPECT_EQ(CbcDecryptor::unpad(block), -1);
  block[15] = 3;
  block[14] = 3;
  block[13] = 4;  // inconsistent padding bytes
  EXPECT_EQ(CbcDecryptor::unpad(block), -1);
}

class CbcRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CbcRoundTrip, OneShotHelpersForEveryLengthClass) {
  const std::size_t n = GetParam();
  std::mt19937 rng(static_cast<unsigned>(n) + 1);
  std::uint8_t key[32];
  std::uint8_t iv[16];
  for (auto& b : key) b = static_cast<std::uint8_t>(rng());
  for (auto& b : iv) b = static_cast<std::uint8_t>(rng());
  std::vector<std::uint8_t> data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());

  const auto cipher = cbc_encrypt(key, iv, data.data(), data.size());
  // Ciphertext is padded to the next block boundary.
  EXPECT_EQ(cipher.size(), (n / 16 + 1) * 16);
  const auto back = cbc_decrypt(key, iv, cipher.data(), cipher.size());
  EXPECT_EQ(back, data);
}

INSTANTIATE_TEST_SUITE_P(Lengths, CbcRoundTrip,
                         ::testing::Values(0u, 1u, 15u, 16u, 17u, 31u, 32u,
                                           33u, 255u, 256u, 1000u, 4096u));

TEST(Cbc, DecryptRejectsNonBlockLengths) {
  std::uint8_t key[32] = {};
  std::uint8_t iv[16] = {};
  std::uint8_t junk[10] = {};
  EXPECT_TRUE(cbc_decrypt(key, iv, junk, sizeof(junk)).empty());
  EXPECT_TRUE(cbc_decrypt(key, iv, junk, 0).empty());
}

TEST(Cbc, WrongKeyFailsPaddingWithHighProbability) {
  std::uint8_t key[32] = {1};
  std::uint8_t wrong[32] = {2};
  std::uint8_t iv[16] = {};
  std::vector<std::uint8_t> data(64, 0xAB);
  const auto cipher = cbc_encrypt(key, iv, data.data(), data.size());
  const auto back = cbc_decrypt(wrong, iv, cipher.data(), cipher.size());
  // Either padding check fails (empty) or the content differs.
  if (!back.empty()) {
    EXPECT_NE(back, data);
  }
}

TEST(Cbc, IdenticalPlaintextBlocksEncryptDifferently) {
  std::uint8_t key[32] = {9};
  std::uint8_t iv[16] = {3};
  std::vector<std::uint8_t> data(32, 0x77);  // two identical blocks
  const auto cipher = cbc_encrypt(key, iv, data.data(), data.size());
  EXPECT_NE(std::memcmp(cipher.data(), cipher.data() + 16, 16), 0);
}

}  // namespace
}  // namespace zc::app
