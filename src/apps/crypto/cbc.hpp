// AES-256-CBC mode with PKCS#7 padding (the algorithm the paper's OpenSSL
// benchmark uses: EVP_aes_256_cbc).  Streaming interface so the file
// pipeline can process chunk-by-chunk between fread/fwrite ocalls.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/crypto/aes.hpp"

namespace zc::app {

class CbcEncryptor {
 public:
  CbcEncryptor(const std::uint8_t key[Aes256::kKeySize],
               const std::uint8_t iv[Aes256::kBlockSize]) noexcept;

  /// Encrypts `n` bytes (must be a multiple of 16) from `in` to `out`
  /// (same size). Chunks chain across calls via the running IV.
  void update(const std::uint8_t* in, std::size_t n, std::uint8_t* out);

  /// Emits the final padded block for `n` trailing bytes (n < 16 allowed,
  /// including 0).  Always writes exactly 16 bytes (PKCS#7).
  void final(const std::uint8_t* in, std::size_t n,
             std::uint8_t out[Aes256::kBlockSize]);

 private:
  Aes256 aes_;
  std::uint8_t iv_[Aes256::kBlockSize];
};

class CbcDecryptor {
 public:
  CbcDecryptor(const std::uint8_t key[Aes256::kKeySize],
               const std::uint8_t iv[Aes256::kBlockSize]) noexcept;

  /// Decrypts `n` bytes (multiple of 16) from `in` to `out` (`out` may
  /// equal `in`). Chunks chain across calls via the running IV.
  void update(const std::uint8_t* in, std::size_t n, std::uint8_t* out);

  /// Strips PKCS#7 padding from the final decrypted block `block` (16
  /// bytes, already produced by update). Returns the payload length 0..15,
  /// or -1 if the padding is malformed.
  static int unpad(const std::uint8_t block[Aes256::kBlockSize]) noexcept;

 private:
  Aes256 aes_;
  std::uint8_t iv_[Aes256::kBlockSize];
};

/// One-shot helpers (used by tests and the quickstart example).
std::vector<std::uint8_t> cbc_encrypt(const std::uint8_t key[32],
                                      const std::uint8_t iv[16],
                                      const std::uint8_t* data,
                                      std::size_t n);
/// Returns empty vector on padding failure of non-empty input.
std::vector<std::uint8_t> cbc_decrypt(const std::uint8_t key[32],
                                      const std::uint8_t iv[16],
                                      const std::uint8_t* data,
                                      std::size_t n);

}  // namespace zc::app
