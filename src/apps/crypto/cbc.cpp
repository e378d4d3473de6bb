#include "apps/crypto/cbc.hpp"

#include <cassert>
#include <cstring>

namespace zc::app {

CbcEncryptor::CbcEncryptor(const std::uint8_t key[Aes256::kKeySize],
                           const std::uint8_t iv[Aes256::kBlockSize]) noexcept
    : aes_(key) {
  std::memcpy(iv_, iv, sizeof(iv_));
}

void CbcEncryptor::update(const std::uint8_t* in, std::size_t n,
                          std::uint8_t* out) {
  aes_.cbc_encrypt(iv_, in, n, out);
}

void CbcEncryptor::final(const std::uint8_t* in, std::size_t n,
                         std::uint8_t out[Aes256::kBlockSize]) {
  assert(n < Aes256::kBlockSize);
  std::uint8_t block[Aes256::kBlockSize];
  const auto pad =
      static_cast<std::uint8_t>(Aes256::kBlockSize - n);
  for (std::size_t i = 0; i < n; ++i) block[i] = in[i];
  for (std::size_t i = n; i < Aes256::kBlockSize; ++i) block[i] = pad;
  update(block, Aes256::kBlockSize, out);
}

CbcDecryptor::CbcDecryptor(const std::uint8_t key[Aes256::kKeySize],
                           const std::uint8_t iv[Aes256::kBlockSize]) noexcept
    : aes_(key) {
  std::memcpy(iv_, iv, sizeof(iv_));
}

void CbcDecryptor::update(const std::uint8_t* in, std::size_t n,
                          std::uint8_t* out) {
  aes_.cbc_decrypt(iv_, in, n, out);
}

int CbcDecryptor::unpad(const std::uint8_t block[Aes256::kBlockSize]) noexcept {
  const std::uint8_t pad = block[Aes256::kBlockSize - 1];
  if (pad == 0 || pad > Aes256::kBlockSize) return -1;
  for (std::size_t i = Aes256::kBlockSize - pad; i < Aes256::kBlockSize; ++i) {
    if (block[i] != pad) return -1;
  }
  return static_cast<int>(Aes256::kBlockSize - pad);
}

std::vector<std::uint8_t> cbc_encrypt(const std::uint8_t key[32],
                                      const std::uint8_t iv[16],
                                      const std::uint8_t* data,
                                      std::size_t n) {
  CbcEncryptor enc(key, iv);
  const std::size_t full = n / Aes256::kBlockSize * Aes256::kBlockSize;
  std::vector<std::uint8_t> out(full + Aes256::kBlockSize);
  enc.update(data, full, out.data());
  enc.final(data + full, n - full, out.data() + full);
  return out;
}

std::vector<std::uint8_t> cbc_decrypt(const std::uint8_t key[32],
                                      const std::uint8_t iv[16],
                                      const std::uint8_t* data,
                                      std::size_t n) {
  if (n == 0 || n % Aes256::kBlockSize != 0) return {};
  CbcDecryptor dec(key, iv);
  std::vector<std::uint8_t> out(n);
  dec.update(data, n, out.data());
  const int tail = CbcDecryptor::unpad(out.data() + n - Aes256::kBlockSize);
  if (tail < 0) return {};
  out.resize(n - Aes256::kBlockSize + static_cast<std::size_t>(tail));
  return out;
}

}  // namespace zc::app
