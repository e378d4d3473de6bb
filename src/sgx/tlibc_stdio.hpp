// Trusted-side libc facade: the in-enclave API applications program
// against.  Every operation relays to the corresponding untrusted shim via
// an ocall through the enclave's installed backend, exactly like the
// tlibc-unsupported routines of §II ("unsupported routines not implemented
// by the tlibc must be relayed to the untrusted part via ocalls").
#pragma once

#include <cstdint>
#include <string>

#include "sgx/enclave.hpp"
#include "sgx/usyscalls.hpp"

namespace zc {

class TFile;

/// Per-enclave trusted libc instance.  Registers the standard ocalls on
/// construction; cheap to copy references around (apps take EnclaveLibc&).
class EnclaveLibc {
 public:
  /// Registers the standard ocall set into `enclave`'s table.  Create one
  /// per enclave, before threads start issuing calls.  `io` selects the
  /// untrusted world: the host OS or the SimFs benchmark substrate.
  explicit EnclaveLibc(Enclave& enclave, IoMode io = IoMode::kReal)
      : enclave_(&enclave),
        ids_(register_std_ocalls(enclave.ocalls(), io)),
        io_(io) {}

  IoMode io_mode() const noexcept { return io_; }

  Enclave& enclave() const noexcept { return *enclave_; }
  const StdOcallIds& ids() const noexcept { return ids_; }

  // POSIX fd API ----------------------------------------------------------

  /// open(2) via ocall. Returns the untrusted fd (or -1).
  int open(const char* path, int flags, unsigned mode = 0644);
  int close(int fd);
  /// read(2) into trusted buffer `buf` ([out] payload copy included).
  /// Returns -1 on error, or when the host reports more than `count`.
  std::int64_t read(int fd, void* buf, std::size_t count);
  /// write(2) from trusted buffer `buf` ([in] payload copy included).
  /// Returns -1 on error, or when the host reports more than `count`.
  std::int64_t write(int fd, const void* buf, std::size_t count);
  void usleep(std::uint64_t usec);

  // stdio API ---------------------------------------------------------------

  /// fopen via ocall; returned TFile is bound to this libc instance.
  TFile fopen(const char* path, const char* mode);

 private:
  friend class TFile;
  Enclave* enclave_;
  StdOcallIds ids_;
  IoMode io_ = IoMode::kReal;
};

/// Trusted handle to an untrusted FILE. Move-only RAII: closes on destroy.
class TFile {
 public:
  TFile() = default;
  TFile(TFile&& other) noexcept { *this = std::move(other); }
  TFile& operator=(TFile&& other) noexcept;
  ~TFile();

  TFile(const TFile&) = delete;
  TFile& operator=(const TFile&) = delete;

  /// True when the file was opened successfully.
  explicit operator bool() const noexcept { return handle_ != 0; }

  /// fread into trusted memory; returns bytes read (0 when the host
  /// reports more than `size`).
  std::size_t read(void* buf, std::size_t size);
  /// fwrite from trusted memory; returns bytes written (0 when the host
  /// reports more than `size`).
  std::size_t write(const void* buf, std::size_t size);
  /// fseeko; whence is SEEK_SET/SEEK_CUR/SEEK_END. Returns 0 on success.
  int seek(std::int64_t offset, int whence);
  /// ftello; returns -1 on error.
  std::int64_t tell();
  /// fflush; returns 0 on success.
  int flush();
  /// fclose; idempotent. Returns the fclose result (0 if already closed).
  int close();

  /// The opaque untrusted FILE handle, for callers that build their own
  /// CallDesc against the fread/fwrite ocalls (e.g. the single-copy data
  /// plane, which attaches an in-place producer/consumer instead of going
  /// through read()/write()'s trusted staging buffers).  0 when closed.
  std::uint64_t native_handle() const noexcept { return handle_; }

 private:
  friend class EnclaveLibc;
  TFile(EnclaveLibc* libc, std::uint64_t handle) noexcept
      : libc_(libc), handle_(handle) {}

  EnclaveLibc* libc_ = nullptr;
  std::uint64_t handle_ = 0;
};

}  // namespace zc
