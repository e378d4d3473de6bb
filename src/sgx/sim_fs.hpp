// Simulated untrusted I/O substrate.
//
// The reproduction host routes syscalls through a sandboxed kernel where a
// one-word read costs ~8 µs — 40x the ~250 cycles the paper quotes for a
// regular syscall on its testbed (§I).  Running the macro benchmarks
// against that kernel would invert the paper's central cost ratio
// (T_es >> syscall).  This in-memory filesystem and device layer restores
// the testbed economics: each operation performs the real data movement
// plus a calibrated `host_syscall_cycles` burn (default 250 cycles).
//
// Functional tests use the real OS; the figure benches use this substrate
// (see EnclaveLibc's IoMode).  Everything here is "untrusted world" code:
// it runs on whatever thread executes the ocall handler.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace zc {

class SimFs {
 public:
  /// Process-wide instance (one "untrusted world" per process).
  static SimFs& instance();

  /// Cycles burned per operation, modelling the host syscall cost
  /// (paper: "regular system calls ... 250 cycles").
  void set_syscall_cycles(std::uint64_t cycles) noexcept;
  std::uint64_t syscall_cycles() const noexcept;

  /// Failure injection: the next `count` data operations (fread/fwrite/
  /// read/write) fail — short read/0 items written/-1 — as a flaky host
  /// would. Tests use this to exercise application error paths.
  void fail_next_ops(std::uint64_t count) noexcept;
  std::uint64_t pending_failures() const noexcept;

  // --- stdio-style API (handles are opaque non-zero ids) ------------------

  /// Supports modes rb / wb / ab / r+b / w+b (binary-only, like the
  /// benchmarks). Returns 0 on failure (e.g. rb on a missing path).
  std::uint64_t fopen(const std::string& path, const std::string& mode);
  int fclose(std::uint64_t handle);
  std::size_t fread(void* dst, std::size_t n, std::uint64_t handle);
  std::size_t fwrite(const void* src, std::size_t n, std::uint64_t handle);
  int fseeko(std::uint64_t handle, std::int64_t offset, int whence);
  std::int64_t ftello(std::uint64_t handle);
  int fflush(std::uint64_t handle);

  // --- fd-style API (recognises /dev/zero and /dev/null) ------------------

  int open(const std::string& path, int flags);
  int close(int fd);
  std::int64_t read(int fd, void* buf, std::size_t n);
  std::int64_t write(int fd, const void* buf, std::size_t n);

  // --- maintenance ---------------------------------------------------------

  bool exists(const std::string& path) const;
  std::size_t file_size(const std::string& path) const;
  void remove(const std::string& path);
  /// Drops all files and open handles (benchmark teardown).
  void clear();

 private:
  struct File {
    std::vector<std::uint8_t> data;
    std::mutex mu;  // per-file: concurrent streams on distinct files scale
  };
  enum class DevKind { kFile, kZero, kNull };
  struct Stream {
    std::shared_ptr<File> file;
    std::size_t pos = 0;
    bool readable = false;
    bool writable = false;
    bool append = false;
    DevKind dev = DevKind::kFile;
  };

  SimFs() = default;
  void charge() const noexcept;
  bool take_failure() noexcept;
  std::shared_ptr<Stream> find_stream(std::uint64_t handle) const;

  mutable std::mutex mu_;  // registry only (paths + handle tables)
  std::unordered_map<std::string, std::shared_ptr<File>> files_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Stream>> streams_;
  std::unordered_map<int, std::shared_ptr<Stream>> fds_;
  std::uint64_t next_handle_ = 1;
  int next_fd_ = 1'000;
  std::atomic<std::uint64_t> syscall_cycles_{250};  ///< read lock-free
  std::atomic<std::uint64_t> failures_left_{0};
};

}  // namespace zc
