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

#include <array>
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
  /// Drops all files and handles, open or closed (benchmark teardown).
  /// No other SimFs call may be in flight.
  void clear();

 private:
  struct File {
    std::vector<std::uint8_t> data;
    std::mutex mu;  // per-file: concurrent streams on distinct files scale
  };
  enum class DevKind { kFile, kZero, kNull };
  struct Stream {
    std::shared_ptr<File> file;
    std::size_t pos = 0;  ///< guarded by file->mu
    bool readable = false;
    bool writable = false;
    bool append = false;
    DevKind dev = DevKind::kFile;
  };

  /// Handle -> Stream, looked up without a lock.  A lazily allocated
  /// two-level array of atomic Stream pointers indexed by the handle's
  /// distance from the first handle issued since the last clear():
  /// lookups are two acquire loads, and writes (insert/erase, under
  /// SimFs::mu_) touch only the entry's own line.  Handles are never
  /// reused.  Erasing nulls the entry but keeps the Stream until clear(),
  /// so an op that raced its close still reads live memory: streams are
  /// bounded by those opened since the last clear(), and chunks by the
  /// most handles issued between two clear()s.  It holds 2^24 handles
  /// between clear()s; past that, opens fail.
  class HandleTable {
   public:
    explicit HandleTable(std::uint64_t first) : next_(first), base_(first) {}
    ~HandleTable();
    HandleTable(const HandleTable&) = delete;
    HandleTable& operator=(const HandleTable&) = delete;

    /// The open stream behind `handle`, or nullptr (closed or unknown).
    Stream* find(std::uint64_t handle) const noexcept;
    /// Registers `stream` under the next handle; 0 once the table is full.
    std::uint64_t insert(std::unique_ptr<Stream> stream);
    /// Closes `handle`; false when it was not open.
    bool erase(std::uint64_t handle) noexcept;
    /// Forgets every handle and frees every stream, open or closed; the
    /// chunks stay for the next handles.  No op may be in flight.
    void clear() noexcept;

   private:
    static constexpr unsigned kChunkBits = 12;
    static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;
    static constexpr std::size_t kChunks = std::size_t{1} << 12;
    struct Chunk {
      std::array<std::atomic<Stream*>, kChunkSize> entries{};
    };
    std::atomic<Stream*>* entry(std::uint64_t handle) const noexcept;

    std::array<std::atomic<Chunk*>, kChunks> chunks_{};
    std::vector<std::unique_ptr<Stream>> owned_;  ///< open and closed
    std::uint64_t next_;  ///< the next handle to issue
    /// The first handle issued since the last clear(); entry 0.
    std::atomic<std::uint64_t> base_;
  };

  SimFs() = default;
  void charge() const noexcept;
  bool take_failure() noexcept;

  // Registry only: the path table, and opening and closing handles.  The
  // per-op handle lookups never take it, and the data ops serialise only
  // on the file they touch (File::mu).
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<File>> files_;
  HandleTable streams_{1};
  HandleTable fds_{1'000};
  std::atomic<std::uint64_t> syscall_cycles_{250};  ///< read lock-free
  std::atomic<std::uint64_t> failures_left_{0};
};

}  // namespace zc
