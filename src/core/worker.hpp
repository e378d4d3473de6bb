// ZC-Switchless worker thread and its shared buffer (paper §IV-B).
//
// Each worker owns a `buffer` with the four fields of the paper: a
// preallocated untrusted memory pool for requests, the most recent
// switchless request, a status word, and a scheduler-communication word.
// The status word implements the state machine of Fig. 6:
//
//        +-> RESERVED -> PROCESSING -> WAITING -+
//   UNUSED <------------------------------------+
//        +-> PAUSED (scheduler)   +-> EXIT (termination)
//
// Callers drive UNUSED->RESERVED->PROCESSING and WAITING->UNUSED; the worker
// drives PROCESSING->WAITING; the scheduler drives UNUSED<->PAUSED and
// ->EXIT.  Synchronisation is lock-free on the hot path (atomic CAS /
// release-acquire), with a condition variable only for PAUSED sleep.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "common/completion_gate.hpp"
#include "common/pool.hpp"
#include "core/zc_config.hpp"
#include "sgx/enclave.hpp"
#include "sgx/marshal.hpp"

namespace zc {

enum class WorkerState : std::uint32_t {
  kUnused = 0,   ///< idle, reservable by callers
  kReserved,     ///< a caller is marshalling its request
  kProcessing,   ///< the worker executes the request
  kWaiting,      ///< results ready, waiting for the caller to collect
  kPaused,       ///< deactivated by the scheduler (sleeping, no CPU)
  kExit,         ///< terminated
};

enum class SchedCmd : std::uint32_t {
  kRun = 0,  ///< serve calls
  kPause,    ///< park as soon as not reserved
  kExit,     ///< clean up and terminate
};

const char* to_string(WorkerState s) noexcept;

class ZcWorker {
 public:
  ZcWorker(Enclave& enclave, const ZcConfig& cfg, BackendStats& stats,
           unsigned index);
  ~ZcWorker();

  ZcWorker(const ZcWorker&) = delete;
  ZcWorker& operator=(const ZcWorker&) = delete;

  /// Spawns the worker thread (state stays UNUSED until commanded).
  void start();

  /// Asks the thread to exit and joins it.
  void shutdown();

  // --- caller side (enclave threads) --------------------------------------

  /// Attempts UNUSED -> RESERVED. Wait-free; a worker seen busy is refused
  /// without writing its status line.
  bool try_reserve() noexcept;

  /// Allocates frame memory: the buffer's inline request area when the
  /// frame fits it (InlineFrame::fits), else the worker's request pool.
  /// When the pool is full it is freed and re-allocated via a (regular)
  /// ocall — the caller pays one enclave transition — then allocation is
  /// retried.  Returns nullptr if `bytes` exceed the pool outright.
  void* alloc_frame(std::size_t bytes);

  /// Publishes the marshalled request and moves RESERVED -> PROCESSING.
  void submit(void* frame) noexcept;

  /// Waits until the worker reports WAITING: spins for the configured
  /// budget, then yields or sleeps per ZcConfig::wait (CompletionGate).
  void wait_done() noexcept;

  /// Returns the buffer to UNUSED after unmarshalling (WAITING -> UNUSED).
  void release() noexcept;

  /// Abandons a reservation without submitting (RESERVED -> UNUSED).
  void cancel_reservation() noexcept;

  // --- scheduler side ------------------------------------------------------

  /// Posts a scheduler command and wakes the worker if parked.
  void command(SchedCmd cmd) noexcept;

  WorkerState state() const noexcept {
    return status_.load(std::memory_order_acquire);
  }
  SchedCmd current_command() const noexcept {
    return cmd_.load(std::memory_order_acquire);
  }
  unsigned index() const noexcept { return index_; }

  /// Calls served by this worker (lifetime).
  std::uint64_t calls_served() const noexcept {
    return served_.load(std::memory_order_relaxed);
  }

 private:
  void main();

  Enclave& enclave_;
  const ZcConfig& cfg_;
  BackendStats& stats_;
  unsigned index_;

  // The paper's worker buffer (§IV-B): status + scheduler word + request +
  // preallocated pool.  The first three and the inline request area form
  // the hand-off lines, the ones the idle worker spins on and the caller
  // marshals a small frame into; everything written per call by only one
  // side (the caller's pool cursor, the worker's served count) sits on a
  // line of its own so it never invalidates the hand-off mid-poll.
  alignas(64) std::atomic<WorkerState> status_{WorkerState::kUnused};
  std::atomic<SchedCmd> cmd_{SchedCmd::kRun};
  void* request_ = nullptr;  ///< most recent request; ordered by status_
  InlineFrame inline_;       ///< small frames; ordered by status_
  alignas(64) BumpPool pool_;
  CompletionGate done_gate_;  ///< the caller's hand-off wait on status_

  alignas(64) std::atomic<std::uint64_t> served_{0};
  alignas(64) std::mutex mu_;
  std::condition_variable cv_;
  std::jthread thread_;
};

}  // namespace zc
