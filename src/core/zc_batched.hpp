// Batched ZC-Switchless call backend.
//
// Short ocalls are switchless's worst case in the paper: the per-call
// synchronisation (reserve, publish, wake, collect) costs as much as the
// work itself.  This backend amortises that cost by batching: each worker
// owns a buffer of `batch` request slots; callers claim a slot, marshal
// their request into it and publish, then spin for their own slot's result.
// The worker sweeps its buffer and executes *all* published requests in one
// pass — one wakeup, one sweep, K calls — flushing when the buffer fills
// (`batch=K`), when the oldest published request has waited out the
// flush window (`flush_us=T`), or eagerly, as soon as nothing suggests
// that another publisher is coming.
//
// The eager flush is Nagle's algorithm (RFC 896) learned per worker: a
// worker starts out waiting, and a window flush that served exactly one
// call — direct evidence that waiting bought nothing — switches it to
// eager mode.  An eager worker flushes the moment its sweep sees pending
// calls and no producer mid-claim (no kClaimed slot), so a lone
// synchronous caller no longer pays the window on every call.  A producer
// caught mid-claim still holds the flush until it publishes or the window
// expires, which is what keeps concurrent publishes batching.  The window
// therefore bounds only the wait for co-publishers that are expected.
//
// Slot life cycle (per slot, lock-free on the hot path):
//
//   EMPTY -> CLAIMED -> PENDING -> EXECUTING -> DONE -> EMPTY
//     caller: EMPTY->CLAIMED (CAS), CLAIMED->PENDING (publish),
//             DONE->EMPTY (collect)
//     worker: PENDING->EXECUTING (CAS), EXECUTING->DONE (during a flush)
//
// The PENDING->EXECUTING CAS decides who runs a call when a caller races
// stop(): a caller that publishes after the exiting worker's last sweep
// finds the backend stopped and serves its own slot, and the CAS makes
// sure the call runs exactly once either way.
//
// Like plain ZC, a caller that finds no free slot on any active worker
// falls back to a regular ocall immediately — no busy waiting for capacity.
// Workers can be paused/resumed (set_active_workers); a pausing worker
// drains its published slots before parking, and a caller that publishes
// into a parked worker's buffer wakes it, so no call is ever lost.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/completion_gate.hpp"
#include "common/cpu_meter.hpp"
#include "common/pool.hpp"
#include "sgx/enclave.hpp"

namespace zc {

struct ZcBatchedConfig {
  unsigned workers = 2;  ///< batch workers, each owning one buffer (> 0)
  unsigned batch = 8;    ///< slots per worker buffer; flush when full (> 0)
  /// Max age of the oldest published request before a partial flush: how
  /// long a worker waits while co-publishers are expected (an eager
  /// worker flushes at once when no producer is mid-claim).
  std::chrono::microseconds flush{100};
  /// Caller-side wait policy: spin (`pause`) for at most this budget, then
  /// yield between result polls.  0 = yield immediately (narrowest-host
  /// politeness); a large budget approximates hotcalls-style pure spinning.
  /// Every yield bumps BackendStats::caller_yields.
  std::chrono::microseconds spin{50};
  /// What a caller does after the spin budget (CompletionGate): the
  /// default keeps the yield loop; futex/condvar sleep on the slot's state
  /// word until the flushing worker notifies (caller_sleeps/caller_wakeups).
  GateWaitPolicy wait = GateWaitPolicy::kYield;
  /// Per-slot preallocated untrusted frame pool; oversized requests fall
  /// back to a regular ocall.
  std::size_t slot_pool_bytes = 64 * 1024;
  /// pool=slab: frames come from a shared size-classed SlabPool instead of
  /// the per-slot bump pools, so no request is ever "oversized".
  FramePoolKind pool = FramePoolKind::kBump;
  /// copy=single advertises the in-place payload path (see marshal.hpp).
  CopyMode copy = CopyMode::kDouble;
  CpuUsageMeter* meter = nullptr;
  CallDirection direction = CallDirection::kOcall;
};

class ZcBatchedBackend final : public CallBackend {
 public:
  ZcBatchedBackend(Enclave& enclave, ZcBatchedConfig cfg);
  ~ZcBatchedBackend() override;

  void start() override;
  void stop() override;
  CallPath invoke(const CallDesc& desc) override;
  /// Claims a slot on an active worker, publishes `desc` and waits for the
  /// flush that serves it; false without side effects when no slot is free
  /// (or the frame exceeds the slot pool).  The routing probe used by the
  /// sharded router's steal path; stats().in_flight is raised while the
  /// call occupies a slot.
  bool try_invoke_switchless(const CallDesc& desc) override;
  const char* name() const noexcept override {
    return cfg_.direction == CallDirection::kOcall ? "zc_batched"
                                                   : "zc_batched-ecall";
  }

  unsigned active_workers() const noexcept override {
    return active_count_.load(std::memory_order_acquire);
  }

  unsigned max_workers() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Pauses workers [m, max) and runs [0, m); callers only claim slots on
  /// active workers.  Pausing workers drain published requests first.
  void set_active_workers(unsigned m) override;

  /// Buffer flushes so far (== stats().batch_flushes); the mean batch size
  /// is switchless_calls / batch_flushes.
  std::uint64_t flushes() const noexcept {
    return stats_.batch_flushes.load();
  }

  const ZcBatchedConfig& config() const noexcept { return cfg_; }

  CopyMode copy_mode() const noexcept override { return cfg_.copy; }

  /// The shared frame slab when built with pool=slab (tests/diagnostics).
  SlabPool* slab() noexcept { return slab_.get(); }

  /// Test hook: plants the rotating-claim counter (wraparound regression
  /// tests start it just below the old 32-bit boundary).
  void set_claim_rotation_for_test(std::uint64_t v) noexcept {
    ticket_.store(v, std::memory_order_relaxed);
  }

 private:
  enum class SlotState : std::uint32_t {
    kEmpty = 0,  ///< free, claimable by callers
    kClaimed,    ///< a caller is marshalling into the slot
    kPending,    ///< published, awaiting the next flush
    kDone,       ///< executed, awaiting collection by the caller
    kExecuting,  ///< dispatch in progress; the PENDING -> EXECUTING CAS
                 ///< arbitrates worker vs. stop-racing caller
  };

  struct alignas(64) Slot {
    explicit Slot(std::size_t pool_bytes) : pool(pool_bytes) {}
    std::atomic<SlotState> state{SlotState::kEmpty};
    std::atomic<std::uint64_t> publish_ns{0};  ///< flush-timer anchor
    void* frame = nullptr;  ///< marshalled request; ordered by `state`
    BumpPool pool;
    CompletionGate gate;  ///< the publisher's wait for its slot's kDone
  };

  enum class WorkerCmd : std::uint32_t { kRun = 0, kPause, kExit };

  struct Worker {
    Worker(unsigned batch, std::size_t pool_bytes);
    std::vector<std::unique_ptr<Slot>> slots;  ///< CAS-claimed by callers
    std::atomic<WorkerCmd> cmd{WorkerCmd::kRun};
    std::atomic<bool> parked{false};
    std::mutex mu;
    std::condition_variable cv;
    std::jthread thread;
  };

  /// What one worker sweep saw of its buffer.
  struct Sweep {
    std::size_t pending = 0;      ///< published calls awaiting a flush
    bool claimed = false;         ///< a producer is mid-marshal
    std::uint64_t oldest_ns = 0;  ///< publish stamp of the oldest pending
  };

  enum class FlushCause : std::uint8_t {
    kNone,     ///< keep waiting
    kFull,     ///< `batch` calls pending
    kCommand,  ///< pause/exit: a leaving worker drains
    kEager,    ///< learned eager flush: nobody is mid-claim
    kWindow,   ///< the oldest pending call waited out the flush window
  };

  /// The flush decision (see the header comment).
  FlushCause flush_cause(const Sweep& sweep, WorkerCmd cmd,
                         bool eager) const noexcept;

  static void wake(Worker& w);
  void worker_main(Worker& w);
  unsigned flush(Worker& w);
  void dispatch_slot(Slot& slot);
  void await_done(Slot& slot);
  void execute_regular(const CallDesc& desc);
  CallPath fallback(const CallDesc& desc);

  Enclave& enclave_;
  ZcBatchedConfig cfg_;
  std::unique_ptr<SlabPool> slab_;  ///< frame slabs when pool=slab
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<unsigned> active_count_{0};
  /// Rotating claim start.  64-bit so the rotation index `(first + i) % m`
  /// never jumps at a wraparound mid-scan (a 32-bit counter would skew
  /// claim spreading at 2^32); the force-wrap regression test pins the
  /// behaviour at that boundary.  The one member every call writes, so it
  /// starts its own cache line: sharing one with cfg_, workers_ or slab_
  /// would make each claim invalidate what workers and the other caller
  /// read on every call.
  alignas(64) std::atomic<std::uint64_t> ticket_{0};
  std::atomic<bool> running_{false};
  /// The partial-flush window, cfg_.flush in wall nanoseconds.
  const std::uint64_t flush_ns_;
};

std::unique_ptr<ZcBatchedBackend> make_zc_batched_backend(
    Enclave& enclave, ZcBatchedConfig cfg = {});

}  // namespace zc
