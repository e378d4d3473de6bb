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
// flush window, or eagerly, as soon as nothing suggests that another
// publisher is coming.
//
// The eager flush is Nagle's algorithm (RFC 896) learned per worker: a
// worker starts out waiting, and a window flush that served exactly one
// call — direct evidence that waiting bought nothing — switches it to
// eager mode.  An eager worker flushes the moment its sweep sees pending
// calls and no producer mid-claim (no kClaimed slot; in ring mode the
// published run covers every claimed cell), so a lone synchronous caller
// no longer pays the window on every call.  A producer caught mid-claim
// still holds the flush until it publishes or the window expires, which
// is what keeps concurrent publishes batching.  The window therefore
// bounds only the wait for co-publishers that are expected.
//
// Two partial-flush policies pick that window:
//  - timer (`flush_us=T`): a fixed window, the original design;
//  - feedback (`flush=feedback`): a controller thread re-decides the
//    window every quantum from the observed mean batch fill — the
//    feedback scheduler's grow/shrink-by-quantum idea applied to the
//    flush grace instead of the worker count (rule: adapt_flush_window in
//    core/scheduler.hpp).  Mostly-empty timer flushes widen the window
//    (more amortisation under sparse load); buffers that fill on their
//    own narrow it (stragglers right after a burst flush promptly).  The
//    window is clamped to [flush/8 (>= 1us), flush*8], so no caller is
//    ever stranded longer than 8x the configured base window.
//
// Slot life cycle (per slot, lock-free on the hot path):
//
//   EMPTY -> CLAIMED -> PENDING -> DONE -> EMPTY
//     caller: EMPTY->CLAIMED (CAS), CLAIMED->PENDING (publish),
//             DONE->EMPTY (collect)
//     worker: PENDING->DONE (execute, during a flush)
//
// Like plain ZC, a caller that finds no free slot on any active worker
// falls back to a regular ocall immediately — no busy waiting for capacity.
// Workers can be paused/resumed (set_active_workers); a pausing worker
// drains its published slots before parking, and a caller that publishes
// into a parked worker's buffer wakes it, so no call is ever lost.
//
// Two hot-path variants are spec-selectable so the legacy path stays
// A/B-able (`ring=`/`coalesce=` in the backend spec):
//
//  - ring=on: each worker's slot buffer becomes a lock-free MPSC ring
//    (MpscSlotRing).  A claim is one CAS on the ring tail instead of a
//    CAS-scan over the whole buffer, and the worker reads the oldest
//    pending request in O(1) (ring front) instead of sweeping every slot
//    per loop.  The slot life cycle grows one state — a worker (or a
//    stop-racing caller serving its own slot) moves PENDING -> EXECUTING
//    by CAS before dispatching, which arbitrates who runs the call.
//  - coalesce=on (requires a sleeping wait= policy): callers sleep on
//    their worker's shared gate via await_coalesced(), and a flush issues
//    one notify_batch() — one futex wake / condvar broadcast per batch —
//    instead of one notify() per slot (BackendStats::wake_batches counts
//    the broadcasts; BM_GatePolicy priced the per-slot wake at ~2.2 µs).
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
#include "common/mpsc_ring.hpp"
#include "common/pool.hpp"
#include "sgx/enclave.hpp"

namespace zc {

enum class BatchFlushPolicy : std::uint8_t {
  kTimer,     ///< fixed window: flush_us, never adapted
  kFeedback,  ///< window re-decided every quantum from observed batch fill
};

const char* to_string(BatchFlushPolicy policy) noexcept;

struct ZcBatchedConfig {
  unsigned workers = 2;  ///< batch workers, each owning one buffer (> 0)
  unsigned batch = 8;    ///< slots per worker buffer; flush when full (> 0)
  /// Max age of the oldest published request before a partial flush: how
  /// long a worker waits while co-publishers are expected (an eager
  /// worker flushes at once when no producer is mid-claim).  The fixed
  /// window under kTimer; the initial window and the anchor of the
  /// [flush/8, flush*8] clamp under kFeedback.
  std::chrono::microseconds flush{100};
  BatchFlushPolicy flush_policy = BatchFlushPolicy::kTimer;
  /// Feedback controller period: how often the flush window is re-decided
  /// (kFeedback only; the paper's scheduler quantum default).
  std::chrono::microseconds quantum{10'000};
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
  /// Lock-free MPSC submit ring per worker instead of the slot-table
  /// CAS-scan (see the header comment); `batch` becomes the ring capacity
  /// (rounded up to a power of two).
  bool ring = false;
  /// One coalesced wake broadcast per flush instead of per-slot notifies.
  /// Only meaningful with a sleeping wait= policy (futex/condvar); the
  /// spec layer rejects other combinations.
  bool coalesce = false;
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

  /// The partial-flush window currently in force (fixed under the timer
  /// policy; live controller output under flush=feedback).
  std::uint64_t flush_window_ns() const noexcept {
    return flush_ns_.load(std::memory_order_relaxed);
  }

  /// Window re-decisions taken by the feedback controller so far (0 under
  /// the timer policy; counts quanta with traffic, not window changes).
  std::uint64_t flush_decisions() const noexcept {
    return flush_decisions_.load(std::memory_order_relaxed);
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
    kExecuting,  ///< ring mode only: dispatch in progress; the PENDING ->
                 ///< EXECUTING CAS arbitrates worker vs. stop-racing caller
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
    Worker(unsigned batch, std::size_t pool_bytes, bool use_ring);
    /// Table mode: the classic CAS-scanned slot buffer (empty under ring=).
    std::vector<std::unique_ptr<Slot>> slots;
    /// Ring mode: the lock-free submit ring (null under the table mode).
    std::unique_ptr<MpscSlotRing<Slot>> ring;
    /// coalesce=on: the shared gate all of this worker's callers sleep on.
    CompletionGate gate;
    std::atomic<WorkerCmd> cmd{WorkerCmd::kRun};
    std::atomic<bool> parked{false};
    std::mutex mu;
    std::condition_variable cv;
    std::jthread thread;
  };

  /// What one worker sweep saw of its buffer, from either plane.
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

  /// The flush decision both planes share (see the header comment).
  FlushCause flush_cause(const Sweep& sweep, WorkerCmd cmd,
                         std::uint64_t flush_ns, bool eager) const noexcept;

  static void wake(Worker& w);
  void worker_main(Worker& w);
  unsigned flush(Worker& w);
  void dispatch_slot(Slot& slot);
  void await_done(Worker& w, Slot& slot);
  bool try_invoke_ring(const CallDesc& desc, unsigned m);
  unsigned flush_ring(Worker& w);
  void flush_ring_stragglers(Worker& w);
  void controller_main(const std::stop_token& st);
  void execute_regular(const CallDesc& desc);
  CallPath fallback(const CallDesc& desc);

  Enclave& enclave_;
  ZcBatchedConfig cfg_;
  std::unique_ptr<SlabPool> slab_;  ///< frame slabs when pool=slab
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<unsigned> active_count_{0};
  /// Rotating claim start.  64-bit on purpose: the old 32-bit counter made
  /// the rotation index `(first + i) % m` jump at the 2^32 wraparound
  /// (where `first + i` overflowed mid-scan), skewing claim spreading; a
  /// 64-bit counter cannot wrap in any realistic run, and the force-wrap
  /// regression test pins the behaviour at the old boundary.
  std::atomic<std::uint64_t> ticket_{0};
  std::atomic<bool> running_{false};

  /// Live partial-flush window, read by every worker sweep.  Written only
  /// by the feedback controller (or fixed at cfg_.flush under kTimer).
  std::atomic<std::uint64_t> flush_ns_{0};
  std::atomic<std::uint64_t> flush_decisions_{0};
  std::mutex controller_mu_;
  std::condition_variable_any controller_cv_;
  std::jthread controller_;
};

std::unique_ptr<ZcBatchedBackend> make_zc_batched_backend(
    Enclave& enclave, ZcBatchedConfig cfg = {});

}  // namespace zc
