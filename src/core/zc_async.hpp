// Asynchronous ZC-Switchless call backend: futures instead of spinning.
//
// Every other switchless backend in the registry makes the caller busy-wait
// for its worker (bounded spin + yield at best).  This backend splits the
// call path into `submit()` — claim a slot in a fixed completion table,
// marshal, publish, return a CallFuture — and `wait()`/`poll()` on that
// future, with workers signalling completion through a per-slot seq_cst
// state word plus a per-slot CompletionGate (condvar by default, futex
// with `wait=futex`), so a waiting caller sleeps instead of spinning.
// That opens the pipelined workload class (D in-flight calls per caller)
// that no synchronous backend can express, while the plain
// `CallBackend::call()` contract is preserved as submit()+wait(), so the
// backend slots into the registry, `install_backend_spec`, the
// `direction=ecall` plane and the equivalence suite unchanged.
//
// Completion-table slot life cycle:
//
//   FREE -> CLAIMED -> QUEUED -> EXECUTING -> DONE -> FREE
//     submitter: FREE->CLAIMED (CAS), CLAIMED->QUEUED (publish)
//     worker:    QUEUED->EXECUTING (CAS), EXECUTING->DONE (+ cv notify)
//     waiter:    DONE->FREE (collect: unmarshal, generation++)
//
// A CallFuture is {slot index, generation}: the generation counter is
// bumped every time a slot is released, so a stale handle (the slot has
// been reused) can never be confused with the live call occupying the same
// slot (ABA protection).  Dropping a future without waiting abandons the
// call: it still executes (side effects are preserved — submission is a
// promise to the handler), but nobody collects results and the slot is
// released by whoever finishes last (worker or abandoner).
//
// Backpressure: when the completion table is full (or no worker is
// active), submit() executes the call inline as a regular fallback and
// returns an already-completed future — no call is ever queued without a
// slot, lost, or spun for.
#pragma once

#include <atomic>
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

struct ZcAsyncConfig {
  unsigned workers = 2;  ///< completion workers (> 0)
  unsigned queue = 32;   ///< completion-table slots == max in-flight (> 0)
  /// Per-slot preallocated untrusted frame pool; oversized requests fall
  /// back to a regular call.
  std::size_t slot_pool_bytes = 64 * 1024;
  /// pool=slab: frames come from a shared size-classed SlabPool instead of
  /// the per-slot bump pools, so no request is ever "oversized".
  FramePoolKind pool = FramePoolKind::kBump;
  /// copy=single advertises the in-place payload path (see marshal.hpp).
  CopyMode copy = CopyMode::kDouble;
  /// How wait() blocks once the short collect grace spin expires
  /// (CompletionGate): condvar (the historical per-slot wait) or futex.
  /// The async plane never busy-waits, so spin/yield are rejected at the
  /// spec layer.
  GateWaitPolicy wait = GateWaitPolicy::kCondvar;
  CpuUsageMeter* meter = nullptr;
  CallDirection direction = CallDirection::kOcall;
};

/// The raw identity of an in-flight call: slot index + the generation the
/// slot had when the call was submitted.  Copyable; used by tests to probe
/// ABA protection.  `slot == kInline` marks a call that completed inside
/// submit() (fallback/regular) and never occupied a table slot.
struct FutureHandle {
  static constexpr std::uint32_t kInline = ~std::uint32_t{0};
  std::uint32_t slot = kInline;
  std::uint64_t generation = 0;
};

class ZcAsyncBackend;

/// Move-only handle to one submitted call.  `wait()` blocks (condvar, no
/// spinning) until the worker completes the call, copies results back into
/// the caller's CallDesc memory and releases the slot; it is idempotent —
/// a second wait() returns the same CallPath immediately.  `poll()` is the
/// non-blocking completion probe.  Destroying a future that was never
/// waited abandons the call (it still executes; results are dropped).
/// Futures must not outlive their backend.
class CallFuture {
 public:
  CallFuture() = default;
  CallFuture(CallFuture&& other) noexcept { steal(other); }
  CallFuture& operator=(CallFuture&& other) noexcept {
    if (this != &other) {
      drop();
      steal(other);
    }
    return *this;
  }
  CallFuture(const CallFuture&) = delete;
  CallFuture& operator=(const CallFuture&) = delete;
  ~CallFuture() { drop(); }

  /// True for any future returned by submit(); false when default
  /// constructed or moved from.
  bool valid() const noexcept { return engaged_; }

  /// Non-blocking: has the call completed?  (Always true once collected
  /// or for inline-completed futures; false for invalid futures.)
  bool poll() const noexcept;

  /// Blocks until completion, collects results, releases the slot.
  /// Idempotent: later calls return the first result immediately.
  CallPath wait();

  /// The raw slot/generation identity (kInline slot for inline futures).
  FutureHandle handle() const noexcept { return handle_; }

 private:
  friend class ZcAsyncBackend;
  CallFuture(ZcAsyncBackend* backend, FutureHandle h) noexcept
      : backend_(backend), handle_(h), engaged_(true), pending_(true) {}
  explicit CallFuture(CallPath completed) noexcept
      : path_(completed), engaged_(true) {}

  void steal(CallFuture& other) noexcept {
    backend_ = other.backend_;
    handle_ = other.handle_;
    path_ = other.path_;
    engaged_ = other.engaged_;
    pending_ = other.pending_;
    other.backend_ = nullptr;
    other.engaged_ = false;
    other.pending_ = false;
  }
  void drop() noexcept;

  ZcAsyncBackend* backend_ = nullptr;  ///< only set while pending_
  FutureHandle handle_;
  CallPath path_ = CallPath::kRegular;
  bool engaged_ = false;
  bool pending_ = false;  ///< slot-backed and not yet collected
};

class ZcAsyncBackend final : public CallBackend {
 public:
  ZcAsyncBackend(Enclave& enclave, ZcAsyncConfig cfg);
  ~ZcAsyncBackend() override;

  void start() override;
  void stop() override;

  /// Synchronous contract, implemented as submit()+wait() — this is what
  /// keeps the backend registry/equivalence-suite compatible.
  CallPath invoke(const CallDesc& desc) override;

  /// Claims a completion-table slot, publishes `desc` and waits for it;
  /// false without side effects when the table is full, no worker is
  /// active, or the frame exceeds the slot pool — the routing probe used
  /// by the sharded router's steal path.  stats().in_flight is raised
  /// while a call occupies a slot.
  bool try_invoke_switchless(const CallDesc& desc) override;

  const char* name() const noexcept override {
    return cfg_.direction == CallDirection::kOcall ? "zc_async"
                                                   : "zc_async-ecall";
  }

  unsigned active_workers() const noexcept override {
    return active_count_.load(std::memory_order_acquire);
  }

  unsigned max_workers() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Completion-table capacity (the `queue=` spec option).
  unsigned queue_depth() const noexcept {
    return static_cast<unsigned>(slots_.size());
  }

  /// Test hook: plants the rotating-claim counter (wraparound regression
  /// tests start it just below the old 32-bit boundary).
  void set_claim_rotation_for_test(std::uint64_t v) noexcept {
    ticket_.store(v, std::memory_order_relaxed);
  }

  // --- the async call plane ------------------------------------------------

  /// Submits one call.  The caller's `desc` memory (args struct and
  /// payloads) must stay alive and untouched until wait() returns on the
  /// returned future.  Never blocks on capacity: with the table full, no
  /// active worker, an oversized request, or a stopped backend the call
  /// executes inline and the future comes back already completed.
  CallFuture submit(const CallDesc& desc);

  /// Non-blocking handle-level completion probe.  Stale handles (their
  /// generation has passed — the call completed and its slot was reused)
  /// report true; the live call occupying the same slot is unaffected.
  bool handle_completed(FutureHandle h) const noexcept;

  /// Pauses workers [m, max) and runs [0, m).  Paused workers still drain
  /// queued slots they are woken for, so no in-flight future is stranded.
  void set_active_workers(unsigned m) override;

  const ZcAsyncConfig& config() const noexcept { return cfg_; }

  CopyMode copy_mode() const noexcept override { return cfg_.copy; }

  /// The shared frame slab when built with pool=slab (tests/diagnostics).
  SlabPool* slab() noexcept { return slab_.get(); }

 private:
  friend class CallFuture;

  enum class SlotState : std::uint32_t {
    kFree = 0,    ///< claimable by submitters
    kClaimed,     ///< a submitter is marshalling into the slot
    kQueued,      ///< published, awaiting a worker
    kExecuting,   ///< a worker runs the call
    kDone,        ///< results ready, awaiting collection
    kReclaiming,  ///< transient: winner of the done-vs-abandon release race
  };

  struct alignas(64) Slot {
    explicit Slot(std::size_t pool_bytes) : pool(pool_bytes) {}
    std::atomic<SlotState> state{SlotState::kFree};
    std::atomic<std::uint64_t> generation{0};
    std::atomic<bool> abandoned{false};
    CallDesc desc;          ///< caller-side descriptor; ordered by `state`
    void* frame = nullptr;  ///< marshalled request; ordered by `state`
    BumpPool pool;
    std::mutex mu;        ///< abandon/release serialisation
    CompletionGate gate;  ///< the waiter's sleep on `state` (kDone)
  };

  enum class WorkerCmd : std::uint32_t { kRun = 0, kPause, kExit };

  struct Worker {
    std::atomic<WorkerCmd> cmd{WorkerCmd::kRun};
    std::atomic<bool> parked{false};
    std::mutex mu;
    std::condition_variable cv;
    std::jthread thread;
  };

  static void wake(Worker& w);
  void wake_a_worker();
  void worker_main(Worker& w);
  Slot* sweep_claim();
  /// Dispatches one claimed (kExecuting) slot and publishes kDone (or,
  /// when the call was abandoned, releases the slot in place).
  void execute_slot(Slot& slot);
  void release_slot(Slot& slot);
  bool any_queued() const;
  void execute_regular(const CallDesc& desc);
  CallFuture inline_fallback(const CallDesc& desc);
  /// Claim + publish without any fallback; false when the table/frame/
  /// worker situation refuses the call (no side effects then).
  bool try_submit(const CallDesc& desc, FutureHandle& out);

  // CallFuture plumbing.
  CallPath collect(FutureHandle h);
  void abandon(FutureHandle h) noexcept;

  Enclave& enclave_;
  ZcAsyncConfig cfg_;
  std::unique_ptr<SlabPool> slab_;  ///< frame slabs when pool=slab
  std::vector<std::unique_ptr<Slot>> slots_;  ///< the completion table
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<unsigned> active_count_{0};
  /// Rotating claim start.  64-bit so the probe index `(first + i) % n`
  /// never jumps at a wraparound mid-scan (a 32-bit counter would overflow
  /// at 2^32); the force-wrap regression test starts the counter just
  /// below that boundary.
  std::atomic<std::uint64_t> ticket_{0};
  std::atomic<bool> running_{false};
};

std::unique_ptr<ZcAsyncBackend> make_zc_async_backend(Enclave& enclave,
                                                      ZcAsyncConfig cfg = {});

}  // namespace zc
