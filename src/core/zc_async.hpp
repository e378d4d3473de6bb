// The slotted ZC-Switchless call plane: one completion table, futures,
// and a per-range flush gate.  Two registry keys build it.
//
// The call path is split in two: `submit()` claims a slot in a fixed
// completion table, marshals, publishes and returns a CallFuture;
// `wait()`/`poll()` on that future collect the result.  The synchronous
// `CallBackend::call()` contract is submit()+wait(), as FlexSC layers
// synchronous system calls on its exception-less submit/complete pages,
// so the plane slots into the registry, `install_backend_spec`, the
// `direction=ecall` plane and the equivalence suite unchanged.
//
// The table is split into one contiguous home range per worker, and the
// plane is caller-affine, as FlexSC keeps each thread's syscall entries
// local to one syscall core.  Each thread keeps a claim cursor per backend
// instance (keyed by a per-instance serial, so a destroyed backend's state
// never steers a new one built at the same address) and claims the first
// free slot of its home range, then of the other active ranges from
// home+1.  The home is dealt once per thread from a shared counter and
// reduced modulo the active worker count, so after the first claim the hot
// path writes no shared word, and sequential callers get distinct home
// ranges while there are enough.
//
// A worker runs its own range's queued slots only when that range's flush
// gate is open (flush_cause):
//   - `batch` calls are queued (with batch=1 the gate opens on publish);
//   - the range's worker is pausing or exiting, and drains;
//   - the learned eager flush fires: the range has learned that waiting
//     buys nothing and no producer is mid-claim (kClaimed) in it;
//   - the oldest queued call has waited out the `flush` window.
// The eager flush is Nagle's algorithm (RFC 896) learned per range: a
// window flush that served exactly one call switches the range to eager.
// A producer mid-claim still holds the flush until it publishes or the
// window expires, which keeps concurrent publishes batching.  The gate is
// evaluated per range, not over the whole table, so one caller's long
// marshal (a 32 KB encrypt under copy=single) holds only its own range.
//
// Service is owner-first, so each caller's slots and handler state stay
// with one worker instead of bouncing among all of them.  A running
// worker also serves the other ranges' open gates, but only once its own
// range has had nothing queued for 64 polls in a row (a lone pipelined
// caller, or a light caller next to a heavy one, leaves a worker idle).
// Busy or not, once per `flush` window it takes the other ranges' calls
// that waited the window out, so a call queued behind an owner stuck in a
// long handler still runs.  On a host with no CPU to spare (no more CPUs
// than workers plus one caller) owners are often descheduled, so there
// every running worker serves every open gate, and a worker that has just
// woken its callers yields once.
//
//   zc_batched  workers×batch slots, batch 8, flush 100 µs, spin 50 µs,
//               wait=yield: callers wait for a batch.
//   zc_async    queue slots, batch 1, 5 µs collect grace, wait=condvar:
//               every publish opens the gate; waiters sleep.
//
// Completion-table slot life cycle:
//
//   FREE -> CLAIMED -> QUEUED -> EXECUTING -> DONE -> FREE
//     submitter: FREE->CLAIMED (CAS), CLAIMED->QUEUED (publish)
//     worker:    QUEUED->EXECUTING (CAS), EXECUTING->DONE (+ gate notify)
//     waiter:    DONE->FREE (collect: unmarshal, generation++)
//
// The QUEUED->EXECUTING CAS decides who runs a call: two workers racing on
// one range, or a submitter that raced stop() and serves its own slot.
//
// A CallFuture is {slot index, generation}: the generation counter is
// bumped every time a slot is released, so a stale handle (the slot has
// been reused) can never be confused with the live call occupying the same
// slot (ABA protection).  Dropping a future without waiting abandons the
// call: it still executes (side effects are preserved — submission is a
// promise to the handler), but nobody collects results and the slot is
// released by whoever finishes last (worker or abandoner).
//
// Backpressure: when the active ranges are full (or no worker is active),
// submit() executes the call inline as a regular fallback and returns an
// already-completed future — no call is ever queued without a slot, lost,
// or spun for (paper §IV-C).  Workers can be paused (set_active_workers):
// a paused worker's range takes no new claims, the worker drains it and
// parks, and only a publish that raced the pause into its range wakes it.
//
// The configless scheduler (ZcScheduler, paper §IV-A, Q = 10 ms, µ = 0.01)
// drives the plane as a WorkerSet: `workers` is the maximum, all of them
// start active, and each decision pauses or resumes whole ranges through
// the pause path above.  A probe below the incumbent only narrows the
// callers' claim bound; one above resumes parked workers and waits until
// they leave the park.  scheduler_enabled=false keeps every worker active.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/completion_gate.hpp"
#include "common/cpu_meter.hpp"
#include "common/pool.hpp"
#include "core/scheduler.hpp"
#include "sgx/enclave.hpp"
#include "sgx/marshal.hpp"

namespace zc {

struct ZcAsyncConfig {
  /// Workers, each owning one home range (> 0): the scheduler's maximum.
  unsigned workers = 2;
  unsigned queue = 32;   ///< completion-table slots == max in-flight (> 0)
  /// Queued calls in one range that open its flush gate (> 0).  1 runs
  /// every call on publish; more makes callers wait for a batch.
  unsigned batch = 1;
  /// Max age of a range's oldest queued call before a partial flush: how
  /// long a worker waits while co-publishers are expected (batch > 1).
  /// Also how long a call waits behind a busy owner before another busy
  /// worker takes it.
  std::chrono::microseconds flush{100};
  /// Collect-side spin budget (`pause`) before the `wait` policy applies.
  /// Every yield bumps BackendStats::caller_yields.  The default grace is
  /// about what a condvar sleep and wake costs (4-16 µs on a 4-vCPU VM):
  /// a pipelined caller whose worker is the bottleneck waits about one
  /// service time for its oldest call, and a 1 µs grace puts ~1% of
  /// those waits to sleep, each stalling the caller's whole pipeline.
  std::chrono::microseconds spin{5};
  /// What a waiter does after the spin budget (CompletionGate): yield
  /// between polls, or sleep on the slot's state word (futex/condvar)
  /// until the worker notifies (caller_sleeps/caller_wakeups).
  GateWaitPolicy wait = GateWaitPolicy::kCondvar;
  /// Per-slot preallocated untrusted frame pool; oversized requests fall
  /// back to a regular call.
  std::size_t slot_pool_bytes = 64 * 1024;
  /// pool=slab: frames come from a shared size-classed SlabPool instead of
  /// the per-slot bump pools, so no request is ever "oversized".
  FramePoolKind pool = FramePoolKind::kBump;
  /// copy=single advertises the in-place payload path (see marshal.hpp).
  CopyMode copy = CopyMode::kDouble;
  /// Run the configless scheduler over the workers; false keeps all of
  /// them active (`scheduler=off`).
  bool scheduler_enabled = true;
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

/// Move-only handle to one submitted call.  `wait()` blocks until the
/// worker completes the call, copies results back into the caller's
/// CallDesc memory and releases the slot; it is idempotent — a second
/// wait() returns the same CallPath immediately.  `poll()` is the
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

class ZcAsyncBackend final : public CallBackend, public WorkerSet {
 public:
  /// `key` is the registry key the plane is built under; name() reports
  /// it (with an "-ecall" suffix on the trusted-function plane).
  ZcAsyncBackend(Enclave& enclave, ZcAsyncConfig cfg,
                 std::string_view key = "zc_async");
  ~ZcAsyncBackend() override;

  void start() override;
  void stop() override;

  /// Synchronous contract, implemented as submit()+wait().
  CallPath invoke(const CallDesc& desc) override;

  /// Claims a slot in an active range, publishes `desc` and waits for it;
  /// false without side effects when the active ranges are full, no worker
  /// is active, or the frame exceeds the slot pool — the routing probe
  /// used by the sharded router's steal path.  stats().in_flight is raised
  /// while a call occupies a slot.
  bool try_invoke_switchless(const CallDesc& desc) override;

  const char* name() const noexcept override { return name_.c_str(); }

  unsigned active_workers() const noexcept override {
    return active_count_.load(std::memory_order_acquire);
  }

  // --- WorkerSet: what the scheduler drives -------------------------------
  unsigned max_workers() const noexcept override {
    return static_cast<unsigned>(workers_.size());
  }
  /// Runs worker `i`, or pauses it: it drains its range, then parks.
  void command_worker(unsigned i, bool run) noexcept override;
  bool worker_parked(unsigned i) const noexcept override {
    return workers_[i]->parked.load(std::memory_order_seq_cst);
  }
  std::atomic<unsigned>& active_count() noexcept override {
    return active_count_;
  }

  /// The feedback scheduler (its loop runs between start() and stop()
  /// when scheduler_enabled).
  ZcScheduler* scheduler() noexcept { return scheduler_.get(); }

  /// Test hook: plants the home-range dealer (wraparound regression tests
  /// start it just below the old 32-bit boundary).
  void set_claim_rotation_for_test(std::uint64_t v) noexcept {
    ticket_.store(v, std::memory_order_relaxed);
  }

  // --- the async call plane ------------------------------------------------

  /// Submits one call.  The caller's `desc` memory (args struct and
  /// payloads) must stay alive and untouched until wait() returns on the
  /// returned future.  Never blocks on capacity: with the active ranges
  /// full, no active worker, an oversized request, or a stopped backend
  /// the call executes inline and the future comes back already completed.
  CallFuture submit(const CallDesc& desc);

  /// Non-blocking handle-level completion probe.  Stale handles (their
  /// generation has passed — the call completed and its slot was reused)
  /// report true; the live call occupying the same slot is unaffected.
  bool handle_completed(FutureHandle h) const noexcept;

  /// Pauses workers [m, max) and runs [0, m); submitters only claim slots
  /// in the ranges of running workers.  A pausing worker drains its range
  /// before parking, so no in-flight future is stranded.  A running
  /// scheduler overrides the count at its next decision.
  void set_active_workers(unsigned m) override;

  const ZcAsyncConfig& config() const noexcept { return cfg_; }

  /// Slot `i`'s bump pool (diagnostics: a frame that travels inline in
  /// the slot never touches it).
  const BumpPool& slot_pool(unsigned i) const noexcept {
    return slots_[i]->pool;
  }

  CopyMode copy_mode() const noexcept override { return cfg_.copy; }

 private:
  friend class CallFuture;

  enum class SlotState : std::uint32_t {
    kFree = 0,    ///< claimable by submitters
    kClaimed,     ///< a submitter is marshalling into the slot
    kQueued,      ///< published, awaiting its range's flush
    kExecuting,   ///< a worker (or a stop-racing submitter) runs the call
    kDone,        ///< results ready, awaiting collection
    kReclaiming,  ///< transient: winner of the done-vs-abandon release race
  };

  // The first line holds every word a worker reads per call, and the
  // inline request area starts right after them, so a small frame's
  // header rides in the state word's line and its args in the next.
  struct alignas(64) Slot {
    explicit Slot(std::size_t pool_bytes) : pool(pool_bytes) {}
    std::atomic<SlotState> state{SlotState::kFree};
    std::atomic<bool> abandoned{false};
    std::atomic<std::uint64_t> generation{0};
    std::atomic<std::uint64_t> publish_ns{0};  ///< flush-window anchor
    void* frame = nullptr;  ///< marshalled request; ordered by `state`
    InlineFrame request;    ///< small frames; ordered by `state`
    unsigned owner = 0;  ///< index of the worker whose home range holds it
    CallDesc desc;       ///< caller-side descriptor; ordered by `state`
    BumpPool pool;
    std::mutex mu;        ///< abandon/release serialisation
    CompletionGate gate;  ///< the waiter's wait on `state` (kDone)
  };

  enum class WorkerCmd : std::uint32_t { kRun = 0, kPause, kExit };

  /// One worker and its home range [lo, hi) of the table.
  struct Worker {
    unsigned lo = 0;
    unsigned hi = 0;
    std::atomic<WorkerCmd> cmd{WorkerCmd::kRun};
    std::atomic<bool> parked{false};
    /// The range's learned eager flush (see the header comment).
    std::atomic<bool> eager{false};
    std::mutex mu;
    std::condition_variable cv;
    std::jthread thread;
  };

  /// What one sweep saw of a range.
  struct Sweep {
    unsigned queued = 0;          ///< published calls awaiting a flush
    bool claimed = false;         ///< a producer is mid-marshal
    std::uint64_t oldest_ns = 0;  ///< publish stamp of the oldest queued
  };

  enum class FlushCause : std::uint8_t {
    kNone,     ///< keep waiting
    kFull,     ///< `batch` calls queued
    kCommand,  ///< pause/exit: a leaving worker drains
    kEager,    ///< learned eager flush: nobody is mid-claim
    kWindow,   ///< the oldest queued call waited out the flush window
  };

  /// The flush gate of one range (see the header comment).
  FlushCause flush_cause(const Sweep& sweep, WorkerCmd cmd,
                         bool eager) const noexcept;

  static void wake(Worker& w);
  void worker_main(Worker& w);
  Sweep sweep(const Worker& range) const;
  /// Runs `range`'s queued slots when its gate is open; returns the calls
  /// this worker completed and reports the queued count it swept.
  unsigned serve(Worker& range, unsigned& queued);
  /// Runs the other ranges' queued calls: those behind an open gate when
  /// this worker's own range is `idle`, else those that waited out the
  /// flush window.
  unsigned help(std::size_t self, bool idle);
  /// Runs every queued slot of `range` this worker wins; counts one flush
  /// when it completes any and learns eager from a lone window flush.
  unsigned flush(Worker& range, FlushCause cause);
  /// Dispatches one claimed (kExecuting) slot and publishes kDone (or,
  /// when the call was abandoned, releases the slot in place).
  void execute_slot(Slot& slot);
  void release_slot(Slot& slot);
  void execute_regular(const CallDesc& desc);
  CallFuture inline_fallback(const CallDesc& desc, Refusal why);
  /// Claim + publish without any fallback; why the table/frame/worker
  /// situation refused the call (no side effects then), or kNone.
  Refusal try_submit(const CallDesc& desc, FutureHandle& out);
  /// Claims a free slot in the active ranges [0, m) in the calling
  /// thread's cursor order; its index, or kInline when all are taken.
  std::uint32_t claim(unsigned m);
  /// CAS FREE->CLAIMED, testing first: a failed CAS takes the line.
  static bool try_claim(Slot& slot);

  // CallFuture plumbing.
  CallPath collect(FutureHandle h);
  void abandon(FutureHandle h) noexcept;

  Enclave& enclave_;
  ZcAsyncConfig cfg_;
  std::string name_;
  std::unique_ptr<SlabPool> slab_;  ///< frame slabs when pool=slab
  std::vector<std::unique_ptr<Slot>> slots_;  ///< the completion table
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<unsigned> active_count_{0};
  /// The flush window, cfg_.flush in wall nanoseconds.
  const std::uint64_t flush_ns_;
  /// Keys the calling threads' claim cursors to this instance.
  const std::uint64_t serial_;
  /// Deals each thread its home range on its first claim (cold path).
  /// 64-bit so no deal jumps at a 32-bit wraparound; the force-wrap
  /// regression tests pin the behaviour at that boundary.
  std::atomic<std::uint64_t> ticket_{0};
  std::atomic<bool> running_{false};
  /// Drives the ranges as a WorkerSet (built after them).
  std::unique_ptr<ZcScheduler> scheduler_;
};

std::unique_ptr<ZcAsyncBackend> make_zc_async_backend(
    Enclave& enclave, ZcAsyncConfig cfg = {},
    std::string_view key = "zc_async");

}  // namespace zc
