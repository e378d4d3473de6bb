#include "core/zc_async.hpp"

#include <array>

#include "common/cycles.hpp"
#include "common/pin.hpp"
#include "sgx/marshal.hpp"

namespace zc {

// --- CallFuture --------------------------------------------------------------

bool CallFuture::poll() const noexcept {
  if (!engaged_) return false;
  if (!pending_) return true;
  return backend_->handle_completed(handle_);
}

CallPath CallFuture::wait() {
  if (pending_) {
    path_ = backend_->collect(handle_);
    pending_ = false;
    backend_ = nullptr;
  }
  return path_;
}

void CallFuture::drop() noexcept {
  if (pending_) {
    backend_->abandon(handle_);
    pending_ = false;
    backend_ = nullptr;
  }
}

// --- ZcAsyncBackend ----------------------------------------------------------

namespace {

// Instance serials key the per-thread claim cursors.  0 marks a free entry.
std::atomic<std::uint64_t> g_next_serial{1};

/// One thread's claim state on one backend instance.
struct ClaimCursor {
  std::uint64_t serial = 0;  ///< the instance this entry belongs to
  unsigned deal = 0;         ///< home range, modulo the worker count
  /// The slot this thread last collected, where its next claim starts.
  std::uint32_t last = FutureHandle::kInline;
};

// Direct-mapped by serial, so a thread that alternates between backends
// (one enclave's ocall and ecall planes, or two enclaves) keeps a cursor
// on each.
constexpr std::size_t kCursors = 8;
thread_local std::array<ClaimCursor, kCursors> t_cursors;

ClaimCursor& cursor_entry(std::uint64_t serial) {
  return t_cursors[serial % kCursors];
}

// A running worker looks at the other ranges on every poll once its own
// range has had nothing queued for this many polls in a row; until then it
// reads the clock every this many polls, and after each flush of its own.
constexpr std::uint64_t kHelpPeriod = 64;

}  // namespace

// Wakes a possibly-parked worker.  The empty lock/unlock orders this
// notify after the worker's predicate evaluation: a worker between its
// predicate check and cv.wait() holds the mutex, so acquiring it here
// guarantees the notify lands after the wait began (no lost wakeup).
void ZcAsyncBackend::wake(Worker& w) {
  {
    std::lock_guard lock(w.mu);
  }
  w.cv.notify_one();
}

ZcAsyncBackend::ZcAsyncBackend(Enclave& enclave, ZcAsyncConfig cfg,
                               std::string_view key)
    : enclave_(enclave),
      cfg_(std::move(cfg)),
      name_(key),
      flush_ns_(static_cast<std::uint64_t>(cfg_.flush.count()) * 1'000),
      serial_(g_next_serial.fetch_add(1, std::memory_order_relaxed)) {
  if (cfg_.direction == CallDirection::kEcall) name_ += "-ecall";
  if (cfg_.pool == FramePoolKind::kSlab) {
    slab_ = std::make_unique<SlabPool>();
    slab_->set_counters(SlabPool::Counters{
        &stats_.slab_hits, &stats_.slab_misses, &stats_.slab_grows});
  }
  slots_.reserve(cfg_.queue);
  for (unsigned i = 0; i < cfg_.queue; ++i) {
    slots_.push_back(std::make_unique<Slot>(cfg_.slot_pool_bytes));
  }
  // Home ranges: contiguous and as even as the table allows, larger ones
  // first, so with fewer slots than workers the low (first active)
  // workers own them and the rest own empty ranges and only help.
  const auto bound = [&](unsigned i) {
    return static_cast<unsigned>(
        (std::uint64_t{cfg_.queue} * i + cfg_.workers - 1) / cfg_.workers);
  };
  workers_.reserve(cfg_.workers);
  for (unsigned i = 0; i < cfg_.workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->lo = bound(i);
    w->hi = bound(i + 1);
    for (unsigned s = w->lo; s < w->hi; ++s) slots_[s]->owner = i;
    workers_.push_back(std::move(w));
  }
  scheduler_ = std::make_unique<ZcScheduler>(enclave_, *this, stats_,
                                             cfg_.meter);
}

ZcAsyncBackend::~ZcAsyncBackend() { stop(); }

void ZcAsyncBackend::start() {
  if (running_.exchange(true)) return;
  for (auto& w : workers_) {
    w->cmd.store(WorkerCmd::kRun, std::memory_order_release);
    w->thread = std::jthread([this, worker = w.get()] { worker_main(*worker); });
  }
  active_count_.store(static_cast<unsigned>(workers_.size()),
                      std::memory_order_release);
  if (cfg_.scheduler_enabled) scheduler_->start();
}

void ZcAsyncBackend::stop() {
  if (!running_.exchange(false)) return;
  // The scheduler goes first, so no decision or probe lands after the
  // claim bound closes and the workers' exit commands.
  scheduler_->stop();
  active_count_.store(0, std::memory_order_release);
  for (auto& w : workers_) {
    w->cmd.store(WorkerCmd::kExit, std::memory_order_seq_cst);
    wake(*w);
    if (w->thread.joinable()) w->thread.join();
  }
}

void ZcAsyncBackend::set_active_workers(unsigned m) {
  if (!running_.load(std::memory_order_relaxed)) return;
  // The scheduler publishes the claim bound first, so no new call lands in
  // a range whose worker is about to pause; pausing workers drain their
  // ranges first.
  scheduler_->set_active(m);
}

void ZcAsyncBackend::command_worker(unsigned i, bool run) noexcept {
  Worker& w = *workers_[i];
  // kExit is terminal: a churn thread racing stop() must never overwrite
  // it, or the worker would park/run forever and stop()'s join would
  // hang.  CAS from any non-exit command only.
  const WorkerCmd desired = run ? WorkerCmd::kRun : WorkerCmd::kPause;
  WorkerCmd cur = w.cmd.load(std::memory_order_seq_cst);
  while (cur != WorkerCmd::kExit && cur != desired) {
    if (w.cmd.compare_exchange_weak(cur, desired,
                                    std::memory_order_seq_cst)) {
      // Only an actual command transition needs the worker's attention: a
      // no-change command (scheduler probes re-applying the same count)
      // must not turn hot-swap churn into a spurious-wake storm.  The
      // churn stress test pins this via worker_wakeups.
      wake(w);
      return;
    }
  }
}

void ZcAsyncBackend::execute_regular(const CallDesc& desc) {
  if (cfg_.direction == CallDirection::kOcall) {
    execute_regular_ocall(enclave_, desc);
  } else {
    execute_regular_ecall(enclave_, desc);
  }
}

CallFuture ZcAsyncBackend::inline_fallback(const CallDesc& desc,
                                           Refusal why) {
  execute_regular(desc);
  const std::uint64_t elided = copies_elided_by(desc);
  if (elided != 0) stats_.copies_elided.add(elided);
  stats_.count_fallback(why);
  return CallFuture(CallPath::kFallback);
}

bool ZcAsyncBackend::try_claim(Slot& slot) {
  SlotState expected = SlotState::kFree;
  return slot.state.load(std::memory_order_relaxed) == expected &&
         slot.state.compare_exchange_strong(expected, SlotState::kClaimed,
                                            std::memory_order_acquire,
                                            std::memory_order_relaxed);
}

std::uint32_t ZcAsyncBackend::claim(unsigned m) {
  ClaimCursor& cur = cursor_entry(serial_);
  if (cur.serial != serial_) {
    const auto n = static_cast<std::uint64_t>(workers_.size());
    cur.serial = serial_;
    cur.deal = static_cast<unsigned>(
        ticket_.fetch_add(1, std::memory_order_relaxed) % n);
    cur.last = FutureHandle::kInline;
  }
  const unsigned home = cur.deal < m ? cur.deal : cur.deal % m;
  for (unsigned i = 0; i < m; ++i) {
    const Worker& range = *workers_[(home + i) % m];
    // Start at the slot this thread last collected when it lies in this
    // range: a pipelined caller collects in FIFO order, so that is its one
    // free slot, and the scan reads none of the busy ones before it.
    unsigned s =
        cur.last >= range.lo && cur.last < range.hi ? cur.last : range.lo;
    for (unsigned k = range.lo; k < range.hi; ++k) {
      if (try_claim(*slots_[s])) return s;
      if (++s == range.hi) s = range.lo;
    }
  }
  return FutureHandle::kInline;
}

Refusal ZcAsyncBackend::try_submit(const CallDesc& desc, FutureHandle& out) {
  if (!running_.load(std::memory_order_relaxed)) return Refusal::kNoWorker;

  const unsigned m = active_count_.load(std::memory_order_acquire);
  if (m == 0) return Refusal::kNoWorker;

  // No free slot in any active range: immediate refusal, as in plain ZC
  // (§IV-C); submit() then falls back inline.
  const std::uint32_t index = claim(m);
  if (index == FutureHandle::kInline) return Refusal::kBusy;
  Slot* slot = slots_[index].get();
  Worker& range = *workers_[slot->owner];

  const std::size_t bytes = frame_bytes(desc);
  void* mem = nullptr;
  if (InlineFrame::fits(bytes, cfg_.slot_pool_bytes)) {
    // Small frames travel in the slot's own lines, whatever the pool kind.
    mem = slot->request.bytes;
  } else if (slab_ != nullptr) {
    // Shared slab: per-frame blocks, freed at release — no per-claim
    // reset and no size cliff (the slab never refuses).
    mem = slab_->allocate(bytes);
  } else {
    slot->pool.reset();  // single-request pool: fresh for every claim
    mem = slot->pool.allocate(bytes, 64);
  }
  if (mem == nullptr) {
    // Request larger than the slot pool: cannot go switchless.
    slot->state.store(SlotState::kFree, std::memory_order_release);
    return Refusal::kOversize;
  }

  // The gauge covers publish through release: it counts occupied table
  // slots.
  stats_.in_flight.add();
  marshal_into(mem, desc);
  if (desc.produce_in != nullptr) stats_.copies_elided.add();
  slot->desc = desc;
  slot->frame = mem;
  slot->abandoned.store(false, std::memory_order_relaxed);
  slot->publish_ns.store(wall_ns(), std::memory_order_relaxed);
  out = FutureHandle{index,
                     slot->generation.load(std::memory_order_relaxed)};
  // seq_cst publish pairs with the worker's seq_cst park/sweep sequence:
  // either this submitter observes parked==true and wakes the range's
  // worker, or the worker's pre-sleep sweep observes this QUEUED slot.
  // Plain release/acquire would allow both sides to miss each other.
  slot->state.store(SlotState::kQueued, std::memory_order_seq_cst);
  if (range.parked.load(std::memory_order_seq_cst)) wake(range);

  // stop() race: if the backend stopped between our running_ check and the
  // publish, the exiting worker's last sweep may have seen this slot still
  // kClaimed and left.  Serve our own slot; the CAS arbitrates against a
  // worker's final flush, so the call runs exactly once either way.
  if (!running_.load(std::memory_order_seq_cst)) {
    SlotState expected = SlotState::kQueued;
    if (slot->state.compare_exchange_strong(expected, SlotState::kExecuting,
                                            std::memory_order_seq_cst)) {
      execute_slot(*slot);
    }
  }
  return Refusal::kNone;
}

CallFuture ZcAsyncBackend::submit(const CallDesc& desc) {
  if (!running_.load(std::memory_order_relaxed)) {
    execute_regular(desc);
    const std::uint64_t elided = copies_elided_by(desc);
    if (elided != 0) stats_.copies_elided.add(elided);
    stats_.regular_calls.add();
    return CallFuture(CallPath::kRegular);
  }
  FutureHandle handle;
  const Refusal why = try_submit(desc, handle);
  if (why != Refusal::kNone) return inline_fallback(desc, why);
  return CallFuture(this, handle);
}

CallPath ZcAsyncBackend::invoke(const CallDesc& desc) {
  CallFuture future = submit(desc);
  return future.wait();
}

bool ZcAsyncBackend::handle_completed(FutureHandle h) const noexcept {
  if (h.slot == FutureHandle::kInline) return true;
  if (h.slot >= slots_.size()) return true;
  const Slot& slot = *slots_[h.slot];
  // Seqlock-style probe: only a state read bracketed by two matching
  // generation reads describes *this* handle's call.  Any generation
  // mismatch means the call completed and its slot was released (possibly
  // reused) — report completed, never the reused slot's state (ABA).
  const std::uint64_t g0 = slot.generation.load(std::memory_order_seq_cst);
  const SlotState state = slot.state.load(std::memory_order_seq_cst);
  const std::uint64_t g1 = slot.generation.load(std::memory_order_seq_cst);
  if (g0 != h.generation || g1 != h.generation) return true;
  return state == SlotState::kDone;
}

void ZcAsyncBackend::release_slot(Slot& slot) {
  if (slab_ != nullptr && slot.frame != nullptr &&
      slot.frame != slot.request.bytes) {
    slab_->free(slot.frame);
  }
  slot.frame = nullptr;
  stats_.in_flight.sub();
  // Clear the abandon mark with the occupancy it belonged to, so a stale
  // post-release read can only ever see `true` transiently (and the
  // generation checks below make even that harmless).
  slot.abandoned.store(false, std::memory_order_seq_cst);
  // Bump the generation before freeing the slot so a stale handle's
  // seqlock probe can never match the next occupant.
  slot.generation.fetch_add(1, std::memory_order_seq_cst);
  slot.state.store(SlotState::kFree, std::memory_order_seq_cst);
}

CallPath ZcAsyncBackend::collect(FutureHandle h) {
  Slot& slot = *slots_[h.slot];
  // Spin for the configured budget, then apply the wait policy: a batch
  // waiter yields or sleeps through the flush window instead of starving
  // the worker on narrow hosts; a futures waiter sleeps on the slot's gate
  // after a short grace.
  const auto done = [](SlotState s) { return s == SlotState::kDone; };
  const GateCounters counters{&stats_.caller_yields, &stats_.caller_sleeps,
                              &stats_.caller_wakeups};
  slot.gate.await(slot.state, done, cfg_.wait, cfg_.spin, counters);
  MarshalledCall call = frame_view(slot.frame);
  unmarshal_from(call, slot.desc);
  if (slot.desc.consume_out != nullptr) stats_.copies_elided.add();
  release_slot(slot);
  // The freed slot is where this thread's next claim starts (a thread
  // without a cursor on this instance only collects, and leaves it be).
  ClaimCursor& cur = cursor_entry(serial_);
  if (cur.serial == serial_) cur.last = h.slot;
  return CallPath::kSwitchless;
}

void ZcAsyncBackend::abandon(FutureHandle h) noexcept {
  Slot& slot = *slots_[h.slot];
  // The call must still execute (submission promised its side effects to
  // the handler); only result collection is dropped.  Whoever finishes
  // last — the worker or this abandoner — releases the slot; the CAS on
  // kDone decides, so the release happens exactly once.
  //
  // All abandoned-slot bookkeeping is serialised by the slot mutex, and
  // the generation check comes first: a delayed abandoner whose call the
  // worker already reclaimed (and submit() has possibly reused) must not
  // mark — let alone release — the slot's next occupant (ABA).  Inside
  // the mutex the generation cannot advance under us, because every
  // release an abandon can race (the worker's abandoned-slot paths) also
  // takes this mutex; collect() never races abandon — both belong to the
  // single future owner.
  std::lock_guard lock(slot.mu);
  if (slot.generation.load(std::memory_order_seq_cst) != h.generation) {
    return;  // already completed and released; the slot is no longer ours
  }
  slot.abandoned.store(true, std::memory_order_seq_cst);
  SlotState expected = SlotState::kDone;
  if (slot.state.compare_exchange_strong(expected, SlotState::kReclaiming,
                                         std::memory_order_seq_cst)) {
    release_slot(slot);
  }
}

void ZcAsyncBackend::execute_slot(Slot& slot) {
  // The generation of the occupancy we are executing.  It cannot advance
  // during execution (release requires kDone, or this worker's own
  // abandoned path below), so it identifies "our" call in the post-kDone
  // re-check — a stale flag read can never make us release a successor.
  const std::uint64_t occupancy =
      slot.generation.load(std::memory_order_seq_cst);
  const OcallTable& table = cfg_.direction == CallDirection::kOcall
                                ? enclave_.ocalls()
                                : enclave_.ecalls();
  auto* header = static_cast<FrameHeader*>(slot.frame);
  MarshalledCall call = frame_view(slot.frame);
  table.dispatch(header->fn_id, call);
  stats_.switchless_calls.add();

  if (slot.abandoned.load(std::memory_order_seq_cst)) {
    // Abandoned before completion was published: nobody will collect, and
    // the abandoner's kDone CAS cannot fire on a non-kDone state — this
    // worker is the sole releaser.  The mutex orders the release after
    // the abandoner's critical section (see abandon()).
    std::lock_guard lock(slot.mu);
    release_slot(slot);
    return;
  }
  slot.state.store(SlotState::kDone, std::memory_order_seq_cst);
  // Sleeping wait policies need the hand-off notify; yield/spin waiters
  // poll, so their completion path stays notify-free.
  if (gate_can_sleep(cfg_.wait)) slot.gate.notify(slot.state);
  // Abandon may have raced the kDone publish; under the mutex the
  // generation check plus the CAS decide who releases.  If the abandoner
  // already released (generation moved — possibly with the slot reused by
  // a live successor), this worker must not touch the slot again.
  if (slot.abandoned.load(std::memory_order_seq_cst)) {
    std::lock_guard lock(slot.mu);
    if (slot.generation.load(std::memory_order_seq_cst) == occupancy) {
      SlotState expected = SlotState::kDone;
      if (slot.state.compare_exchange_strong(expected, SlotState::kReclaiming,
                                             std::memory_order_seq_cst)) {
        release_slot(slot);
      }
    }
  }
}

ZcAsyncBackend::FlushCause ZcAsyncBackend::flush_cause(
    const Sweep& sweep, WorkerCmd cmd, bool eager) const noexcept {
  if (sweep.queued == 0) return FlushCause::kNone;
  if (sweep.queued >= cfg_.batch) return FlushCause::kFull;
  // A leaving worker drains; it never strands a caller.
  if (cmd != WorkerCmd::kRun) return FlushCause::kCommand;
  if (eager && !sweep.claimed) return FlushCause::kEager;
  if (wall_ns() - sweep.oldest_ns >= flush_ns_) return FlushCause::kWindow;
  return FlushCause::kNone;
}

ZcAsyncBackend::Sweep ZcAsyncBackend::sweep(const Worker& range) const {
  Sweep out;
  out.oldest_ns = ~std::uint64_t{0};
  for (unsigned i = range.lo; i < range.hi; ++i) {
    const Slot& s = *slots_[i];
    const SlotState state = s.state.load(std::memory_order_seq_cst);
    if (state == SlotState::kClaimed) {
      out.claimed = true;
    } else if (state == SlotState::kQueued) {
      ++out.queued;
      const std::uint64_t t = s.publish_ns.load(std::memory_order_relaxed);
      if (t < out.oldest_ns) out.oldest_ns = t;
    }
  }
  return out;
}

unsigned ZcAsyncBackend::flush(Worker& range, FlushCause cause) {
  unsigned completed = 0;
  for (unsigned i = range.lo; i < range.hi; ++i) {
    Slot& s = *slots_[i];
    SlotState expected = SlotState::kQueued;
    // The CAS arbitrates against another worker flushing the same range
    // and a stop-racing submitter serving its own slot; failure means the
    // slot is not ours to run.
    if (s.state.load(std::memory_order_acquire) != expected ||
        !s.state.compare_exchange_strong(expected, SlotState::kExecuting,
                                         std::memory_order_seq_cst)) {
      continue;
    }
    // One flush per sweep that completes a call, counted before its first
    // slot completes, so a caller that sees its result also sees the
    // flush that produced it; a worker that lost every CAS counts none.
    if (completed++ == 0) stats_.batch_flushes.add();
    execute_slot(s);
  }
  if (cause == FlushCause::kWindow && completed == 1) {
    range.eager.store(true, std::memory_order_relaxed);
  }
  return completed;
}

unsigned ZcAsyncBackend::serve(Worker& range, unsigned& queued) {
  const Sweep swept = sweep(range);
  queued = swept.queued;
  const FlushCause cause =
      flush_cause(swept, range.cmd.load(std::memory_order_acquire),
                  range.eager.load(std::memory_order_relaxed));
  if (cause == FlushCause::kNone) return 0;
  return flush(range, cause);
}

unsigned ZcAsyncBackend::help(std::size_t self, bool idle) {
  const std::size_t n = workers_.size();
  unsigned served = 0;
  for (std::size_t i = 1; i < n; ++i) {
    Worker& range = *workers_[(self + i) % n];
    if (idle) {
      unsigned ignored = 0;
      served += serve(range, ignored);
      continue;
    }
    const Sweep swept = sweep(range);
    if (swept.queued > 0 && wall_ns() - swept.oldest_ns >= flush_ns_) {
      served += flush(range, FlushCause::kWindow);
    }
  }
  return served;
}

void ZcAsyncBackend::worker_main(Worker& w) {
  const SimConfig& sim = enclave_.config();
  if (sim.pin_threads) {
    pin_current_thread_to_window(sim.pin_base_cpu, sim.logical_cpus);
  }
  std::size_t meter_slot = 0;
  if (cfg_.meter != nullptr) {
    meter_slot = cfg_.meter->register_current_thread();
  }

  // Parks under w.mu until `ready` holds.  One worker_wakeup per park,
  // counted when it ends (a wake landing before cv.wait() began never
  // waits, yet still pairs with the sleep), plus one per spurious re-wait,
  // so a wake storm (the set_active_workers bug the churn stress test
  // pins) is visible in the stats, not just in syscalls.
  const auto park = [&](auto&& ready) {
    std::unique_lock lock(w.mu);
    w.parked.store(true, std::memory_order_seq_cst);
    stats_.worker_sleeps.add();
    if (cfg_.meter != nullptr) cfg_.meter->checkpoint(meter_slot);
    for (bool waited = false; !ready(); waited = true) {
      if (waited) stats_.worker_wakeups.add();  // spurious re-wait
      w.cv.wait(lock);
    }
    stats_.worker_wakeups.add();
    w.parked.store(false, std::memory_order_seq_cst);
  };

  std::size_t self = 0;
  while (workers_[self].get() != &w) ++self;

  // A host with no CPU to spare (no more CPUs than the workers plus one
  // caller) time-shares them among workers and callers.  There a flush
  // that just woke its callers left them runnable, and the worker's poll
  // loop would burn the rest of its timeslice racing the very threads that
  // must run before anything new can be published, so it donates the CPU
  // once, immediately.  And there an owner is often descheduled, so every
  // running worker serves every open gate.  On a wider host the yield
  // would only delay the worker's next look at its own range.
  const bool narrow = allowed_cpus() <= workers_.size() + 1;
  bool just_flushed = false;
  std::uint64_t iterations = 0;
  std::uint64_t polls = 0;
  std::uint64_t idle_polls = 0;  // polls in a row with the own range empty
  std::uint64_t helped_ns = 0;   // when this worker last looked elsewhere
  for (;;) {
    const WorkerCmd cmd = w.cmd.load(std::memory_order_acquire);
    unsigned queued = 0;
    unsigned served = serve(w, queued);
    // Owner-first: a running worker serves the other ranges' open gates
    // only once its own range has stayed idle (a lone pipelined caller, a
    // light caller next to a heavy one) or on a narrow host.  Busy or not,
    // once per flush window it takes their calls that waited the window
    // out (an owner stuck in a long handler).
    if (cmd == WorkerCmd::kRun) {
      idle_polls = queued == 0 ? idle_polls + 1 : 0;
      const bool idle = narrow || idle_polls >= kHelpPeriod;
      bool due = false;
      if (!idle && (served > 0 || ++polls % kHelpPeriod == 0)) {
        const std::uint64_t now = wall_ns();
        due = now - helped_ns >= flush_ns_;
        if (due) helped_ns = now;
      }
      if (idle || due) served += help(self, idle);
    }
    if (served > 0) {
      just_flushed = narrow;
      continue;
    }

    if (queued == 0) {
      if (cmd == WorkerCmd::kExit) break;  // range drained: safe to leave
      if (cmd == WorkerCmd::kPause) {
        // A paused range takes no new claims; only a publish that raced
        // the pause (and wakes this worker) can queue into it.
        park([&] {
          return w.cmd.load(std::memory_order_acquire) != WorkerCmd::kPause ||
                 sweep(w).queued > 0;
        });
        continue;
      }
      if (just_flushed) {
        just_flushed = false;
        std::this_thread::yield();
        continue;
      }
    }

    cpu_pause();
    // Narrow-host courtesy: an idle (or window-waiting) worker yields
    // periodically so submitters and the other workers can actually run.
    if ((++iterations & 0x3FF) == 0) std::this_thread::yield();
    if (cfg_.meter != nullptr && (iterations & 0x3FFF) == 0) {
      cfg_.meter->checkpoint(meter_slot);
    }
  }

  if (cfg_.meter != nullptr) cfg_.meter->unregister_current_thread(meter_slot);
}

std::unique_ptr<ZcAsyncBackend> make_zc_async_backend(Enclave& enclave,
                                                      ZcAsyncConfig cfg,
                                                      std::string_view key) {
  return std::make_unique<ZcAsyncBackend>(enclave, std::move(cfg), key);
}

}  // namespace zc
