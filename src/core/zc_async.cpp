#include "core/zc_async.hpp"

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

void ZcAsyncBackend::wake_a_worker() {
  // Prefer a parked worker (it will re-check the table); a spinning worker
  // discovers the published slot on its next sweep anyway.
  for (auto& w : workers_) {
    if (w->parked.load(std::memory_order_seq_cst)) {
      wake(*w);
      return;
    }
  }
}

ZcAsyncBackend::ZcAsyncBackend(Enclave& enclave, ZcAsyncConfig cfg)
    : enclave_(enclave), cfg_(std::move(cfg)) {
  if (cfg_.pool == FramePoolKind::kSlab) {
    slab_ = std::make_unique<SlabPool>();
    slab_->set_counters(SlabPool::Counters{
        &stats_.slab_hits, &stats_.slab_misses, &stats_.slab_grows});
  }
  slots_.reserve(cfg_.queue);
  for (unsigned i = 0; i < cfg_.queue; ++i) {
    slots_.push_back(std::make_unique<Slot>(cfg_.slot_pool_bytes));
  }
  workers_.reserve(cfg_.workers);
  for (unsigned i = 0; i < cfg_.workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
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
}

void ZcAsyncBackend::stop() {
  if (!running_.exchange(false)) return;
  active_count_.store(0, std::memory_order_release);
  for (auto& w : workers_) {
    w->cmd.store(WorkerCmd::kExit, std::memory_order_seq_cst);
    wake(*w);
    if (w->thread.joinable()) w->thread.join();
  }
}

void ZcAsyncBackend::set_active_workers(unsigned m) {
  if (!running_.load(std::memory_order_relaxed)) return;
  const auto max = static_cast<unsigned>(workers_.size());
  if (m > max) m = max;
  // Publish the claim bound first so submit() stops queueing new work when
  // everyone is about to pause; queued slots are still drained (paused
  // workers wake for them).
  active_count_.store(m, std::memory_order_release);
  for (unsigned i = 0; i < max; ++i) {
    Worker& w = *workers_[i];
    // kExit is terminal: a churn thread racing stop() must never overwrite
    // it, or the worker would park/run forever and stop()'s join would
    // hang.  CAS from any non-exit command only.
    const WorkerCmd desired = i < m ? WorkerCmd::kRun : WorkerCmd::kPause;
    WorkerCmd cur = w.cmd.load(std::memory_order_seq_cst);
    bool changed = false;
    while (cur != WorkerCmd::kExit && cur != desired) {
      if (w.cmd.compare_exchange_weak(cur, desired,
                                      std::memory_order_seq_cst)) {
        changed = true;
        break;
      }
    }
    // Only an actual command transition needs the worker's attention —
    // re-applying the current count must not turn scheduler churn into a
    // spurious-wake storm (same fix as ZcBatchedBackend; pinned by the
    // churn stress test's worker_wakeups assertions).
    if (changed) wake(w);
  }
}

void ZcAsyncBackend::execute_regular(const CallDesc& desc) {
  if (cfg_.direction == CallDirection::kOcall) {
    execute_regular_ocall(enclave_, desc);
  } else {
    execute_regular_ecall(enclave_, desc);
  }
}

CallFuture ZcAsyncBackend::inline_fallback(const CallDesc& desc) {
  execute_regular(desc);
  const std::uint64_t elided = copies_elided_by(desc);
  if (elided != 0) stats_.copies_elided.add(elided);
  stats_.fallback_calls.add();
  return CallFuture(CallPath::kFallback);
}

bool ZcAsyncBackend::try_submit(const CallDesc& desc, FutureHandle& out) {
  if (!running_.load(std::memory_order_relaxed)) return false;

  const unsigned m = active_count_.load(std::memory_order_acquire);
  if (m == 0) return false;

  // Claim a free completion-table slot, starting from a rotating index so
  // concurrent submitters spread across the table.  Table full: immediate
  // refusal — backpressure without busy waiting, as in plain ZC.
  Slot* slot = nullptr;
  std::uint32_t index = 0;
  const auto n = static_cast<std::uint32_t>(slots_.size());
  const std::uint64_t first = ticket_.fetch_add(1, std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto probe = static_cast<std::uint32_t>((first + i) % n);
    Slot& candidate = *slots_[probe];
    SlotState expected = SlotState::kFree;
    if (candidate.state.compare_exchange_strong(expected, SlotState::kClaimed,
                                                std::memory_order_acquire,
                                                std::memory_order_relaxed)) {
      slot = &candidate;
      index = probe;
      break;
    }
  }
  if (slot == nullptr) return false;

  void* mem = nullptr;
  if (slab_ != nullptr) {
    // Shared slab: per-frame blocks, freed at release — no per-claim
    // reset and no size cliff (the slab never refuses).
    mem = slab_->allocate(frame_bytes(desc));
  } else {
    slot->pool.reset();  // single-request pool: fresh for every claim
    mem = slot->pool.allocate(frame_bytes(desc), 64);
  }
  if (mem == nullptr) {
    // Request larger than the slot pool: cannot go switchless.
    slot->state.store(SlotState::kFree, std::memory_order_release);
    return false;
  }

  // The gauge covers publish through release: occupied table slots are
  // the per-layer load signal the sharded router's selectors read.
  stats_.in_flight.add();
  marshal_into(mem, desc);
  if (desc.produce_in != nullptr) stats_.copies_elided.add();
  slot->desc = desc;
  slot->frame = mem;
  slot->abandoned.store(false, std::memory_order_relaxed);
  out = FutureHandle{index,
                     slot->generation.load(std::memory_order_relaxed)};
  // seq_cst publish pairs with the workers' seq_cst park/sweep sequence:
  // either this submitter observes parked==true and wakes a worker, or a
  // worker's pre-sleep sweep observes this QUEUED slot.
  slot->state.store(SlotState::kQueued, std::memory_order_seq_cst);
  wake_a_worker();

  // stop() race: if the backend stopped between our running_ check and the
  // publish, the exiting workers' final drain sweep may have already
  // passed this slot.  Reclaim and execute it ourselves; the CAS decides
  // ownership, so the call runs exactly once either way.
  if (!running_.load(std::memory_order_seq_cst)) {
    SlotState expected = SlotState::kQueued;
    if (slot->state.compare_exchange_strong(expected, SlotState::kExecuting,
                                            std::memory_order_seq_cst)) {
      execute_slot(*slot);
    }
  }
  return true;
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
  if (!try_submit(desc, handle)) return inline_fallback(desc);
  return CallFuture(this, handle);
}

CallPath ZcAsyncBackend::invoke(const CallDesc& desc) {
  CallFuture future = submit(desc);
  return future.wait();
}

bool ZcAsyncBackend::try_invoke_switchless(const CallDesc& desc) {
  FutureHandle handle;
  if (!try_submit(desc, handle)) return false;
  collect(handle);
  return true;
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
  if (slab_ != nullptr && slot.frame != nullptr) slab_->free(slot.frame);
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
  // Short grace spin for calls that complete immediately, then sleep on
  // the slot's gate (condvar by default, futex with wait=futex) — the
  // caller never busy-waits for a slow call.
  constexpr std::chrono::microseconds kCollectGrace{1};
  const auto done = [](SlotState s) { return s == SlotState::kDone; };
  const GateCounters counters{&stats_.caller_yields, &stats_.caller_sleeps,
                              &stats_.caller_wakeups};
  slot.gate.await(slot.state, done, cfg_.wait, kCollectGrace, counters);
  MarshalledCall call = frame_view(slot.frame);
  unmarshal_from(call, slot.desc);
  if (slot.desc.consume_out != nullptr) stats_.copies_elided.add();
  release_slot(slot);
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

ZcAsyncBackend::Slot* ZcAsyncBackend::sweep_claim() {
  for (auto& s : slots_) {
    if (s->state.load(std::memory_order_seq_cst) != SlotState::kQueued) {
      continue;
    }
    SlotState expected = SlotState::kQueued;
    if (s->state.compare_exchange_strong(expected, SlotState::kExecuting,
                                         std::memory_order_seq_cst)) {
      return s.get();
    }
  }
  return nullptr;
}

bool ZcAsyncBackend::any_queued() const {
  for (const auto& s : slots_) {
    if (s->state.load(std::memory_order_seq_cst) == SlotState::kQueued) {
      return true;
    }
  }
  return false;
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
  slot.gate.notify(slot.state);
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

  std::uint64_t iterations = 0;
  for (;;) {
    const WorkerCmd cmd = w.cmd.load(std::memory_order_acquire);

    if (Slot* job = sweep_claim(); job != nullptr) {
      // Burst-drain: keep claiming while queued work exists.
      do {
        execute_slot(*job);
      } while ((job = sweep_claim()) != nullptr);
      continue;
    }

    if (cmd == WorkerCmd::kExit) break;  // table drained: safe to leave
    if (cmd == WorkerCmd::kPause) {
      park([&] {
        // Paused workers still wake to drain queued slots, so a future
        // submitted just before the pause command is never stranded.
        return w.cmd.load(std::memory_order_acquire) != WorkerCmd::kPause ||
               any_queued();
      });
      continue;
    }

    cpu_pause();
    // Narrow-host courtesy: an idle worker yields periodically so the
    // submitters (and the other workers) can actually run.
    if ((++iterations & 0x3FF) == 0) std::this_thread::yield();
    if (cfg_.meter != nullptr && (iterations & 0x3FFF) == 0) {
      cfg_.meter->checkpoint(meter_slot);
    }
  }

  if (cfg_.meter != nullptr) cfg_.meter->unregister_current_thread(meter_slot);
}

std::unique_ptr<ZcAsyncBackend> make_zc_async_backend(Enclave& enclave,
                                                      ZcAsyncConfig cfg) {
  return std::make_unique<ZcAsyncBackend>(enclave, std::move(cfg));
}

}  // namespace zc
