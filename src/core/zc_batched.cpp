#include "core/zc_batched.hpp"

#include "common/cycles.hpp"
#include "common/pin.hpp"
#include "core/scheduler.hpp"
#include "sgx/marshal.hpp"

namespace zc {

const char* to_string(BatchFlushPolicy policy) noexcept {
  switch (policy) {
    case BatchFlushPolicy::kTimer:
      return "timer";
    case BatchFlushPolicy::kFeedback:
      return "feedback";
  }
  return "?";
}

ZcBatchedBackend::Worker::Worker(unsigned batch, std::size_t pool_bytes,
                                 bool use_ring) {
  if (use_ring) {
    ring = std::make_unique<MpscSlotRing<Slot>>(batch, 0, pool_bytes);
    return;
  }
  slots.reserve(batch);
  for (unsigned i = 0; i < batch; ++i) {
    slots.push_back(std::make_unique<Slot>(pool_bytes));
  }
}

// Wakes a possibly-parked worker.  The empty lock/unlock orders this
// notify after the worker's predicate evaluation: a worker between its
// predicate check and cv.wait() holds the mutex, so acquiring it here
// guarantees the notify lands after the wait began (no lost wakeup).
void ZcBatchedBackend::wake(Worker& w) {
  {
    std::lock_guard lock(w.mu);
  }
  w.cv.notify_one();
}

ZcBatchedBackend::ZcBatchedBackend(Enclave& enclave, ZcBatchedConfig cfg)
    : enclave_(enclave), cfg_(std::move(cfg)) {
  if (cfg_.pool == FramePoolKind::kSlab) {
    slab_ = std::make_unique<SlabPool>();
    slab_->set_counters(SlabPool::Counters{
        &stats_.slab_hits, &stats_.slab_misses, &stats_.slab_grows});
  }
  flush_ns_.store(static_cast<std::uint64_t>(cfg_.flush.count()) * 1'000,
                  std::memory_order_relaxed);
  workers_.reserve(cfg_.workers);
  for (unsigned i = 0; i < cfg_.workers; ++i) {
    workers_.push_back(
        std::make_unique<Worker>(cfg_.batch, cfg_.slot_pool_bytes, cfg_.ring));
  }
}

ZcBatchedBackend::~ZcBatchedBackend() { stop(); }

void ZcBatchedBackend::start() {
  if (running_.exchange(true)) return;
  for (auto& w : workers_) {
    w->cmd.store(WorkerCmd::kRun, std::memory_order_release);
    w->thread = std::jthread([this, worker = w.get()] { worker_main(*worker); });
  }
  if (cfg_.flush_policy == BatchFlushPolicy::kFeedback) {
    controller_ =
        std::jthread([this](std::stop_token st) { controller_main(st); });
  }
  active_count_.store(static_cast<unsigned>(workers_.size()),
                      std::memory_order_release);
}

void ZcBatchedBackend::stop() {
  if (!running_.exchange(false)) return;
  active_count_.store(0, std::memory_order_release);
  if (controller_.joinable()) {
    controller_.request_stop();
    controller_cv_.notify_all();
    controller_.join();
  }
  for (auto& w : workers_) {
    w->cmd.store(WorkerCmd::kExit, std::memory_order_seq_cst);
    wake(*w);
    if (w->thread.joinable()) w->thread.join();
  }
}

// Re-decides the partial-flush window once per quantum from the flush and
// call deltas observed during it.  Workers pick up the new window on their
// next sweep; pause/resume is unaffected (a draining worker flushes
// regardless of the window), so no batch is ever stranded by adaptation.
void ZcBatchedBackend::controller_main(const std::stop_token& st) {
  const std::uint64_t base_ns =
      static_cast<std::uint64_t>(cfg_.flush.count()) * 1'000;
  const std::uint64_t min_ns = base_ns / 8 > 1'000 ? base_ns / 8 : 1'000;
  const std::uint64_t max_ns = base_ns * 8;
  std::uint64_t last_flushes = stats_.batch_flushes.load();
  std::uint64_t last_calls = stats_.switchless_calls.load();
  while (!st.stop_requested()) {
    {
      // Interruptible quantum sleep: wait_for returns early (without the
      // timeout) once stop is requested; the loop condition exits then.
      std::unique_lock lock(controller_mu_);
      controller_cv_.wait_for(lock, st, cfg_.quantum, [] { return false; });
    }
    if (st.stop_requested()) break;
    const std::uint64_t flushes = stats_.batch_flushes.load();
    const std::uint64_t calls = stats_.switchless_calls.load();
    const std::uint64_t window = flush_ns_.load(std::memory_order_relaxed);
    const std::uint64_t next =
        adapt_flush_window(window, flushes - last_flushes, calls - last_calls,
                           cfg_.batch, min_ns, max_ns);
    if (flushes != last_flushes) {
      flush_decisions_.fetch_add(1, std::memory_order_relaxed);
    }
    flush_ns_.store(next, std::memory_order_relaxed);
    last_flushes = flushes;
    last_calls = calls;
  }
}

void ZcBatchedBackend::set_active_workers(unsigned m) {
  if (!running_.load(std::memory_order_relaxed)) return;
  const auto max = static_cast<unsigned>(workers_.size());
  if (m > max) m = max;
  // Publish the claim bound first so no new requests land on a worker that
  // is about to pause; workers drain already-published slots before parking.
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
    // Only an actual command transition needs the worker's attention: a
    // no-change call (scheduler probes re-applying the same count) used to
    // notify every worker anyway, turning hot-swap churn into a
    // spurious-wake storm under wait=futex.  The churn stress test pins
    // this via worker_wakeups.
    if (changed) wake(w);
  }
}

void ZcBatchedBackend::execute_regular(const CallDesc& desc) {
  if (cfg_.direction == CallDirection::kOcall) {
    execute_regular_ocall(enclave_, desc);
  } else {
    execute_regular_ecall(enclave_, desc);
  }
}

CallPath ZcBatchedBackend::fallback(const CallDesc& desc) {
  execute_regular(desc);
  const std::uint64_t elided = copies_elided_by(desc);
  if (elided != 0) stats_.copies_elided.add(elided);
  stats_.fallback_calls.add();
  return CallPath::kFallback;
}

// The caller's wait for its slot's kDone: per-slot gate normally; the
// worker's shared gate via the coalesced path under coalesce=on (so one
// flush-side notify_batch() releases every sleeper of the batch).
void ZcBatchedBackend::await_done(Worker& w, Slot& slot) {
  // A batching caller is by definition willing to wait out the flush
  // window, so once the spin budget (`spin_us=`) expires it donates its
  // quantum (wait=yield, the default) or sleeps until the flushing
  // worker's notify (wait=futex/condvar) instead of starving the worker
  // on narrow hosts.  spin_us=0 leaves the spin phase immediately.
  const GateCounters counters{&stats_.caller_yields, &stats_.caller_sleeps,
                              &stats_.caller_wakeups};
  const auto done = [](SlotState s) { return s == SlotState::kDone; };
  if (cfg_.coalesce) {
    w.gate.await_coalesced(slot.state, done, cfg_.wait, cfg_.spin, counters);
  } else {
    slot.gate.await(slot.state, done, cfg_.wait, cfg_.spin, counters);
  }
}

bool ZcBatchedBackend::try_invoke_switchless(const CallDesc& desc) {
  if (!running_.load(std::memory_order_relaxed)) return false;

  const unsigned m = active_count_.load(std::memory_order_acquire);
  if (m == 0) return false;

  if (cfg_.ring) return try_invoke_ring(desc, m);

  // Claim a free slot on an active worker, starting from a rotating index
  // so concurrent callers spread across buffers.  No free slot anywhere:
  // immediate refusal, as in plain ZC (§IV-C) — the caller decides what a
  // refusal means (invoke() falls back; a steal probe tries elsewhere).
  Slot* slot = nullptr;
  Worker* worker = nullptr;
  const std::uint64_t first = ticket_.fetch_add(1, std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < m && slot == nullptr; ++i) {
    Worker& candidate = *workers_[(first + i) % m];
    for (auto& s : candidate.slots) {
      SlotState expected = SlotState::kEmpty;
      if (s->state.compare_exchange_strong(expected, SlotState::kClaimed,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed)) {
        slot = s.get();
        worker = &candidate;
        break;
      }
    }
  }
  if (slot == nullptr) return false;

  void* mem = nullptr;
  if (slab_ != nullptr) {
    // Shared slab: per-frame blocks, freed on collection — no per-claim
    // reset and no size cliff (the slab never refuses).
    mem = slab_->allocate(frame_bytes(desc));
  } else {
    slot->pool.reset();  // single-request pool: fresh for every claim
    mem = slot->pool.allocate(frame_bytes(desc), 64);
  }
  if (mem == nullptr) {
    // Request larger than the slot pool: cannot go switchless.
    slot->state.store(SlotState::kEmpty, std::memory_order_release);
    return false;
  }

  // The gauge covers publish through collection: the per-layer load
  // signal the sharded router's load-aware selectors read.
  stats_.in_flight.add();
  MarshalledCall call = marshal_into(mem, desc);
  slot->frame = mem;
  slot->publish_ns.store(wall_ns(), std::memory_order_relaxed);
  // seq_cst publish pairs with the worker's seq_cst park/sweep sequence:
  // either the caller observes parked==true and notifies, or the worker's
  // pre-sleep sweep observes this PENDING slot.  Plain release/acquire
  // would allow both sides to miss each other (sleep-with-pending).
  slot->state.store(SlotState::kPending, std::memory_order_seq_cst);
  if (worker->parked.load(std::memory_order_seq_cst)) wake(*worker);

  await_done(*worker, *slot);
  unmarshal_from(call, desc);
  slot->state.store(SlotState::kEmpty, std::memory_order_release);
  if (slab_ != nullptr) slab_->free(mem);
  const std::uint64_t elided = copies_elided_by(desc);
  if (elided != 0) stats_.copies_elided.add(elided);
  stats_.in_flight.sub();
  stats_.switchless_calls.add();
  return true;
}

// Ring-mode submit: one CAS on a ring tail claims a cell; no slot-table
// scan, no shared lock.  The claim order doubles as the flush order, so
// the worker's oldest-pending lookup is the ring front.
bool ZcBatchedBackend::try_invoke_ring(const CallDesc& desc, unsigned m) {
  Slot* slot = nullptr;
  Worker* worker = nullptr;
  std::uint64_t ticket = 0;
  const std::uint64_t first = ticket_.fetch_add(1, std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < m && slot == nullptr; ++i) {
    Worker& candidate = *workers_[(first + i) % m];
    slot = candidate.ring->try_claim(ticket);
    if (slot != nullptr) worker = &candidate;
  }
  if (slot == nullptr) return false;

  void* mem = nullptr;
  if (slab_ != nullptr) {
    mem = slab_->allocate(frame_bytes(desc));
  } else {
    slot->pool.reset();  // single-request pool: fresh for every claim
    mem = slot->pool.allocate(frame_bytes(desc), 64);
  }
  if (mem == nullptr) {
    // Request larger than the slot pool: cannot go switchless.  A claimed
    // ring cell cannot be un-claimed, so retire it empty: publish +
    // recycle moves the cell's seq past this ticket and the consumer
    // skips it without ever seeing a kPending state.
    slot->state.store(SlotState::kEmpty, std::memory_order_release);
    worker->ring->publish(ticket);
    worker->ring->recycle(ticket);
    return false;
  }

  stats_.in_flight.add();
  MarshalledCall call = marshal_into(mem, desc);
  slot->frame = mem;
  slot->publish_ns.store(wall_ns(), std::memory_order_relaxed);
  // State before seq: once publish() lands, the worker may act on the
  // slot, and the seq_cst publish pairs with the worker's seq_cst
  // park/sweep sequence exactly like the table path's kPending store.
  slot->state.store(SlotState::kPending, std::memory_order_seq_cst);
  worker->ring->publish(ticket);
  if (worker->parked.load(std::memory_order_seq_cst)) wake(*worker);

  // stop() race: if the backend stopped between our running_ check and
  // the publish, the exiting worker's final straggler drain may have
  // already passed this cell.  Serve our own slot; the PENDING ->
  // EXECUTING CAS arbitrates against the drain, so the call runs exactly
  // once either way.
  if (!running_.load(std::memory_order_seq_cst)) {
    SlotState expected = SlotState::kPending;
    if (slot->state.compare_exchange_strong(expected, SlotState::kExecuting,
                                            std::memory_order_seq_cst)) {
      dispatch_slot(*slot);
      slot->state.store(SlotState::kDone, std::memory_order_seq_cst);
    }
  }

  await_done(*worker, *slot);
  unmarshal_from(call, desc);
  slot->state.store(SlotState::kEmpty, std::memory_order_release);
  worker->ring->recycle(ticket);
  if (slab_ != nullptr) slab_->free(mem);
  const std::uint64_t elided = copies_elided_by(desc);
  if (elided != 0) stats_.copies_elided.add(elided);
  stats_.in_flight.sub();
  stats_.switchless_calls.add();
  return true;
}

CallPath ZcBatchedBackend::invoke(const CallDesc& desc) {
  if (!running_.load(std::memory_order_relaxed)) {
    execute_regular(desc);
    const std::uint64_t elided = copies_elided_by(desc);
    if (elided != 0) stats_.copies_elided.add(elided);
    stats_.regular_calls.add();
    return CallPath::kRegular;
  }
  if (try_invoke_switchless(desc)) return CallPath::kSwitchless;
  return fallback(desc);
}

void ZcBatchedBackend::dispatch_slot(Slot& slot) {
  const OcallTable& table = cfg_.direction == CallDirection::kOcall
                                ? enclave_.ocalls()
                                : enclave_.ecalls();
  auto* header = static_cast<FrameHeader*>(slot.frame);
  MarshalledCall call = frame_view(slot.frame);
  table.dispatch(header->fn_id, call);
}

ZcBatchedBackend::FlushCause ZcBatchedBackend::flush_cause(
    const Sweep& sweep, WorkerCmd cmd, std::uint64_t flush_ns,
    bool eager) const noexcept {
  if (sweep.pending == 0) return FlushCause::kNone;
  if (sweep.pending >= cfg_.batch) return FlushCause::kFull;
  // A leaving worker drains; it never strands a caller.
  if (cmd != WorkerCmd::kRun) return FlushCause::kCommand;
  if (eager && !sweep.claimed) return FlushCause::kEager;
  if (wall_ns() - sweep.oldest_ns >= flush_ns) return FlushCause::kWindow;
  return FlushCause::kNone;
}

unsigned ZcBatchedBackend::flush(Worker& w) {
  unsigned completed = 0;
  for (auto& s : w.slots) {
    if (s->state.load(std::memory_order_acquire) != SlotState::kPending) {
      continue;
    }
    dispatch_slot(*s);
    s->state.store(SlotState::kDone, std::memory_order_release);
    ++completed;
    // Sleeping wait policies need the hand-off notify; yield/spin callers
    // poll, so the default flush path stays fence-free.  Under coalesce=
    // the per-slot notify is deferred to one broadcast below.
    if (!cfg_.coalesce && gate_can_sleep(cfg_.wait)) s->gate.notify(s->state);
  }
  if (cfg_.coalesce && completed > 0 && gate_can_sleep(cfg_.wait)) {
    w.gate.notify_batch();
    stats_.wake_batches.add();
  }
  stats_.batch_flushes.add();
  return completed;
}

// Ring-mode flush: serve the published run from the ring front.  The
// PENDING -> EXECUTING CAS arbitrates against stop-racing callers serving
// their own slot (its failure means the occupant is no longer ours: a
// self-served or retired-empty cell — drop it from the claim order).
unsigned ZcBatchedBackend::flush_ring(Worker& w) {
  unsigned completed = 0;
  const std::size_t cap = w.ring->capacity();
  for (std::size_t n = 0; n < cap; ++n) {
    std::uint64_t ticket = 0;
    Slot* s = w.ring->front(ticket);
    if (s == nullptr) break;
    SlotState expected = SlotState::kPending;
    if (!s->state.compare_exchange_strong(expected, SlotState::kExecuting,
                                          std::memory_order_seq_cst)) {
      w.ring->pop();
      continue;
    }
    w.ring->pop();
    dispatch_slot(*s);
    s->state.store(SlotState::kDone, std::memory_order_release);
    ++completed;
    if (!cfg_.coalesce && gate_can_sleep(cfg_.wait)) s->gate.notify(s->state);
  }
  // A pass that only dropped cells already served out of band (by the
  // straggler sweep or a stop-racing caller) is not a flush.
  if (completed == 0) return 0;
  if (cfg_.coalesce && gate_can_sleep(cfg_.wait)) {
    w.gate.notify_batch();
    stats_.wake_batches.add();
  }
  stats_.batch_flushes.add();
  return completed;
}

// Cold-path ring flush that serves publishes *out of claim order*: a gap
// at the ring front (a producer still marshalling) must not block a
// pausing/exiting worker from draining later published entries.  The gap
// cells themselves resolve through their producers (publish, then either
// a parked-wake or the stop-race self-serve).
void ZcBatchedBackend::flush_ring_stragglers(Worker& w) {
  unsigned completed = 0;
  for (std::size_t i = 0; i < w.ring->capacity(); ++i) {
    std::uint64_t ticket = 0;
    Slot* s = w.ring->published_at(i, ticket);
    if (s == nullptr) continue;
    SlotState expected = SlotState::kPending;
    if (!s->state.compare_exchange_strong(expected, SlotState::kExecuting,
                                          std::memory_order_seq_cst)) {
      continue;  // self-served or retired empty; front() will skip it
    }
    dispatch_slot(*s);
    s->state.store(SlotState::kDone, std::memory_order_release);
    ++completed;
    if (!cfg_.coalesce && gate_can_sleep(cfg_.wait)) s->gate.notify(s->state);
  }
  if (completed == 0) return;
  if (cfg_.coalesce && gate_can_sleep(cfg_.wait)) {
    w.gate.notify_batch();
    stats_.wake_batches.add();
  }
  stats_.batch_flushes.add();
}

void ZcBatchedBackend::worker_main(Worker& w) {
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
  // A flush that just woke its whole batch (coalesced or not) left the
  // released callers runnable and the buffer empty; on a narrow host the
  // worker's poll loop would burn the rest of its timeslice racing the
  // very threads that must run before anything new can be published.
  // Donate the CPU once, immediately, instead of waiting for the 1024-
  // iteration courtesy yield below.
  bool just_flushed = false;
  // Learned eager flush (see the header comment): off until a window
  // flush serves a lone call.  Worker-local, so no sharing and no option.
  bool eager = false;
  // Flushes when the sweep calls for it; true when it did.
  const auto flush_if_due = [&](const Sweep& sweep, WorkerCmd cmd,
                                std::uint64_t flush_ns) {
    const FlushCause cause = flush_cause(sweep, cmd, flush_ns, eager);
    if (cause == FlushCause::kNone) return false;
    const unsigned served = cfg_.ring ? flush_ring(w) : flush(w);
    if (cause == FlushCause::kWindow && served == 1) eager = true;
    just_flushed = true;
    return true;
  };
  for (;;) {
    const WorkerCmd cmd = w.cmd.load(std::memory_order_acquire);
    // Re-read per sweep: under flush=feedback the controller retunes the
    // window while workers run (fixed at cfg_.flush under the timer).
    const std::uint64_t flush_ns = flush_ns_.load(std::memory_order_relaxed);

    if (cfg_.ring) {
      std::uint64_t front_ticket = 0;
      Slot* front = w.ring->front(front_ticket);
      if (front == nullptr && just_flushed && cmd == WorkerCmd::kRun) {
        just_flushed = false;
        std::this_thread::yield();
        continue;
      }
      if (front != nullptr) {
        // O(1) oldest lookup: claim order is flush order.  A claimed cell
        // past the published run is a producer mid-claim (or a gap that
        // the straggler sweep resolves); either way, not eager-flushable.
        Sweep sweep;
        sweep.pending = w.ring->published_run();
        sweep.claimed = w.ring->tail() - w.ring->head() != sweep.pending;
        sweep.oldest_ns = front->publish_ns.load(std::memory_order_relaxed);
        if (flush_if_due(sweep, cmd, flush_ns)) continue;
      } else if (cmd == WorkerCmd::kExit) {
        // The seq_cst flag read orders this final drain after every
        // publish whose producer still observed the backend running
        // (producers that observe the stop serve their own slot), so no
        // published entry can be stranded behind the exit.
        (void)running_.load(std::memory_order_seq_cst);
        flush_ring_stragglers(w);
        break;
      } else if (cmd == WorkerCmd::kPause) {
        if (w.ring->any_published()) {
          // Drain before parking — out of claim order, so a gap at the
          // ring front (a producer mid-marshal) cannot stall the pause.
          flush_ring_stragglers(w);
          continue;
        }
        park([&] {
          // Paused workers still wake to serve publishes, so a call
          // landing on a parked worker's ring is never stranded.
          return w.cmd.load(std::memory_order_acquire) != WorkerCmd::kPause ||
                 w.ring->any_published();
        });
        continue;
      } else if ((iterations & 0x3FF) == 0x3FF && w.ring->any_published()) {
        // Publish-order gap while running (front unpublished, later
        // entries published — a producer preempted mid-marshal): serve
        // the stragglers out of order occasionally so their callers are
        // never held hostage by an unrelated slow marshal.
        flush_ring_stragglers(w);
        continue;
      }
    } else {
      Sweep sweep;
      sweep.oldest_ns = ~std::uint64_t{0};
      for (const auto& s : w.slots) {
        const SlotState state = s->state.load(std::memory_order_seq_cst);
        if (state == SlotState::kClaimed) {
          sweep.claimed = true;
        } else if (state == SlotState::kPending) {
          ++sweep.pending;
          const std::uint64_t t =
              s->publish_ns.load(std::memory_order_relaxed);
          if (t < sweep.oldest_ns) sweep.oldest_ns = t;
        }
      }

      if (sweep.pending > 0) {
        if (flush_if_due(sweep, cmd, flush_ns)) continue;
      } else {
        if (just_flushed && cmd == WorkerCmd::kRun) {
          just_flushed = false;
          std::this_thread::yield();
          continue;
        }
        if (cmd == WorkerCmd::kExit) break;
        if (cmd == WorkerCmd::kPause) {
          park([&] {
            if (w.cmd.load(std::memory_order_acquire) != WorkerCmd::kPause) {
              return true;
            }
            for (const auto& s : w.slots) {
              if (s->state.load(std::memory_order_seq_cst) ==
                  SlotState::kPending) {
                return true;
              }
            }
            return false;
          });
          continue;
        }
      }
    }

    cpu_pause();
    // Same narrow-host courtesy as the caller: an idle (or timer-waiting)
    // batch worker yields periodically so publishers can actually run.
    if ((++iterations & 0x3FF) == 0) std::this_thread::yield();
    if (cfg_.meter != nullptr && (iterations & 0x3FFF) == 0) {
      cfg_.meter->checkpoint(meter_slot);
    }
  }

  if (cfg_.meter != nullptr) cfg_.meter->unregister_current_thread(meter_slot);
}

std::unique_ptr<ZcBatchedBackend> make_zc_batched_backend(Enclave& enclave,
                                                          ZcBatchedConfig cfg) {
  return std::make_unique<ZcBatchedBackend>(enclave, std::move(cfg));
}

}  // namespace zc
