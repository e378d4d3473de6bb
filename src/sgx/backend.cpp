#include "sgx/backend.hpp"

namespace zc {

const char* to_string(CallPath path) noexcept {
  switch (path) {
    case CallPath::kRegular:
      return "regular";
    case CallPath::kSwitchless:
      return "switchless";
    case CallPath::kFallback:
      return "fallback";
  }
  return "?";
}

const char* to_string(CallDirection direction) noexcept {
  switch (direction) {
    case CallDirection::kOcall:
      return "ocall";
    case CallDirection::kEcall:
      return "ecall";
  }
  return "?";
}

const char* to_string(FramePoolKind pool) noexcept {
  switch (pool) {
    case FramePoolKind::kBump:
      return "bump";
    case FramePoolKind::kSlab:
      return "slab";
  }
  return "?";
}

const char* to_string(CopyMode mode) noexcept {
  switch (mode) {
    case CopyMode::kDouble:
      return "double";
    case CopyMode::kSingle:
      return "single";
  }
  return "?";
}

BackendStatsSnapshot BackendStats::snapshot() const noexcept {
  BackendStatsSnapshot s;
  s.regular_calls = regular_calls.load();
  s.switchless_calls = switchless_calls.load();
  s.fallback_calls = fallback_calls.load();
  s.fallback_no_worker = fallback_no_worker.load();
  s.fallback_busy = fallback_busy.load();
  s.fallback_oversize = fallback_oversize.load();
  s.pool_resets = pool_resets.load();
  s.worker_sleeps = worker_sleeps.load();
  s.worker_wakeups = worker_wakeups.load();
  s.batch_flushes = batch_flushes.load();
  s.caller_yields = caller_yields.load();
  s.caller_sleeps = caller_sleeps.load();
  s.caller_wakeups = caller_wakeups.load();
  s.wake_batches = wake_batches.load();
  s.slab_hits = slab_hits.load();
  s.slab_misses = slab_misses.load();
  s.slab_grows = slab_grows.load();
  s.copies_elided = copies_elided.load();
  s.in_flight = in_flight.level();
  return s;
}

BackendStatsSnapshot& BackendStatsSnapshot::merge(
    const BackendStatsSnapshot& other) noexcept {
  regular_calls += other.regular_calls;
  switchless_calls += other.switchless_calls;
  fallback_calls += other.fallback_calls;
  fallback_no_worker += other.fallback_no_worker;
  fallback_busy += other.fallback_busy;
  fallback_oversize += other.fallback_oversize;
  pool_resets += other.pool_resets;
  worker_sleeps += other.worker_sleeps;
  worker_wakeups += other.worker_wakeups;
  batch_flushes += other.batch_flushes;
  caller_yields += other.caller_yields;
  caller_sleeps += other.caller_sleeps;
  caller_wakeups += other.caller_wakeups;
  wake_batches += other.wake_batches;
  slab_hits += other.slab_hits;
  slab_misses += other.slab_misses;
  slab_grows += other.slab_grows;
  copies_elided += other.copies_elided;
  in_flight += other.in_flight;
  return *this;
}

}  // namespace zc
