// Configuration of ZC-Switchless (paper §IV).
//
// Note what is *not* here: no list of switchless routines (every ocall is a
// candidate, §IV-C) and no fixed worker count (the scheduler adapts it at
// run time, §IV-A).  The constants below are the paper's own empirical
// choices, kept as knobs only for the ablation benches.
#pragma once

#include <chrono>
#include <cstddef>

#include "common/completion_gate.hpp"
#include "common/cpu_meter.hpp"
#include "sgx/backend.hpp"

namespace zc {

struct ZcConfig {
  /// Scheduler quantum Q ("set empirically to 10 ms").
  std::chrono::microseconds quantum{10'000};

  /// Micro-quantum factor µ ("we empirically set µ = 1/100"): each probe of
  /// the configuration phase lasts µ·Q.
  double mu = 0.01;

  /// Upper bound on worker threads. 0 means logical_cpus / 2, the paper's
  /// range (the scheduler decides among 0..N/2 inclusive).
  unsigned max_workers = 0;

  /// Workers active before the first configuration phase. The paper's
  /// benchmarks start at logical_cpus / 2 (0 keeps that default).
  unsigned initial_workers_plus_one = 0;  ///< 0 = default, else value-1

  /// Per-worker preallocated untrusted request pool (§IV-B). Small enough
  /// that realistic workloads occasionally exhaust it and pay the
  /// reset-via-ocall (the latency spikes discussed under Fig. 8).
  std::size_t worker_pool_bytes = std::size_t{1} << 20;

  /// Caller-side wait policy while a worker executes the request: spin
  /// (`pause`) for at most this budget, then yield between result polls
  /// (every yield bumps BackendStats::caller_yields).  The paper's design
  /// spins for the whole wait — on a machine with a core per busy-waiting
  /// thread the budget never expires and behaviour is identical — but on
  /// narrower hosts an unbounded spin burns whole scheduler timeslices
  /// per hand-off (the same pragmatism as ZcBatchedConfig::spin).
  std::chrono::microseconds spin{50};

  /// What the caller does once the spin budget expires (CompletionGate):
  /// kYield keeps the historical spin-then-yield loop; kFutex/kCondvar put
  /// the blocked caller to sleep until the worker publishes completion
  /// (counted in BackendStats::caller_sleeps/caller_wakeups); kSpin never
  /// stops spinning (the hotcalls-style ablation baseline).
  GateWaitPolicy wait = GateWaitPolicy::kYield;

  /// Which allocator backs the untrusted call frames (`pool=` option).
  /// kBump is the paper's per-worker bump pool: frames above
  /// worker_pool_bytes always fall back to regular calls.  kSlab routes
  /// frames through a shared size-classed SlabPool (per-frame free,
  /// thread-local magazines), removing the large-payload cliff.
  FramePoolKind pool = FramePoolKind::kBump;

  /// Payload copy discipline advertised to callers (`copy=` option).
  /// kSingle lets apps build/consume payloads directly in the untrusted
  /// frame (CallDesc producers/consumers, marshal.hpp) against handlers
  /// registered in_place_capable.
  CopyMode copy = CopyMode::kDouble;

  /// Disable the feedback scheduler and keep `initial workers` forever
  /// (ablation: isolates the call path from the adaptation policy).
  bool scheduler_enabled = true;

  /// Optional CPU accounting for worker + scheduler threads.
  CpuUsageMeter* meter = nullptr;

  /// Boundary direction: untrusted workers serving ocalls (default) or
  /// trusted workers serving ecalls.
  CallDirection direction = CallDirection::kOcall;

  unsigned resolved_max_workers(unsigned logical_cpus) const noexcept {
    return max_workers != 0 ? max_workers
                            : (logical_cpus / 2 == 0 ? 1 : logical_cpus / 2);
  }

  unsigned resolved_initial_workers(unsigned logical_cpus) const noexcept {
    const unsigned max = resolved_max_workers(logical_cpus);
    if (initial_workers_plus_one == 0) return max;
    const unsigned w = initial_workers_plus_one - 1;
    return w > max ? max : w;
  }

  /// Sets an explicit initial worker count (0 is a valid choice).
  ZcConfig& with_initial_workers(unsigned w) noexcept {
    initial_workers_plus_one = w + 1;
    return *this;
  }
};

}  // namespace zc
