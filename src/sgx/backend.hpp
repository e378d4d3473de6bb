// Call-backend abstraction.
//
// Every evaluation in the paper compares three ways of executing the same
// ocalls: regular transitions (`no_sl`), Intel's static switchless library
// (`i-*`), and ZC-Switchless (`zc`).  A CallBackend encapsulates one of
// these policies behind a single `invoke` entry point so applications and
// benches are mode-agnostic.
#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "sgx/marshal.hpp"

namespace zc {

class Enclave;

/// Which way a switchless backend crosses the enclave boundary: serving
/// ocalls with untrusted workers, or ecalls with trusted in-enclave
/// workers (§II: the technique applies symmetrically).
enum class CallDirection : std::uint8_t {
  kOcall,  ///< enclave caller -> untrusted worker
  kEcall,  ///< untrusted caller -> trusted worker
};

/// How one specific call ended up being executed.
enum class CallPath : std::uint8_t {
  kRegular,     ///< normal ocall: paid a full enclave transition
  kSwitchless,  ///< served by a worker thread, no transition
  kFallback,    ///< wanted switchless, fell back to a regular ocall
};

/// Which allocator backs a switchless backend's untrusted call frames
/// (`pool=` spec option).
enum class FramePoolKind : std::uint8_t {
  kBump,  ///< per-worker/per-slot bump pools, whole-pool reset on full
  kSlab,  ///< shared size-classed SlabPool, per-frame free, no size cliff
};

/// How payload bytes cross the trusted staging boundary (`copy=` option).
enum class CopyMode : std::uint8_t {
  kDouble,  ///< classic edger8r scheme: stage through trusted buffers
  kSingle,  ///< callers produce/consume payloads in the untrusted frame
};

const char* to_string(CallPath path) noexcept;
const char* to_string(CallDirection direction) noexcept;
const char* to_string(FramePoolKind pool) noexcept;
const char* to_string(CopyMode mode) noexcept;

struct BackendStatsSnapshot;

/// Why a switchless plane refused a call (kNone: it took the call).
enum class Refusal : std::uint8_t {
  kNone,
  kNoWorker,  ///< no active worker (scheduler: m=0), or stopped
  kBusy,      ///< every active worker (slotted: every active range) was busy
  kOversize,  ///< frame larger than the worker or slot pool
};

/// Counters shared by all backends (padded; updated from many threads).
struct BackendStats {
  PaddedCounter regular_calls;     ///< calls that took the regular path
  PaddedCounter switchless_calls;  ///< calls served by a worker
  PaddedCounter fallback_calls;    ///< switchless attempts that fell back
  // Why a zc or slotted-plane call fell back (the other planes leave these
  // at 0); there the three add up to fallback_calls (count_fallback).
  PaddedCounter fallback_no_worker;  ///< no active worker (scheduler: m=0)
  PaddedCounter fallback_busy;       ///< every active worker was busy
  PaddedCounter fallback_oversize;   ///< frame larger than the worker pool
  PaddedCounter pool_resets;       ///< worker request-pool reallocations
  PaddedCounter worker_sleeps;     ///< workers that went to sleep (rbs)
  PaddedCounter worker_wakeups;    ///< sleeping workers woken by a caller
  PaddedCounter batch_flushes;     ///< slotted-plane range flushes
  PaddedCounter caller_yields;     ///< yields by callers whose spin expired
                                   ///< (one per yield, not one per call)
  PaddedCounter caller_sleeps;     ///< blocked callers that went to sleep
                                   ///< (CompletionGate futex/condvar wait)
  PaddedCounter caller_wakeups;    ///< sleeping callers woken by a worker
  PaddedCounter wake_batches;      ///< always 0: no plane coalesces wakes
                                   ///< any more; kept because the call-
                                   ///< plane benchmark's schema reads it
  PaddedCounter slab_hits;         ///< slab-pool frame allocs served from a
                                   ///< thread-local magazine or central list
  PaddedCounter slab_misses;       ///< slab-pool allocs that had to carve a
                                   ///< fresh block (cold class)
  PaddedCounter slab_grows;        ///< slab-pool slab extensions (one per
                                   ///< multi-block growth of a size class)
  PaddedCounter copies_elided;     ///< payload copies skipped by copy=single
                                   ///< (handler consumed/produced in place)
  /// Calls currently occupying one of this backend's workers (claimed
  /// through collected): a level, not a total, so read it with level().
  /// Striped like every counter, so the claim and release of a call write
  /// only their own threads' cells.
  PaddedCounter in_flight;

  std::uint64_t total_calls() const noexcept {
    return regular_calls.load() + switchless_calls.load() +
           fallback_calls.load();
  }

  /// Counts one fallback and its reason (`why` != kNone).
  void count_fallback(Refusal why) noexcept {
    PaddedCounter& reason = why == Refusal::kBusy       ? fallback_busy
                            : why == Refusal::kOversize ? fallback_oversize
                                                        : fallback_no_worker;
    reason.add();
    fallback_calls.add();
  }

  /// Point-in-time copy of every counter (plain integers, mergeable).
  BackendStatsSnapshot snapshot() const noexcept;
};

/// A plain-integer copy of BackendStats, taken at one instant.  Snapshots
/// merge field-wise, so a run's deltas can be summed across workloads or
/// phases.
struct BackendStatsSnapshot {
  std::uint64_t regular_calls = 0;
  std::uint64_t switchless_calls = 0;
  std::uint64_t fallback_calls = 0;
  std::uint64_t fallback_no_worker = 0;
  std::uint64_t fallback_busy = 0;
  std::uint64_t fallback_oversize = 0;
  std::uint64_t pool_resets = 0;
  std::uint64_t worker_sleeps = 0;
  std::uint64_t worker_wakeups = 0;
  std::uint64_t batch_flushes = 0;
  std::uint64_t caller_yields = 0;
  std::uint64_t caller_sleeps = 0;
  std::uint64_t caller_wakeups = 0;
  std::uint64_t wake_batches = 0;
  std::uint64_t slab_hits = 0;
  std::uint64_t slab_misses = 0;
  std::uint64_t slab_grows = 0;
  std::uint64_t copies_elided = 0;
  std::uint64_t in_flight = 0;

  std::uint64_t total_calls() const noexcept {
    return regular_calls + switchless_calls + fallback_calls;
  }

  /// Field-wise sum; returns *this for chaining.
  BackendStatsSnapshot& merge(const BackendStatsSnapshot& other) noexcept;
};

class CallBackend {
 public:
  virtual ~CallBackend() = default;

  /// Starts worker/scheduler threads (idempotent for workerless backends).
  virtual void start() {}

  /// Stops and joins all threads owned by the backend.
  virtual void stop() {}

  /// Executes one ocall described by `desc` on behalf of the calling
  /// (simulated) enclave thread.  Blocking; returns after results have been
  /// unmarshalled back into trusted memory.
  virtual CallPath invoke(const CallDesc& desc) = 0;

  virtual const char* name() const noexcept = 0;

  /// Lifetime counters.  Live: callers may cache the reference and read
  /// deltas across a run, so implementations must update these counters as
  /// calls complete (not lazily on read).
  const BackendStats& stats() const noexcept { return stats_; }

  /// Point-in-time counter copy.  Plain backends snapshot stats(); a
  /// wrapping backend (the record: tap) reports the backend it wraps.
  virtual BackendStatsSnapshot stats_snapshot() const {
    return stats_.snapshot();
  }

  /// The payload copy discipline this backend was built with (`copy=`).
  /// Apps and benches query it to pick the staging (kDouble) or in-place
  /// (kSingle) CallDesc form; see marshal.hpp.
  virtual CopyMode copy_mode() const noexcept { return CopyMode::kDouble; }

  /// Number of workers currently allowed to serve calls (0 for regular).
  virtual unsigned active_workers() const noexcept { return 0; }

  /// Applies a worker count (tests / scheduler-off ablations).  No-op for
  /// workerless backends; a wrapping backend forwards it.
  virtual void set_active_workers(unsigned m) { (void)m; }

 protected:
  BackendStats stats_;
};

}  // namespace zc
