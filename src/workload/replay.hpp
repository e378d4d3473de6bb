// Trace replay: the Simulator-run-loop half of the record/replay plane.
//
// A ReplayDriver takes a Trace (recorded live via the `record:` registry
// family or synthesized by workload/phased.hpp) and re-issues the same
// calls — same names, same payload sizes, same per-call work hints, same
// caller structure — against *any* backend spec in the registry, in one of
// two load shapes:
//
//   closed loop — each replay thread walks its callers' records
//     back-to-back: a call is issued only after the previous one returned.
//     This is the shape every existing bench/harness has, and it hides
//     queueing collapse by construction (offered load can never exceed
//     completion rate).
//   open loop — calls are released on the trace's *virtual-time* arrival
//     schedule (scaled by time_scale), whether or not earlier calls have
//     finished.  Sojourn = completion minus *scheduled* arrival, so a
//     backend that cannot keep up shows unbounded sojourn growth and
//     late-arrival counts instead of a flattering throughput number.
//     Because arrivals are multiplexed over a bounded dispatcher pool,
//     a 10k-caller trace replays on a 1-CPU host.
//
// Replay is deterministic where it matters: every call's argument block
// and [in] payload are derived from (config seed, record index) alone, the
// handler transform is pure, and the result digest is an order-independent
// sum — so the same (trace, seed) replayed against every backend spec, in
// either mode, with any thread count, must produce the same digest.  That
// turns timing-shaped workloads into the same differential-testing
// primitive the randomized equivalence suite already is.
#pragma once

#include <cstdint>
#include <string>

#include "sgx/sim_config.hpp"
#include "workload/trace.hpp"

namespace zc::workload {

enum class ReplayMode : std::uint8_t {
  kClosedLoop,
  kOpenLoop,
};

const char* to_string(ReplayMode mode) noexcept;

struct ReplayConfig {
  /// Registry spec to replay against.  Specs with direction=ecall replay
  /// the whole trace through the trusted-function plane — the recorded
  /// direction field is provenance, not a routing constraint, so one
  /// golden trace can exercise both planes.
  std::string backend_spec = "no_sl";
  ReplayMode mode = ReplayMode::kClosedLoop;
  /// Open loop: wall nanoseconds per virtual nanosecond.  0.5 replays the
  /// trace at twice its recorded rate; closed loop ignores it.
  double time_scale = 1.0;
  /// Replay threads.  0 = one per trace caller, capped at 8 (closed loop)
  /// or an 8-dispatcher pool (open loop).  Simulated callers beyond the
  /// thread count are multiplexed.
  unsigned threads = 0;
  /// Seed for the deterministic payload/args content streams.  Part of
  /// the workload identity: two replays agree on the digest iff they
  /// agree on (trace, seed).
  std::uint64_t seed = 0x5EEDull;
  /// Scales the per-record work hint (work_ns) before it is converted to
  /// in-call pause instructions; 0 replays the call mix without the
  /// in-call work.
  double work_scale = 1.0;
  /// Simulated machine for the replay enclave.
  SimConfig sim;
};

struct ReplayResult {
  // --- Deterministic fields: identical across reruns, modes, thread
  // counts and (digest/calls) across backend specs ------------------------
  std::string spec;           ///< canonical backend spec
  std::string mode;           ///< closed_loop / open_loop
  std::uint64_t seed = 0;
  double work_scale = 1.0;
  double time_scale = 1.0;
  unsigned callers = 0;       ///< distinct caller ids in the trace
  unsigned threads = 0;       ///< replay threads actually used
  std::uint64_t calls = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t trace_digest = 0;
  std::uint64_t result_digest = 0;

  // --- Wall-clock-shaped fields: vary run to run --------------------------
  double seconds = 0;
  double p50_us = 0;          ///< sojourn percentiles (see header comment)
  double p99_us = 0;
  double p999_us = 0;
  /// Open loop: calls released >100 us past their scheduled arrival, and
  /// the worst lag.  A saturated backend drives both up without bound as
  /// the dispatcher pool itself backs up.
  std::uint64_t late_calls = 0;
  double max_late_us = 0;
  /// Backend counter deltas over the replay window.
  std::uint64_t switchless = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t regular = 0;
  std::uint64_t wake_batches = 0;

  /// JSONL row with only the deterministic fields — byte-identical across
  /// replays of the same (trace, config), which is what the equivalence
  /// suite asserts.
  std::string deterministic_json() const;
  /// Full JSONL row: the deterministic fields plus the wall-clock ones.
  std::string json() const;
};

/// Replays `trace` against `cfg.backend_spec` on a fresh enclave.  Throws
/// BackendSpecError for bad specs and TraceError for an empty trace.
ReplayResult replay_trace(const Trace& trace, const ReplayConfig& cfg);

}  // namespace zc::workload
