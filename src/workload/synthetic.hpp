// Synthetic micro-workload of §III-A (used by Figs. 2 and 3).
//
// Two ocall routines:
//   f — empty function (`void f(void){}`), the ideal switchless candidate;
//   g — busy-wait loop of k `asm("pause")` instructions, the routine that
//       should run as a regular ocall.
// The benchmark issues n ocalls with α calls to f and β to g, α = 3β.
//
// Each routine is registered under *two* ids mapping to the same handler so
// that configuration C3 ("half of the f and g calls switchless") can be
// expressed with Intel's static per-id selection: the driver routes half of
// the calls to the id inside the switchless set and half to the id outside.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sgx/enclave.hpp"
#include "sgx/ocall_table.hpp"

namespace zc::workload {

struct SyntheticOcalls {
  std::uint32_t f_a = 0;  ///< f, primary id
  std::uint32_t f_b = 0;  ///< f, alias id (outside the switchless set in C3)
  std::uint32_t g_a = 0;  ///< g, primary id
  std::uint32_t g_b = 0;  ///< g, alias id
};

struct FArgs {
  std::uint32_t unused = 0;
};

struct GArgs {
  std::uint64_t pauses = 0;  ///< busy-wait length in pause instructions
};

/// Registers f and g (each twice) into `table`.
SyntheticOcalls register_synthetic_ocalls(OcallTable& table);

/// The five build-time configurations evaluated in §III-A.
enum class SynthConfig {
  kC1,  ///< f switchless, g regular (expected best)
  kC2,  ///< f regular, g switchless (expected worst)
  kC3,  ///< half of f and half of g switchless
  kC4,  ///< everything switchless
  kC5,  ///< everything regular
};

const char* to_string(SynthConfig c) noexcept;

/// Ids an Intel backend must declare switchless to realise `config`.
std::vector<std::uint32_t> intel_switchless_set(SynthConfig config,
                                                const SyntheticOcalls& ids);

/// Registry spec string for an Intel backend realising `config` with
/// `workers` worker threads, e.g. "intel:sl=f,f#alias;workers=2" for C1
/// (the switchless set carried by registration name; see
/// core/backend_registry.hpp).
std::string intel_mode_spec(SynthConfig config, unsigned workers);

/// How g-call durations are distributed across the caller threads.
/// kUniform is the paper's homogeneous mix; kZipf gives caller t a
/// zipf-ranked duration weight (thread 0 heaviest), producing a skewed,
/// bursty many-caller mix in which one caller's long calls keep a worker
/// busy while the others' short calls compete for the rest.
enum class CallerSkew : std::uint8_t {
  kUniform,
  kZipf,
};

const char* to_string(CallerSkew skew) noexcept;

/// The zipf duration weight applied to caller `thread` of `threads` under
/// CallerSkew::kZipf: g_pauses is scaled by threads/(thread+1), so thread
/// 0 busy-waits `threads`x longer than the base and the tail approaches
/// the uniform duration.  Exposed for tests and JSONL row documentation.
std::uint64_t zipf_g_pauses(std::uint64_t g_pauses, unsigned thread,
                            unsigned threads) noexcept;

/// The rank each caller thread holds under CallerSkew::kZipf: a
/// Fisher–Yates permutation of 0..threads-1 drawn from mt19937_64(seed),
/// so *which* thread is the heavy caller is a seeded choice instead of
/// always thread 0 (anything keyed on the caller, such as the slotted
/// plane's per-thread home ranges, would otherwise see the same lopsided
/// placement every run).  `seed` is the resolved, nonzero
/// effective seed; the same seed always yields the same placement.
std::vector<unsigned> zipf_rank_permutation(unsigned threads,
                                            std::uint64_t seed);

struct SyntheticRunConfig {
  std::uint64_t total_calls = 100'000;  ///< n = α + β with α = 3β
  unsigned enclave_threads = 8;         ///< paper: 8 in-enclave threads
  std::uint64_t g_pauses = 10;          ///< duration of g in pauses
  CallerSkew skew = CallerSkew::kUniform;  ///< per-caller duration skew
  SynthConfig config = SynthConfig::kC1;
  /// In-flight calls per caller thread.  > 1 drives the installed
  /// backend's async plane (submit + windowed wait); requires a
  /// slotted-plane backend (`zc_async:` or `zc_batched:`), otherwise the
  /// run degrades to the synchronous path — drivers check
  /// workload::async_plane() first.
  unsigned pipeline = 1;
  /// Seed for the run's randomized choices (today: the zipf rank
  /// permutation).  0 — the default — draws a fresh seed per run; the
  /// effective value lands in SyntheticResult::seed either way, so a
  /// skewed run can always be reproduced from its JSONL row.
  std::uint64_t seed = 0;
};

struct SyntheticResult {
  double seconds = 0;              ///< wall time for all calls
  std::uint64_t f_calls = 0;
  std::uint64_t g_calls = 0;
  std::uint64_t switchless = 0;    ///< backend counter delta
  std::uint64_t fallbacks = 0;
  std::uint64_t regular = 0;
  std::uint64_t seed = 0;          ///< effective seed (never 0)
};

/// Runs the synthetic benchmark against the enclave's installed backend.
/// Threads issue calls in the repeating pattern f,f,f,g (α = 3β).  In C3,
/// odd-numbered f/g calls use the alias ids.
SyntheticResult run_synthetic(Enclave& enclave, const SyntheticOcalls& ids,
                              const SyntheticRunConfig& run);

}  // namespace zc::workload
