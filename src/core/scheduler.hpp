// ZC-Switchless feedback scheduler (paper §IV-A, Fig. 5).
//
// The scheduler alternates between two phases:
//  - a *scheduling phase* of one quantum Q (10 ms) during which the chosen
//    number of workers M serves calls, and
//  - a *configuration phase* of micro-quanta of µ·Q each, probing the other
//    worker counts i in 1..N/2.
// Each phase yields one window sample: the calls N_i seen in it, the
// fallbacks F_i among them and the window's measured length t_i in cycles.
// The scheduler keeps the M' minimising the wasted cycles *per call*
//    u_i = (F_i * T_es + i * t_i) / max(N_i, 1)
// (first term: transitions paid by fallbacks; second: cycles monopolised by
// i busy-waiting workers during the window).
//
// Departure from §IV-A: the paper minimises the window total
// U_i = F_i * T_es + i * µQ, which assumes call demand does not depend on
// the worker count.  Closed-loop callers break that: fallbacks slow them
// down, so F_0 * T_es can never exceed callers * µQ, and too few workers
// look as cheap as enough.  Dividing by N_i removes the throttling; when
// demand is the same in every window the two argmins coincide.  Three
// probe-phase savings follow from the per-call form:
//  - i = 0 is never probed: every call falls back there, so u_0 = T_es
//    while calls are arriving, and 0 when none are;
//  - the incumbent M is scored from its own quantum (100x the probe window);
//  - a probe parks nobody: one below M only narrows the callers' claim
//    bound, so the idle workers above it keep spinning and resuming them
//    costs nothing.  Workers are parked only by a decision.
//
// Second departure: a probe below M that loses is skipped for the next 1,
// 2, 4, ... quanta (at most kMaxProbeSkip), until the decision changes.
// Narrowing the claim bound under a saturating load sends the calls that
// no longer fit to the fallback path; once a quantum, that lands on the
// callers' tail latency.  Probes above M are never skipped: they are what
// notices a load arriving at an idle plane.
//
// The scheduler drives any WorkerSet: the `zc` workers (one Fig. 6 buffer
// each) and the slotted plane's home ranges (zc_async, zc_batched).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <stop_token>
#include <thread>
#include <vector>

#include "common/cpu_meter.hpp"
#include "sgx/enclave.hpp"

namespace zc {

/// The workers a ZcScheduler drives, seen through the four things it uses.
class WorkerSet {
 public:
  /// Workers in the set: the most the scheduler can run.
  virtual unsigned max_workers() const noexcept = 0;
  /// Commands worker `i` to serve calls (`run`) or to drain and park.
  virtual void command_worker(unsigned i, bool run) noexcept = 0;
  /// Whether worker `i` is parked.  A resumed worker stays parked until
  /// its wake-up is scheduled.
  virtual bool worker_parked(unsigned i) const noexcept = 0;
  /// The callers' claim bound: callers use workers [0, active_count()).
  virtual std::atomic<unsigned>& active_count() noexcept = 0;

 protected:
  ~WorkerSet() = default;
};

/// What one scheduler window observed at a fixed worker count.
struct WindowSample {
  unsigned workers = 0;          ///< i: workers callers could reserve
  std::uint64_t calls = 0;       ///< N_i: switchless + fallback calls
  std::uint64_t fallbacks = 0;   ///< F_i
  std::uint64_t cycles = 0;      ///< t_i: the window's measured length
};

/// How long one probed count below the incumbent is skipped.
struct ProbeBackoff {
  unsigned skip = 0;  ///< quanta skipped after the latest loss (0: none)
  unsigned left = 0;  ///< quanta still to skip before the next probe
};

class ZcScheduler {
 public:
  /// The paper's quantum Q ("set empirically to 10 ms").
  static constexpr std::chrono::microseconds kQuantum{10'000};
  /// The paper's micro-quantum factor µ ("we empirically set µ = 1/100").
  static constexpr double kMu = 0.01;
  /// The longest skip of a losing probe below the incumbent, in quanta.
  static constexpr unsigned kMaxProbeSkip = 64;

  /// `workers` and `stats` must outlive the scheduler.  `stats` is the
  /// backend's shared counter block: the scheduler samples its switchless
  /// and fallback counters at each window boundary and uses the
  /// differences as N_i and F_i.  Each probe lasts `mu` * `quantum`;
  /// `meter`, when set, accounts the scheduler thread's CPU.
  ZcScheduler(Enclave& enclave, WorkerSet& workers, BackendStats& stats,
              CpuUsageMeter* meter = nullptr,
              std::chrono::microseconds quantum = kQuantum, double mu = kMu);
  ~ZcScheduler();

  ZcScheduler(const ZcScheduler&) = delete;
  ZcScheduler& operator=(const ZcScheduler&) = delete;

  void start();
  void stop();

  /// Applies a worker count: commands workers [0,m) to run and [m,max) to
  /// pause, and publishes `m` to the callers' claim bound.  Also used
  /// directly by tests/ablations when the feedback loop is disabled.
  void set_active(unsigned m);

  /// Opens a probe at `i` workers without parking any: publishes `i` to
  /// the callers' claim bound and resumes whichever of workers [0,i) are
  /// paused, then waits until none of them is still parked, so the window
  /// that follows measures the configuration and not wake-up latency.
  /// The wait is bounded by a tenth of the quantum.  Returns false only
  /// when `st` asks to stop.
  bool probe(unsigned i, const std::stop_token& st);
  /// Wall-clock nanoseconds spent at each worker count since start
  /// (index = worker count).  The paper reports this distribution for the
  /// OpenSSL benchmark (§V-B: "0,1,2,3,4 workers for 9.4%, 4.6%, ...").
  std::vector<std::uint64_t> occupancy_ns() const;

  /// Completed configuration phases so far.
  std::uint64_t config_phases() const noexcept {
    return config_phases_.load(std::memory_order_relaxed);
  }

  /// Worker count chosen by the most recent configuration phase.
  unsigned last_decision() const noexcept {
    return last_decision_.load(std::memory_order_relaxed);
  }

  /// The paper's window objective U_i = F_i * T_es + i * t_i (§IV-A).
  static std::uint64_t wasted_cycles(std::uint64_t fallbacks,
                                     std::uint64_t tes_cycles,
                                     unsigned workers,
                                     std::uint64_t window_cycles) noexcept {
    return fallbacks * tes_cycles +
           static_cast<std::uint64_t>(workers) * window_cycles;
  }

  /// u_i = U_i / max(N_i, 1): the cycles a window wasted per call.
  static double wasted_cycles_per_call(const WindowSample& s,
                                       std::uint64_t tes_cycles) noexcept {
    const std::uint64_t calls = s.calls == 0 ? 1 : s.calls;
    return static_cast<double>(
               wasted_cycles(s.fallbacks, tes_cycles, s.workers, s.cycles)) /
           static_cast<double>(calls);
  }

  /// The decision: the worker count with the least wasted cycles per call,
  /// fewer workers winning ties.  The candidates are the incumbent, scored
  /// from its quantum, the probed counts, and 0, which is never probed:
  /// u_0 = T_es while calls are arriving, else 0.  Whether calls are
  /// arriving is read from the probes, the freshest windows (from the
  /// incumbent's quantum when there are none): a quantum in which a burst
  /// ended still scores its workers as cheap per call.
  static unsigned choose_workers(const WindowSample& incumbent,
                                 std::span<const WindowSample> probes,
                                 std::uint64_t tes_cycles) noexcept;

  /// The probe backoff after a decision (`backoff` is indexed by worker
  /// count).  A decision that changed the count resets every entry.  One
  /// that kept the incumbent means each probe below it lost: its skip
  /// doubles (1, 2, 4, ... quanta, at most kMaxProbeSkip).  Probes above
  /// the incumbent are never skipped.
  static void update_backoff(std::span<ProbeBackoff> backoff,
                             unsigned incumbent, unsigned decision,
                             std::span<const WindowSample> probes) noexcept;

 private:
  void main(const std::stop_token& st);
  bool interruptible_sleep(std::chrono::microseconds d,
                           const std::stop_token& st);
  void publish_active(unsigned m);
  void note_occupancy_change(unsigned new_count);

  Enclave& enclave_;
  WorkerSet& workers_;
  BackendStats& stats_;
  CpuUsageMeter* const meter_;
  const std::chrono::microseconds quantum_;
  const double mu_;

  std::atomic<std::uint64_t> config_phases_{0};
  std::atomic<unsigned> last_decision_{0};

  mutable std::mutex occupancy_mu_;
  std::vector<std::uint64_t> occupancy_ns_;
  unsigned occupancy_current_ = 0;
  std::uint64_t occupancy_since_ = 0;

  std::mutex sleep_mu_;
  std::condition_variable_any sleep_cv_;
  std::jthread thread_;
};

}  // namespace zc
