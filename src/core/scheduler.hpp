// ZC-Switchless feedback scheduler (paper §IV-A, Fig. 5).
//
// The scheduler alternates between two phases:
//  - a *scheduling phase* of one quantum Q (10 ms) during which the chosen
//    number of workers M serves calls, and
//  - a *configuration phase* of N/2+1 micro-quanta of µ·Q each, probing
//    every worker count i in 0..N/2 and recording the fallback count F_i
//    observed under each.
// It then keeps the M' minimising the wasted-cycle estimate
//    U_i = F_i * T_es + i * µ * Q * f_CPU
// (first term: transitions paid by fallbacks; second: cycles monopolised by
// i busy-waiting workers during the probe window).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "core/worker.hpp"
#include "core/zc_config.hpp"

namespace zc {

class ZcScheduler {
 public:
  /// `workers`, `stats` and `active_count` must outlive the scheduler.
  /// `stats` is the backend's shared counter block: during a configuration
  /// phase the scheduler samples its fallback counter at each probe-window
  /// boundary and uses the per-window difference as F_i in the wasted-cycle
  /// objective U_i.  `active_count` is the callers' scan bound, published
  /// via set_active().
  ZcScheduler(Enclave& enclave, const ZcConfig& cfg,
              std::vector<std::unique_ptr<ZcWorker>>& workers,
              BackendStats& stats, std::atomic<unsigned>& active_count);
  ~ZcScheduler();

  ZcScheduler(const ZcScheduler&) = delete;
  ZcScheduler& operator=(const ZcScheduler&) = delete;

  void start();
  void stop();

  /// Applies a worker count: commands workers [0,m) to run and [m,max) to
  /// pause, and publishes `m` to the callers' scan bound.  Also used
  /// directly by tests/ablations when the feedback loop is disabled.
  void set_active(unsigned m);

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

  /// The wasted-cycle objective (exposed for tests and ablations):
  /// fallbacks*T_es + workers*window_cycles.
  static std::uint64_t wasted_cycles(std::uint64_t fallbacks,
                                     std::uint64_t tes_cycles,
                                     unsigned workers,
                                     std::uint64_t window_cycles) noexcept {
    return fallbacks * tes_cycles +
           static_cast<std::uint64_t>(workers) * window_cycles;
  }

 private:
  void main(const std::stop_token& st);
  bool interruptible_sleep(std::chrono::microseconds d,
                           const std::stop_token& st);
  void note_occupancy_change(unsigned new_count);

  Enclave& enclave_;
  const ZcConfig& cfg_;
  std::vector<std::unique_ptr<ZcWorker>>& workers_;
  BackendStats& stats_;
  std::atomic<unsigned>& active_count_;

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
