#include "core/scheduler.hpp"

#include <limits>

#include "common/cycles.hpp"
#include "common/pin.hpp"

namespace zc {

ZcScheduler::ZcScheduler(Enclave& enclave, const ZcConfig& cfg,
                         std::vector<std::unique_ptr<ZcWorker>>& workers,
                         BackendStats& stats,
                         std::atomic<unsigned>& active_count)
    : enclave_(enclave),
      cfg_(cfg),
      workers_(workers),
      stats_(stats),
      active_count_(active_count),
      occupancy_ns_(workers.size() + 1, 0),
      occupancy_since_(wall_ns()) {}

ZcScheduler::~ZcScheduler() { stop(); }

void ZcScheduler::start() {
  if (thread_.joinable()) return;
  occupancy_since_ = wall_ns();
  occupancy_current_ = active_count_.load(std::memory_order_relaxed);
  thread_ = std::jthread([this](std::stop_token st) { main(st); });
}

void ZcScheduler::stop() {
  if (!thread_.joinable()) return;
  thread_.request_stop();
  sleep_cv_.notify_all();
  thread_.join();
}

void ZcScheduler::note_occupancy_change(unsigned new_count) {
  const std::uint64_t now = wall_ns();
  std::lock_guard lock(occupancy_mu_);
  if (occupancy_current_ < occupancy_ns_.size()) {
    occupancy_ns_[occupancy_current_] += now - occupancy_since_;
  }
  occupancy_current_ = new_count;
  occupancy_since_ = now;
}

void ZcScheduler::set_active(unsigned m) {
  if (m > workers_.size()) m = static_cast<unsigned>(workers_.size());
  // Publish the scan bound first so callers stop reserving soon-to-pause
  // workers, then deliver per-worker commands (paper: "the scheduler sets a
  // value in the worker's buffer").
  active_count_.store(m, std::memory_order_release);
  for (unsigned i = 0; i < workers_.size(); ++i) {
    workers_[i]->command(i < m ? SchedCmd::kRun : SchedCmd::kPause);
  }
  note_occupancy_change(m);
}

std::vector<std::uint64_t> ZcScheduler::occupancy_ns() const {
  const std::uint64_t now = wall_ns();
  std::lock_guard lock(occupancy_mu_);
  std::vector<std::uint64_t> out = occupancy_ns_;
  if (occupancy_current_ < out.size()) {
    out[occupancy_current_] += now - occupancy_since_;
  }
  return out;
}

bool ZcScheduler::interruptible_sleep(std::chrono::microseconds d,
                                      const std::stop_token& st) {
  std::unique_lock lock(sleep_mu_);
  return !sleep_cv_.wait_for(lock, st, d, [] { return false; });
  // wait_for returns false on timeout (predicate still false) => slept
  // fully; returns true only when stop was requested.
}

void ZcScheduler::main(const std::stop_token& st) {
  const SimConfig& sim = enclave_.config();
  if (sim.pin_threads) {
    pin_current_thread_to_window(sim.pin_base_cpu, sim.logical_cpus);
  }
  std::size_t meter_slot = 0;
  if (cfg_.meter != nullptr) {
    meter_slot = cfg_.meter->register_current_thread();
  }

  const std::uint64_t tes = enclave_.transitions().tes_cycles();
  const auto micro_quantum = std::chrono::microseconds(static_cast<long>(
      static_cast<double>(cfg_.quantum.count()) * cfg_.mu));
  const std::uint64_t micro_cycles = ns_to_cycles(
      static_cast<double>(micro_quantum.count()) * 1000.0);
  const unsigned probe_max = static_cast<unsigned>(workers_.size());

  while (!st.stop_requested()) {
    // --- Scheduling phase: run the chosen configuration for one quantum.
    if (!interruptible_sleep(cfg_.quantum, st)) break;
    if (cfg_.meter != nullptr) cfg_.meter->checkpoint(meter_slot);

    // --- Configuration phase: probe every worker count i in 0..N/2 for
    // µ·Q each and record the fallback calls F_i under each.
    std::uint64_t best_u = std::numeric_limits<std::uint64_t>::max();
    unsigned best_m = 0;
    bool aborted = false;
    for (unsigned i = 0; i <= probe_max; ++i) {
      set_active(i);
      const std::uint64_t f_before = stats_.fallback_calls.load();
      if (!interruptible_sleep(micro_quantum, st)) {
        aborted = true;
        break;
      }
      const std::uint64_t f_i = stats_.fallback_calls.load() - f_before;
      const std::uint64_t u_i = wasted_cycles(f_i, tes, i, micro_cycles);
      if (u_i < best_u) {
        best_u = u_i;
        best_m = i;
      }
    }
    if (aborted) break;

    last_decision_.store(best_m, std::memory_order_relaxed);
    config_phases_.fetch_add(1, std::memory_order_relaxed);
    set_active(best_m);
  }

  if (cfg_.meter != nullptr) cfg_.meter->unregister_current_thread(meter_slot);
}

}  // namespace zc
