#include "core/scheduler.hpp"

#include <algorithm>
#include <chrono>

#include "common/cycles.hpp"
#include "common/pin.hpp"

namespace zc {

ZcScheduler::ZcScheduler(Enclave& enclave, WorkerSet& workers,
                         BackendStats& stats, CpuUsageMeter* meter,
                         std::chrono::microseconds quantum, double mu)
    : enclave_(enclave),
      workers_(workers),
      stats_(stats),
      meter_(meter),
      quantum_(quantum),
      mu_(mu),
      occupancy_ns_(workers.max_workers() + 1, 0),
      occupancy_since_(wall_ns()) {}

ZcScheduler::~ZcScheduler() { stop(); }

void ZcScheduler::start() {
  if (thread_.joinable()) return;
  occupancy_since_ = wall_ns();
  occupancy_current_ =
      workers_.active_count().load(std::memory_order_relaxed);
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

void ZcScheduler::publish_active(unsigned m) {
  workers_.active_count().store(m, std::memory_order_release);
  note_occupancy_change(m);
}

void ZcScheduler::set_active(unsigned m) {
  const unsigned max = workers_.max_workers();
  if (m > max) m = max;
  // Publish the claim bound first so callers stop reserving soon-to-pause
  // workers, then deliver per-worker commands (paper: "the scheduler sets a
  // value in the worker's buffer").
  publish_active(m);
  for (unsigned i = 0; i < max; ++i) workers_.command_worker(i, i < m);
}

bool ZcScheduler::probe(unsigned i, const std::stop_token& st) {
  i = std::min(i, workers_.max_workers());
  publish_active(i);
  for (unsigned w = 0; w < i; ++w) workers_.command_worker(w, true);
  // A resumed worker stays PAUSED until its condvar wake is scheduled; until
  // then every call it would have served falls back.  Yield rather than
  // sleep: on a host without a spare core, the resumed worker is the one
  // that needs this CPU.
  const auto deadline = std::chrono::steady_clock::now() + quantum_ / 10;
  for (unsigned w = 0; w < i; ++w) {
    while (workers_.worker_parked(w)) {
      if (st.stop_requested()) return false;
      if (std::chrono::steady_clock::now() >= deadline) return true;
      std::this_thread::yield();
    }
  }
  return !st.stop_requested();
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

unsigned ZcScheduler::choose_workers(const WindowSample& incumbent,
                                     std::span<const WindowSample> probes,
                                     std::uint64_t tes_cycles) noexcept {
  bool arriving = probes.empty() && incumbent.calls != 0;
  for (const WindowSample& p : probes) arriving = arriving || p.calls != 0;
  double best_u = arriving ? static_cast<double>(tes_cycles) : 0.0;
  unsigned best = 0;
  const auto consider = [&](const WindowSample& s) {
    if (s.workers == 0) return;
    const double u = wasted_cycles_per_call(s, tes_cycles);
    if (u < best_u || (u == best_u && s.workers < best)) {
      best_u = u;
      best = s.workers;
    }
  };
  consider(incumbent);
  for (const WindowSample& p : probes) consider(p);
  return best;
}

void ZcScheduler::update_backoff(std::span<ProbeBackoff> backoff,
                                 unsigned incumbent, unsigned decision,
                                 std::span<const WindowSample> probes) noexcept {
  if (decision != incumbent) {
    std::fill(backoff.begin(), backoff.end(), ProbeBackoff{});
    return;
  }
  for (const WindowSample& p : probes) {
    if (p.workers >= incumbent || p.workers >= backoff.size()) continue;
    ProbeBackoff& b = backoff[p.workers];
    b.skip = b.skip == 0 ? 1 : std::min(2 * b.skip, kMaxProbeSkip);
    b.left = b.skip;
  }
}

bool ZcScheduler::interruptible_sleep(std::chrono::microseconds d,
                                      const std::stop_token& st) {
  std::unique_lock lock(sleep_mu_);
  return !sleep_cv_.wait_for(lock, st, d, [] { return false; });
  // wait_for returns false on timeout (predicate still false) => slept
  // fully; returns true only when stop was requested.
}

namespace {

// The counters and clock at a window's start; closing the window turns the
// differences into its sample.
struct WindowStart {
  std::uint64_t calls;
  std::uint64_t fallbacks;
  std::uint64_t tsc;
};

WindowStart open_window(const BackendStats& stats) {
  const std::uint64_t f = stats.fallback_calls.load();
  return {stats.switchless_calls.load() + f, f, rdtsc()};
}

WindowSample close_window(const BackendStats& stats, const WindowStart& w,
                          unsigned workers) {
  const WindowStart end = open_window(stats);
  return {workers, end.calls - w.calls, end.fallbacks - w.fallbacks,
          end.tsc - w.tsc};
}

}  // namespace

void ZcScheduler::main(const std::stop_token& st) {
  const SimConfig& sim = enclave_.config();
  if (sim.pin_threads) {
    pin_current_thread_to_window(sim.pin_base_cpu, sim.logical_cpus);
  }
  std::size_t meter_slot = 0;
  if (meter_ != nullptr) meter_slot = meter_->register_current_thread();

  const std::uint64_t tes = enclave_.transitions().tes_cycles();
  const auto micro_quantum = std::chrono::microseconds(
      static_cast<long>(static_cast<double>(quantum_.count()) * mu_));
  const unsigned probe_max = workers_.max_workers();
  std::vector<WindowSample> probes;
  probes.reserve(probe_max);
  std::vector<ProbeBackoff> backoff(probe_max + 1);

  while (!st.stop_requested()) {
    // --- Scheduling phase: run the chosen configuration M for one quantum;
    // the quantum is M's sample.
    probes.clear();
    const unsigned m =
        workers_.active_count().load(std::memory_order_acquire);
    const WindowStart quantum = open_window(stats_);
    if (!interruptible_sleep(quantum_, st)) break;
    const WindowSample incumbent = close_window(stats_, quantum, m);
    if (meter_ != nullptr) meter_->checkpoint(meter_slot);

    // --- Configuration phase: probe every other count i in 1..N/2 for µ·Q
    // each, but for the losing counts below M that are backing off.
    // Nobody is parked until the decision.
    bool aborted = false;
    for (unsigned i = 1; i <= probe_max; ++i) {
      if (i == m) continue;
      if (i < m && backoff[i].left > 0) {
        --backoff[i].left;
        continue;
      }
      if (!probe(i, st)) {
        aborted = true;
        break;
      }
      const WindowStart window = open_window(stats_);
      if (!interruptible_sleep(micro_quantum, st)) {
        aborted = true;
        break;
      }
      probes.push_back(close_window(stats_, window, i));
    }
    if (aborted) break;

    const unsigned best = choose_workers(incumbent, probes, tes);
    update_backoff(backoff, m, best, probes);
    last_decision_.store(best, std::memory_order_relaxed);
    config_phases_.fetch_add(1, std::memory_order_relaxed);
    set_active(best);
  }

  if (meter_ != nullptr) meter_->unregister_current_thread(meter_slot);
}

}  // namespace zc
