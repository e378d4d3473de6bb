#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>
#include <thread>

#include "core/zc_backend.hpp"
#include "workload/synthetic.hpp"

namespace zc {
namespace {

using namespace std::chrono_literals;

constexpr std::uint64_t kTes = 13'500;
constexpr std::uint64_t kWindow = 300'000;  // 100 µs at 3 GHz

// The paper's §IV-A decision over the same samples: argmin of the window
// total U_i, fewer workers winning ties.
unsigned paper_choice(const std::vector<WindowSample>& samples) {
  unsigned best = 0;
  std::uint64_t best_u = std::numeric_limits<std::uint64_t>::max();
  for (const WindowSample& s : samples) {
    const std::uint64_t u =
        ZcScheduler::wasted_cycles(s.fallbacks, kTes, s.workers, s.cycles);
    if (u < best_u || (u == best_u && s.workers < best)) {
      best_u = u;
      best = s.workers;
    }
  }
  return best;
}

TEST(ChooseWorkers, PerCallWasteIsThePaperTotalOverCalls) {
  // U_i = F_i * T_es + i * t_i; u_i = U_i / max(N_i, 1).
  EXPECT_EQ(ZcScheduler::wasted_cycles(2, 10'000, 4, 500'000),
            2u * 10'000u + 4u * 500'000u);
  EXPECT_DOUBLE_EQ(ZcScheduler::wasted_cycles_per_call({2, 40, 4, kWindow},
                                                       kTes),
                   (4.0 * 13'500 + 2.0 * 300'000) / 40.0);
  // An empty window charges its whole worker time to one (absent) call.
  EXPECT_DOUBLE_EQ(ZcScheduler::wasted_cycles_per_call({1, 0, 0, kWindow},
                                                       kTes),
                   300'000.0);
}

TEST(ChooseWorkers, ClosedLoopThrottlingKeepsWorkers) {
  // Two closed-loop callers.  At 0 workers every call pays a transition,
  // so the callers issue few calls and F_0 * T_es stays below one worker's
  // window: the paper's total picks 0.  Per call, 0 workers wastes T_es
  // and 2 workers waste 6,000 cycles.
  const WindowSample zero{0, 20, 20, kWindow};
  const WindowSample one{1, 60, 10, kWindow};
  const WindowSample two{2, 100, 0, kWindow};
  EXPECT_EQ(paper_choice({zero, one, two}), 0u);
  const std::vector<WindowSample> probes = {one, two};
  EXPECT_EQ(ZcScheduler::choose_workers(zero, probes, kTes), 2u);
  // With 2 workers incumbent, 0 is scored without a window: u_0 = T_es
  // while calls arrive, and the decision is the same.
  EXPECT_EQ(ZcScheduler::choose_workers(
                two, std::vector<WindowSample>{one}, kTes),
            2u);
}

TEST(ChooseWorkers, IdlePicksZero) {
  // No calls anywhere: u_0 = 0 and every worker count wastes its window.
  EXPECT_EQ(ZcScheduler::choose_workers(
                {2, 0, 0, 100 * kWindow},
                std::vector<WindowSample>{{1, 0, 0, kWindow}}, kTes),
            0u);
  EXPECT_EQ(
      ZcScheduler::choose_workers({1, 0, 0, 100 * kWindow}, {}, kTes),
      0u);
  // A trickle does not pay for a spinning worker either: one call per
  // quantum costs far more worker cycles than one transition.
  EXPECT_EQ(
      ZcScheduler::choose_workers({1, 1, 0, 100 * kWindow}, {}, kTes),
      0u);
}

TEST(ChooseWorkers, BurstThatEndedDuringTheQuantumParksWorkers) {
  // The quantum averages a burst and the silence after it, so its workers
  // still look cheap per call; the probes, taken after it, see no calls.
  const WindowSample burst{2, 10'000, 0, 100 * kWindow};
  EXPECT_LT(ZcScheduler::wasted_cycles_per_call(burst, kTes), 13'500.0);
  EXPECT_EQ(ZcScheduler::choose_workers(
                burst, std::vector<WindowSample>{{1, 0, 0, kWindow}}, kTes),
            0u);
  // While calls still arrive, the burst's workers stay.
  EXPECT_EQ(ZcScheduler::choose_workers(
                burst, std::vector<WindowSample>{{1, 30, 20, kWindow}}, kTes),
            2u);
}

TEST(ChooseWorkers, EqualDemandMatchesPaperArgmin) {
  // With N_i and t_i the same in every window (open-loop demand), u_i is
  // U_i scaled by one constant: the two argmins coincide.
  for (const std::uint64_t calls : {1u, 25u, 400u}) {
    for (const std::uint64_t f1 : {0u, 5u, 30u}) {
      for (const std::uint64_t f2 : {0u, 2u, 20u}) {
        if (f1 > calls || f2 > calls) continue;
        const WindowSample zero{0, calls, calls, kWindow};
        const std::vector<WindowSample> probes = {{1, calls, f1, kWindow},
                                                  {2, calls, f2, kWindow}};
        EXPECT_EQ(ZcScheduler::choose_workers(zero, probes, kTes),
                  paper_choice({zero, probes[0], probes[1]}))
            << "N=" << calls << " F1=" << f1 << " F2=" << f2;
      }
    }
  }
}

TEST(ChooseWorkers, IncumbentScoredFromItsOwnQuantum) {
  // The incumbent's 10 ms quantum weighs in at the same per-call scale as
  // a 100 µs probe, and ties go to fewer workers.
  EXPECT_EQ(ZcScheduler::choose_workers(
                {2, 10'000, 0, 100 * kWindow},  // 6,000 cycles per call
                std::vector<WindowSample>{{1, 100, 40, kWindow}},  // 8,400
                kTes),
            2u);
  EXPECT_EQ(ZcScheduler::choose_workers(
                {2, 200, 0, kWindow},
                std::vector<WindowSample>{{1, 100, 0, kWindow}}, kTes),
            1u);
}

// The backoff of probes below the incumbent, as a pure function.
std::vector<ProbeBackoff> decide(std::vector<ProbeBackoff> backoff,
                                 unsigned incumbent, unsigned decision,
                                 std::vector<WindowSample> probes) {
  ZcScheduler::update_backoff(backoff, incumbent, decision, probes);
  return backoff;
}

TEST(ProbeBackoff, LossDoublesTheSkipUpToTheCap) {
  std::vector<ProbeBackoff> b(3);
  const std::vector<WindowSample> lost = {{1, 40, 10, kWindow}};
  unsigned expected = 1;
  for (int round = 0; round < 10; ++round) {
    b = decide(b, 2, 2, lost);
    EXPECT_EQ(b[1].skip, expected) << round;
    EXPECT_EQ(b[1].left, expected) << round;
    expected = std::min(2 * expected, ZcScheduler::kMaxProbeSkip);
  }
  EXPECT_EQ(b[1].skip, ZcScheduler::kMaxProbeSkip);
  // Neither the incumbent nor a count that was not probed moves.
  EXPECT_EQ(b[2].skip, 0u);
  b[1].left = 0;
  b = decide(b, 2, 2, {});
  EXPECT_EQ(b[1].skip, ZcScheduler::kMaxProbeSkip);
  EXPECT_EQ(b[1].left, 0u);
}

TEST(ProbeBackoff, ProbesAboveTheIncumbentNeverBackOff) {
  std::vector<ProbeBackoff> b(4);
  b = decide(b, 1, 1, {{2, 5, 0, kWindow}, {3, 5, 0, kWindow}});
  for (const ProbeBackoff& e : b) {
    EXPECT_EQ(e.skip, 0u);
    EXPECT_EQ(e.left, 0u);
  }
}

TEST(ProbeBackoff, AWinResetsTheSkip) {
  std::vector<ProbeBackoff> b(3);
  for (int round = 0; round < 4; ++round) {
    b = decide(b, 2, 2, {{1, 40, 10, kWindow}});
  }
  ASSERT_EQ(b[1].skip, 8u);
  b = decide(b, 2, 1, {{1, 40, 0, kWindow}});  // the probe at 1 won
  EXPECT_EQ(b[1].skip, 0u);
  EXPECT_EQ(b[1].left, 0u);
}

TEST(ProbeBackoff, ADecisionChangeResetsEveryCount) {
  std::vector<ProbeBackoff> b(5);
  const std::vector<WindowSample> lost = {{1, 40, 10, kWindow},
                                          {2, 40, 5, kWindow}};
  for (int round = 0; round < 3; ++round) b = decide(b, 3, 3, lost);
  ASSERT_EQ(b[1].skip, 4u);
  ASSERT_EQ(b[2].skip, 4u);
  // A probe above the incumbent won: every count starts over.
  b = decide(b, 3, 4, {{4, 40, 0, kWindow}});
  for (const ProbeBackoff& e : b) {
    EXPECT_EQ(e.skip, 0u);
    EXPECT_EQ(e.left, 0u);
  }
  // So does an idle decision, which no probe wins.
  for (int round = 0; round < 3; ++round) b = decide(b, 3, 3, lost);
  b = decide(b, 3, 0, {});
  EXPECT_EQ(b[1].skip, 0u);
  EXPECT_EQ(b[2].skip, 0u);
}

class SchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimConfig sim;
    sim.tes_cycles = 13'500;
    sim.logical_cpus = 8;
    enclave_ = Enclave::create(sim);
    ids_ = workload::register_synthetic_ocalls(enclave_->ocalls());
  }

  ZcBackend* install(ZcConfig cfg) {
    auto backend = std::make_unique<ZcBackend>(*enclave_, cfg);
    auto* raw = backend.get();
    enclave_->set_backend(std::move(backend));
    return raw;
  }

  std::unique_ptr<Enclave> enclave_;
  workload::SyntheticOcalls ids_;
};

TEST_F(SchedulerTest, MaxWorkersDefaultsToHalfTheCpus) {
  auto* backend = install(ZcConfig{});
  EXPECT_EQ(backend->max_workers(), 4u);  // 8 logical cpus / 2
}

TEST_F(SchedulerTest, InitialWorkersDefaultToMax) {
  auto* backend = install(ZcConfig{});
  EXPECT_EQ(backend->active_workers(), 4u);
}

TEST_F(SchedulerTest, ExplicitInitialWorkersRespected) {
  ZcConfig cfg;
  cfg.scheduler_enabled = false;
  cfg.with_initial_workers(1);
  auto* backend = install(cfg);
  EXPECT_EQ(backend->active_workers(), 1u);
}

TEST_F(SchedulerTest, SetActiveClampsToMax) {
  ZcConfig cfg;
  cfg.scheduler_enabled = false;
  auto* backend = install(cfg);
  backend->set_active_workers(100);
  EXPECT_EQ(backend->active_workers(), backend->max_workers());
  backend->set_active_workers(0);
  EXPECT_EQ(backend->active_workers(), 0u);
}

TEST_F(SchedulerTest, IdleWorkloadConvergesToZeroWorkers) {
  ZcConfig cfg;
  cfg.quantum = 5ms;
  auto* backend = install(cfg);
  // No calls at all: u_0 = 0 and every probe wastes its whole window, so
  // the scheduler must settle on 0 workers.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    if (backend->scheduler()->config_phases() >= 3 &&
        backend->active_workers() == 0) {
      break;
    }
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_GE(backend->scheduler()->config_phases(), 3u);
  EXPECT_EQ(backend->active_workers(), 0u);
  EXPECT_EQ(backend->scheduler()->last_decision(), 0u);
}

TEST_F(SchedulerTest, BusyWorkloadKeepsWorkers) {
  ZcConfig cfg;
  cfg.quantum = 5ms;
  auto* backend = install(cfg);

  // Hammer the backend from several threads while the scheduler probes.
  std::atomic<bool> stop{false};
  std::vector<std::jthread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      workload::FArgs args;
      while (!stop.load(std::memory_order_relaxed)) {
        enclave_->ocall(ids_.f_a, args);
      }
    });
  }
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  unsigned decision = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    if (backend->scheduler()->config_phases() >= 5) {
      decision = backend->scheduler()->last_decision();
      if (decision > 0) break;
    }
    std::this_thread::sleep_for(5ms);
  }
  stop.store(true);
  callers.clear();
  // Under saturation, fallbacks are expensive: the scheduler must keep at
  // least one worker.
  EXPECT_GT(decision, 0u);
}

TEST_F(SchedulerTest, OccupancyHistogramSumsToElapsedTime) {
  ZcConfig cfg;
  cfg.quantum = 5ms;
  auto* backend = install(cfg);
  std::this_thread::sleep_for(100ms);
  const auto occ = backend->scheduler()->occupancy_ns();
  ASSERT_EQ(occ.size(), backend->max_workers() + 1);
  const std::uint64_t total =
      std::accumulate(occ.begin(), occ.end(), std::uint64_t{0});
  // The histogram covers at least ~80% of the elapsed window.
  EXPECT_GT(total, 80'000'000u);
}

TEST_F(SchedulerTest, ConfigPhasesAdvance) {
  ZcConfig cfg;
  cfg.quantum = 5ms;
  auto* backend = install(cfg);
  std::this_thread::sleep_for(200ms);
  // Q=5ms + at most 4 probes of 50µs: ≥ 10 phases in 200 ms comfortably.
  EXPECT_GE(backend->scheduler()->config_phases(), 5u);
}

TEST_F(SchedulerTest, DisabledSchedulerNeverChangesWorkers) {
  ZcConfig cfg;
  cfg.scheduler_enabled = false;
  cfg.with_initial_workers(2);
  auto* backend = install(cfg);
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(backend->active_workers(), 2u);
  EXPECT_EQ(backend->scheduler()->config_phases(), 0u);
}

// The probe plane on its own: workers and a scheduler whose feedback loop
// never starts, driven by hand.
class ProbeTest : public ::testing::Test, public WorkerSet {
 protected:
  unsigned max_workers() const noexcept override {
    return static_cast<unsigned>(workers_.size());
  }
  void command_worker(unsigned i, bool run) noexcept override {
    workers_[i]->command(run ? SchedCmd::kRun : SchedCmd::kPause);
  }
  bool worker_parked(unsigned i) const noexcept override {
    return workers_[i]->state() == WorkerState::kPaused;
  }
  std::atomic<unsigned>& active_count() noexcept override { return active_; }

  void SetUp() override {
    SimConfig sim;
    sim.tes_cycles = 2'000;
    enclave_ = Enclave::create(sim);
    // The resume wait is bounded by Q/10: make the bound generous so a
    // loaded host cannot time it out.
    cfg_.quantum = 2s;
    for (unsigned i = 0; i < 3; ++i) {
      workers_.push_back(std::make_unique<ZcWorker>(*enclave_, cfg_, stats_, i));
      workers_.back()->start();
    }
    scheduler_ = std::make_unique<ZcScheduler>(*enclave_, *this, stats_,
                                               nullptr, cfg_.quantum);
  }

  bool all_paused(std::chrono::milliseconds timeout = 2000ms) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (const auto& w : workers_) {
      while (w->state() != WorkerState::kPaused) {
        if (std::chrono::steady_clock::now() > deadline) return false;
        std::this_thread::yield();
      }
    }
    return true;
  }

  std::unique_ptr<Enclave> enclave_;
  ZcConfig cfg_;
  BackendStats stats_;
  std::atomic<unsigned> active_{0};
  std::vector<std::unique_ptr<ZcWorker>> workers_;
  std::unique_ptr<ZcScheduler> scheduler_;
};

TEST_F(ProbeTest, ResumedWorkersServeBeforeTheWindowOpens) {
  std::stop_source stop;
  for (int round = 0; round < 5; ++round) {
    scheduler_->set_active(0);
    ASSERT_TRUE(all_paused());
    ASSERT_TRUE(scheduler_->probe(2, stop.get_token()));
    // The window would open now: both probed workers must be reservable,
    // not still waking from PAUSED.
    EXPECT_EQ(active_.load(), 2u);
    for (unsigned i = 0; i < 2; ++i) {
      EXPECT_NE(workers_[i]->state(), WorkerState::kPaused) << "worker " << i;
      ASSERT_TRUE(workers_[i]->try_reserve()) << "worker " << i;
      workers_[i]->cancel_reservation();
    }
    // Workers above the probed count are left alone.
    EXPECT_EQ(workers_[2]->state(), WorkerState::kPaused);
  }
}

TEST_F(ProbeTest, ProbeBelowTheIncumbentParksNobody) {
  std::stop_source stop;
  scheduler_->set_active(3);
  ASSERT_TRUE(scheduler_->probe(1, stop.get_token()));
  EXPECT_EQ(active_.load(), 1u);
  // Only the scan bound narrowed: the idle workers above it keep their run
  // command, so probing back up costs no wake-up.
  std::this_thread::sleep_for(20ms);
  for (const auto& w : workers_) {
    EXPECT_EQ(w->current_command(), SchedCmd::kRun);
    EXPECT_NE(w->state(), WorkerState::kPaused);
  }
  EXPECT_EQ(stats_.worker_sleeps.load(), 0u);
}

TEST_F(ProbeTest, ProbeHonoursTheStopToken) {
  std::stop_source stop;
  scheduler_->set_active(0);
  ASSERT_TRUE(all_paused());
  stop.request_stop();
  EXPECT_FALSE(scheduler_->probe(2, stop.get_token()));
}

TEST_F(SchedulerTest, StopIsIdempotentAndRestartable) {
  ZcConfig cfg;
  cfg.quantum = 5ms;
  auto* backend = install(cfg);
  backend->scheduler()->stop();
  backend->scheduler()->stop();
  // Manual control still works after the feedback loop stops.
  backend->set_active_workers(1);
  EXPECT_EQ(backend->active_workers(), 1u);
}

}  // namespace
}  // namespace zc
