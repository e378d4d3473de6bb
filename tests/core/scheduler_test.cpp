#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <thread>

#include "core/zc_backend.hpp"
#include "workload/synthetic.hpp"

namespace zc {
namespace {

using namespace std::chrono_literals;

TEST(WastedCycles, MatchesPaperFormula) {
  // U_i = F_i * T_es + i * window_cycles
  EXPECT_EQ(ZcScheduler::wasted_cycles(0, 13'500, 0, 1'000'000), 0u);
  EXPECT_EQ(ZcScheduler::wasted_cycles(10, 13'500, 0, 1'000'000), 135'000u);
  EXPECT_EQ(ZcScheduler::wasted_cycles(0, 13'500, 3, 1'000'000), 3'000'000u);
  EXPECT_EQ(ZcScheduler::wasted_cycles(2, 10'000, 4, 500'000),
            2u * 10'000u + 4u * 500'000u);
}

TEST(WastedCycles, TradeoffPicksWorkersOnlyUnderLoad) {
  // With zero fallbacks, adding workers only adds waste: U is increasing
  // in i, so argmin is 0 workers.
  const std::uint64_t window = 1'000'000;
  std::uint64_t prev = 0;
  for (unsigned i = 1; i <= 4; ++i) {
    const std::uint64_t u = ZcScheduler::wasted_cycles(0, 13'500, i, window);
    EXPECT_GT(u, prev);
    prev = u;
  }
  // With many fallbacks eliminated per worker, workers pay for themselves:
  // suppose each worker absorbs 200 fallbacks (200*13500 = 2.7M > 1M).
  const std::uint64_t u0 = ZcScheduler::wasted_cycles(400, 13'500, 0, window);
  const std::uint64_t u2 = ZcScheduler::wasted_cycles(0, 13'500, 2, window);
  EXPECT_LT(u2, u0);
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
  // No calls at all: every probe sees F_i = 0, so U_i = i*window and the
  // scheduler must settle on 0 workers.
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
  // Q=5ms + 5 probes of 50µs: ≥ 10 phases in 200 ms comfortably.
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
