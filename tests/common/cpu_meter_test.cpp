#include "common/cpu_meter.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

namespace zc {
namespace {

TEST(ProcStat, ParsesAggregateCpuLine) {
  const auto t = ProcStatSampler::parse_cpu_line(
      "cpu  74608 2520 24433 1117073 6176 4054 0 0 0 0");
  EXPECT_EQ(t.user, 74608u);
  EXPECT_EQ(t.nice, 2520u);
  EXPECT_EQ(t.system, 24433u);
  EXPECT_EQ(t.idle, 1117073u);
  EXPECT_EQ(t.busy(), 74608u + 2520u + 24433u);
}

TEST(ProcStat, RejectsMalformedLine) {
  EXPECT_THROW(ProcStatSampler::parse_cpu_line("bogus 1 2 3 4"),
               std::runtime_error);
  EXPECT_THROW(ProcStatSampler::parse_cpu_line("cpu"), std::runtime_error);
}

TEST(ProcStat, UsagePercentMatchesPaperFormula) {
  ProcStatTimes before{100, 0, 50, 850};   // busy 150, total 1000
  ProcStatTimes after{200, 0, 100, 1700};  // busy 300, total 2000
  // delta busy = 150, delta total = 1000 -> 15%
  EXPECT_DOUBLE_EQ(ProcStatSampler::usage_percent(before, after), 15.0);
}

TEST(ProcStat, UsagePercentZeroWhenNoTimePassed) {
  ProcStatTimes t{1, 2, 3, 4};
  EXPECT_EQ(ProcStatSampler::usage_percent(t, t), 0.0);
}

TEST(ProcStat, SamplesLiveSystem) {
  // Must parse without throwing. Some containers report all-zero jiffies,
  // so only sanity-check the value when the kernel provides one.
  const auto t = ProcStatSampler::sample();
  if (t.total() != 0) {
    EXPECT_GE(t.total(), t.busy());
  }
}

TEST(ThreadCpu, AdvancesUnderLoad) {
  const std::uint64_t before = thread_cpu_ns();
  volatile std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < 20'000'000; ++i) sink += i;
  const std::uint64_t after = thread_cpu_ns();
  EXPECT_GT(after, before);
}

TEST(WallClock, IsMonotonic) {
  const std::uint64_t a = wall_ns();
  const std::uint64_t b = wall_ns();
  EXPECT_GE(b, a);
}

TEST(CpuUsageMeter, ZeroCpusClampsToOne) {
  CpuUsageMeter meter(0);
  EXPECT_EQ(meter.logical_cpus(), 1u);
}

TEST(CpuUsageMeter, FreshRegistrationContributesNothing) {
  CpuUsageMeter meter(4);
  meter.begin_window();
  // Register after burning CPU: pre-existing time must not count.
  volatile std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < 10'000'000; ++i) sink += i;
  const auto slot = meter.register_current_thread();
  meter.checkpoint(slot);
  // Small slack: the register->checkpoint gap itself burns a sliver of CPU
  // (clock granularity), but the 10M-iteration burn must not appear.
  EXPECT_LT(meter.window_cpu_ns(), 1'000'000u);
}

// Burns this thread's own CPU until it has consumed `ns`, however long the
// host takes to grant it.
void burn_own_cpu(std::uint64_t ns) {
  const std::uint64_t start = thread_cpu_ns();
  volatile std::uint64_t sink = 0;
  while (thread_cpu_ns() - start < ns) sink = sink + 1;
}

// The meter is checked against the threads' own CLOCK_THREAD_CPUTIME_ID, not
// against wall time: a loaded host grants a spinning thread only part of the
// wall clock, which says nothing about the meter.
TEST(CpuUsageMeter, CapturesBusyThread) {
  CpuUsageMeter meter(1);
  const auto slot = meter.register_current_thread();
  meter.begin_window();
  const std::uint64_t cpu0 = thread_cpu_ns();
  burn_own_cpu(50'000'000);  // 50 ms of this thread's CPU
  meter.checkpoint(slot);
  const std::uint64_t own = thread_cpu_ns() - cpu0;
  EXPECT_GE(meter.window_cpu_ns(), 50'000'000u);
  // The window started a sliver before cpu0 (begin_window itself).
  EXPECT_LE(meter.window_cpu_ns(), own + 1'000'000u);
  // One thread cannot use more than the 1-cpu machine.
  EXPECT_LT(meter.window_usage_percent(), 130.0);
}

TEST(CpuUsageMeter, IdleThreadReportsNearZero) {
  CpuUsageMeter meter(1);
  const auto slot = meter.register_current_thread();
  meter.begin_window();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  meter.checkpoint(slot);
  EXPECT_LT(meter.window_usage_percent(), 15.0);
}

TEST(CpuUsageMeter, NormalisesBySimulatedWidth) {
  CpuUsageMeter meter(8);
  const auto slot = meter.register_current_thread();
  meter.begin_window();
  const std::uint64_t start = wall_ns();
  volatile std::uint64_t sink = 0;
  while (wall_ns() - start < 50'000'000) sink += 1;
  meter.checkpoint(slot);
  // One busy thread on an 8-wide machine: ~12.5%.
  const double pct = meter.window_usage_percent();
  EXPECT_GT(pct, 5.0);
  EXPECT_LT(pct, 25.0);
}

TEST(CpuUsageMeter, AggregatesMultipleThreads) {
  CpuUsageMeter meter(2);
  meter.begin_window();
  std::atomic<std::uint64_t> own_total{0};
  auto busy = [&] {
    const std::uint64_t cpu0 = thread_cpu_ns();
    const auto slot = meter.register_current_thread();
    burn_own_cpu(30'000'000);
    meter.unregister_current_thread(slot);
    own_total.fetch_add(thread_cpu_ns() - cpu0);
  };
  std::jthread t1(busy);
  std::jthread t2(busy);
  t1.join();
  t2.join();
  // The window is the sum of both threads' CPU between registering and
  // unregistering: at least both burns, at most what the threads measured
  // around those calls.
  EXPECT_GE(meter.window_cpu_ns(), 60'000'000u);
  EXPECT_LE(meter.window_cpu_ns(), own_total.load());
}

TEST(CpuUsageMeter, WindowResetsBase) {
  CpuUsageMeter meter(1);
  const auto slot = meter.register_current_thread();
  volatile std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < 10'000'000; ++i) sink += i;
  meter.checkpoint(slot);
  meter.begin_window();
  meter.checkpoint(slot);
  // Work done before the window must not appear in it (small slack for the
  // checkpoint itself).
  EXPECT_LT(meter.window_cpu_ns(), 5'000'000u);
}

}  // namespace
}  // namespace zc
