#include "common/cycles.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

namespace zc {
namespace {

TEST(Cycles, RdtscIsMonotonicOnOneThread) {
  std::uint64_t prev = rdtsc();
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t now = rdtsc();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST(Cycles, TscFrequencyIsPlausible) {
  const std::uint64_t hz = tsc_hz();
  // Any machine this runs on clocks between 0.5 and 10 GHz.
  EXPECT_GT(hz, 500'000'000ULL);
  EXPECT_LT(hz, 10'000'000'000ULL);
}

TEST(Cycles, TscFrequencyIsMemoised) {
  EXPECT_EQ(tsc_hz(), tsc_hz());
}

TEST(Cycles, CyclesToNsRoundTrip) {
  const std::uint64_t cycles = 1'000'000;
  const double ns = cycles_to_ns(cycles);
  const std::uint64_t back = ns_to_cycles(ns);
  EXPECT_NEAR(static_cast<double>(back), static_cast<double>(cycles),
              static_cast<double>(cycles) * 0.01);
}

TEST(Cycles, NsToCyclesOfNonPositiveIsZero) {
  EXPECT_EQ(ns_to_cycles(0.0), 0u);
  EXPECT_EQ(ns_to_cycles(-5.0), 0u);
}

TEST(Cycles, BurnCyclesBurnsAtLeastRequested) {
  for (const std::uint64_t target : {1'000ULL, 13'500ULL, 100'000ULL}) {
    const std::uint64_t c0 = rdtsc();
    burn_cycles(target);
    const std::uint64_t elapsed = rdtsc() - c0;
    EXPECT_GE(elapsed, target);
  }
}

TEST(Cycles, BurnZeroCyclesReturnsImmediately) {
  const std::uint64_t c0 = rdtsc();
  burn_cycles(0);
  // Should cost well under a microsecond.
  EXPECT_LT(cycles_to_ns(rdtsc() - c0), 10'000.0);
}

// Fewest cycles of 5 burn_cycles(target) calls: a preemption landing
// inside one burn is the host's overshoot, not the loop's.
std::uint64_t min_burn_cycles(std::uint64_t target) {
  std::uint64_t best = ~std::uint64_t{0};
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t c0 = rdtsc();
    burn_cycles(target);
    best = std::min(best, rdtsc() - c0);
  }
  return best;
}

TEST(Cycles, BurnIsReasonablyTight) {
  // burn_cycles should not overshoot by more than ~30% for sizeable burns
  // (one pause granularity of slack for small ones).
  const std::uint64_t target = 1'000'000;
  EXPECT_LT(min_burn_cycles(target), target + target / 3 + 10'000);
}

TEST(Cycles, PauseNExecutes) {
  const std::uint64_t c0 = rdtsc();
  pause_n(10'000);
  const std::uint64_t elapsed = rdtsc() - c0;
  // 10k pauses cost at least 10k cycles on any x86.
  EXPECT_GT(elapsed, 10'000u);
}

TEST(Cycles, MeasuredPauseCostIsPlausible) {
  const std::uint64_t cost = measured_pause_cycles();
  // Paper: up to 140 cycles on Skylake; anywhere in [1, 1000] is sane.
  EXPECT_GE(cost, 1u);
  EXPECT_LT(cost, 1'000u);
}

TEST(Cycles, MeasuredPauseCostIsMemoised) {
  EXPECT_EQ(measured_pause_cycles(), measured_pause_cycles());
}

TEST(Cycles, BurnScalesRoughlyLinearly) {
  const std::uint64_t small = min_burn_cycles(100'000);
  const std::uint64_t large = min_burn_cycles(1'000'000);
  EXPECT_GT(large, small * 5);
}

}  // namespace
}  // namespace zc
