#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <latch>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace zc {
namespace {

TEST(PaddedCounter, StartsAtZeroAndAdds) {
  PaddedCounter c;
  EXPECT_EQ(c.load(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.load(), 42u);
}

TEST(PaddedCounter, IsCacheLinePadded) {
  EXPECT_EQ(alignof(CounterCell) % 64, 0u);
  EXPECT_GE(sizeof(CounterCell), 64u);
}

TEST(PaddedCounter, RecycledCellsStartAtZero) {
  {
    PaddedCounter c;
    c.add(7);
  }
  PaddedCounter reused;  // takes the block just returned
  EXPECT_EQ(reused.load(), 0u);
}

TEST(PaddedCounter, ConcurrentAddsAreLossless) {
  PaddedCounter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&c] {
        for (int i = 0; i < kPerThread; ++i) c.add();
      });
    }
  }
  EXPECT_EQ(c.load(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(PaddedCounter, ManyMoreThreadsThanCellsAreLossless) {
  PaddedCounter c;
  constexpr int kThreads = 32;  // twice kCounterCells: threads share cells
  constexpr int kPerThread = 10'000;
  static_assert(kThreads > static_cast<int>(kCounterCells));
  std::latch all_live(kThreads);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        all_live.arrive_and_wait();  // every thread holds a cell at once
        for (int i = 0; i < kPerThread; ++i) c.add();
      });
    }
  }
  EXPECT_EQ(c.load(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(PaddedCounter, SubTakesACountBack) {
  PaddedCounter c;
  c.add(5);
  c.sub(2);
  EXPECT_EQ(c.load(), 3u);
  c.sub(3);
  EXPECT_EQ(c.load(), 0u);
}

TEST(PaddedCounter, LevelCountsTheNetAcrossThreads) {
  // A call in flight is claimed on one thread and may be released on
  // another: the level is the net over both threads' cells, and a reader
  // racing them never sees it above the claims made or wrapped below 0.
  constexpr std::uint64_t kCalls = 100'000;
  PaddedCounter level;
  std::atomic<std::uint64_t> claimed{0};
  std::atomic<bool> done{false};
  std::atomic<int> out_of_range{0};
  {
    std::jthread reader([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (level.level() > kCalls) out_of_range.fetch_add(1);
      }
    });
    std::jthread claimer([&] {
      for (std::uint64_t i = 0; i < kCalls; ++i) {
        level.add();
        claimed.store(i + 1, std::memory_order_release);
      }
    });
    std::jthread releaser([&] {
      for (std::uint64_t i = 0; i < kCalls; ++i) {
        while (claimed.load(std::memory_order_acquire) <= i) {
          std::this_thread::yield();
        }
        level.sub();
      }
    });
    claimer.join();
    releaser.join();
    done.store(true, std::memory_order_release);
  }
  EXPECT_EQ(level.load(), 0u);
  EXPECT_EQ(level.level(), 0u);
  EXPECT_EQ(out_of_range.load(), 0);
}

TEST(PaddedCounter, LevelReadsATransientWrapAsZero) {
  // A release observed before the claim it pairs with wraps the sum.
  PaddedCounter level;
  std::jthread([&] { level.sub(); }).join();
  EXPECT_EQ(level.load(), ~std::uint64_t{0});
  EXPECT_EQ(level.level(), 0u);
  level.add(3);
  EXPECT_EQ(level.level(), 2u);
}

TEST(PaddedCounter, LiveThreadsHoldDistinctCells) {
  constexpr int kThreads = 8;
  std::array<std::size_t, kThreads> cells{};
  std::latch all_claimed(kThreads);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        cells[t] = this_thread_cell();
        all_claimed.arrive_and_wait();  // no thread exits before all claim
      });
    }
  }
  const std::set<std::size_t> distinct(cells.begin(), cells.end());
  EXPECT_EQ(distinct.size(), static_cast<std::size_t>(kThreads));
  for (const std::size_t cell : cells) EXPECT_LT(cell, kCounterCells);
}

TEST(PaddedCounter, CellIsReusedAfterItsThreadExits) {
  std::size_t first = kCounterCells;
  std::jthread([&] { first = this_thread_cell(); }).join();
  std::size_t second = kCounterCells;
  std::jthread([&] { second = this_thread_cell(); }).join();
  // Cells are handed out lowest-free-first, so the exited thread's cell is
  // the one the next thread gets.
  EXPECT_LT(first, kCounterCells);
  EXPECT_EQ(second, first);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStat, KnownMoments) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, SingleSampleHasZeroVariance) {
  RunningStat s;
  s.add(3.25);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.mean(), 3.25);
}

TEST(RunningStat, ResetClears) {
  RunningStat s;
  s.add(1.0);
  s.add(2.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(RunningStat, HandlesNegativeValues) {
  RunningStat s;
  s.add(-10.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -10.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
}

TEST(SampleSeries, PercentileOfEmptyThrows) {
  SampleSeries s;
  EXPECT_THROW(s.percentile(50), std::logic_error);
}

TEST(SampleSeries, PercentileOutOfRangeThrows) {
  SampleSeries s;
  s.add(1.0);
  EXPECT_THROW(s.percentile(-1), std::invalid_argument);
  EXPECT_THROW(s.percentile(101), std::invalid_argument);
}

TEST(SampleSeries, NearestRankPercentiles) {
  SampleSeries s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(95), 95.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.median(), 50.0);
}

TEST(SampleSeries, MeanAndSum) {
  SampleSeries s;
  s.add(1.0);
  s.add(2.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.sum(), 6.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

TEST(SampleSeries, MeanOfEmptyIsZero) {
  SampleSeries s;
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(SampleSeries, ClearEmpties) {
  SampleSeries s;
  s.add(1.0);
  s.clear();
  EXPECT_TRUE(s.empty());
}

TEST(SampleSeries, PercentileDoesNotMutateOrder) {
  SampleSeries s;
  s.add(3.0);
  s.add(1.0);
  s.add(2.0);
  (void)s.median();
  EXPECT_EQ(s.raw()[0], 3.0);
  EXPECT_EQ(s.raw()[1], 1.0);
  EXPECT_EQ(s.raw()[2], 2.0);
}

}  // namespace
}  // namespace zc
