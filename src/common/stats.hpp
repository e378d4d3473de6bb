// Lightweight statistics used across the call backends and the benches.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace zc {

/// Number of cache-line cells a PaddedCounter stripes its total over.
inline constexpr std::size_t kCounterCells = 16;

/// One thread's share of a PaddedCounter, alone on its cache line.
struct alignas(64) CounterCell {
  std::atomic<std::uint64_t> value{0};
};

namespace detail {
inline constexpr std::uint32_t kNoCell = ~std::uint32_t{0};
constinit inline thread_local std::uint32_t t_counter_cell = kNoCell;
/// Slow path of this_thread_cell(): takes the lowest free cell (or a shared
/// one once every cell is held) and returns it to the free mask at thread
/// exit.
std::uint32_t claim_counter_cell() noexcept;
/// A zeroed block of kCounterCells cells from the process-wide free list.
CounterCell* take_counter_cells();
/// Zeroes `cells` and puts the block back on the free list.
void return_counter_cells(CounterCell* cells) noexcept;
}  // namespace detail

/// The calling thread's PaddedCounter cell, in [0, kCounterCells).  Live
/// threads hold distinct cells until more than kCounterCells are live; past
/// that, threads share cells (still lossless, only contended).
inline std::size_t this_thread_cell() noexcept {
  const std::uint32_t cell = detail::t_counter_cell;
  return cell != detail::kNoCell ? cell : detail::claim_counter_cell();
}

/// A total striped over cache-line cells: add() touches only the calling
/// thread's cell, so counters bumped by every caller and worker on each
/// call never bounce a shared line.  load() sums the cells; for a single
/// reader it never goes backwards while only add() is used, which is what
/// the scheduler's and controllers' deltas rely on.  A level that sub()
/// also moves (calls in flight) is read with level().
///
/// The cells are a block recycled through a process-wide free list whose
/// memory is never handed back to malloc: every backend owns a score of
/// counters, and freeing their blocks let the heap trim the pages, so the
/// next backend's set-up paid to fault them back in.
class PaddedCounter {
 public:
  PaddedCounter() : cells_(detail::take_counter_cells()) {}
  ~PaddedCounter() { detail::return_counter_cells(cells_); }
  PaddedCounter(const PaddedCounter&) = delete;
  PaddedCounter& operator=(const PaddedCounter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    cells_[this_thread_cell()].value.fetch_add(n, std::memory_order_relaxed);
  }
  /// Takes back a count this thread added (e.g. a sleep that never began).
  void sub(std::uint64_t n = 1) noexcept {
    cells_[this_thread_cell()].value.fetch_sub(n, std::memory_order_relaxed);
  }
  std::uint64_t load() const noexcept {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kCounterCells; ++i) {
      total += cells_[i].value.load(std::memory_order_relaxed);
    }
    return total;
  }
  /// The sum read as a level that add() and sub() move on different
  /// threads (a call claimed on one and released on another): a reader can
  /// see a sub() before the add() it pairs with, and that transient wrap
  /// below 0 reads as 0.
  std::uint64_t level() const noexcept {
    const auto total = static_cast<std::int64_t>(load());
    return total < 0 ? 0 : static_cast<std::uint64_t>(total);
  }

 private:
  CounterCell* cells_;  ///< kCounterCells cells; the pointer is read-only
};

/// Welford online mean/variance with min/max. Single-writer.
class RunningStat {
 public:
  void add(double x) noexcept {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  std::uint64_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const noexcept { return std::sqrt(variance()); }
  double min() const noexcept {
    return n_ ? min_ : 0.0;
  }
  double max() const noexcept {
    return n_ ? max_ : 0.0;
  }

  void reset() noexcept { *this = RunningStat{}; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Reservoir of samples with percentile queries; used for latency series.
class SampleSeries {
 public:
  void add(double x) { samples_.push_back(x); }
  std::size_t size() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }

  /// p in [0,100]; nearest-rank on a sorted copy.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  double mean() const;
  double sum() const;

  const std::vector<double>& raw() const noexcept { return samples_; }
  void clear() noexcept { samples_.clear(); }

 private:
  std::vector<double> samples_;
};

}  // namespace zc
