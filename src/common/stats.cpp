#include "common/stats.hpp"

#include <bit>
#include <mutex>
#include <numeric>
#include <stdexcept>

namespace zc {

namespace detail {
namespace {

constexpr std::uint32_t kAllCells = (std::uint32_t{1} << kCounterCells) - 1;
std::atomic<std::uint32_t> g_free_cells{kAllCells};
std::atomic<std::uint32_t> g_next_shared{0};

// Returns an owned cell to the free mask when its thread exits.  The
// thread keeps using the cell in any later thread-exit code: sharing a cell
// with its next owner is only contention, never a lost count.
struct CellLease {
  std::uint32_t owned = kNoCell;
  ~CellLease() {
    if (owned != kNoCell) {
      g_free_cells.fetch_or(std::uint32_t{1} << owned,
                            std::memory_order_release);
    }
  }
};

// Counter blocks are carved from slabs that are never freed, so a backend's
// counters reuse pages that stay mapped.  The free list is reserved to hold
// every block ever carved, so returning one never allocates.
constexpr std::size_t kBlocksPerSlab = 256;
std::mutex g_blocks_mu;
// Never destroyed, so at exit every slab is still reachable through it
// (the slabs are kept on purpose; leak checkers must not report them).
std::vector<CounterCell*>& g_free_blocks =
    *new std::vector<CounterCell*>;  // guarded by g_blocks_mu
std::size_t g_carved_blocks = 0;          // guarded by g_blocks_mu

}  // namespace

CounterCell* take_counter_cells() {
  std::lock_guard lock(g_blocks_mu);
  if (g_free_blocks.empty()) {
    g_free_blocks.reserve(g_carved_blocks + kBlocksPerSlab);
    auto* slab = new CounterCell[kBlocksPerSlab * kCounterCells];
    for (std::size_t b = kBlocksPerSlab; b-- > 0;) {
      g_free_blocks.push_back(slab + b * kCounterCells);
    }
    g_carved_blocks += kBlocksPerSlab;
  }
  CounterCell* cells = g_free_blocks.back();
  g_free_blocks.pop_back();
  return cells;
}

void return_counter_cells(CounterCell* cells) noexcept {
  for (std::size_t i = 0; i < kCounterCells; ++i) {
    cells[i].value.store(0, std::memory_order_relaxed);
  }
  std::lock_guard lock(g_blocks_mu);
  g_free_blocks.push_back(cells);
}

std::uint32_t claim_counter_cell() noexcept {
  thread_local CellLease lease;
  std::uint32_t cell = kNoCell;
  std::uint32_t free = g_free_cells.load(std::memory_order_acquire);
  while (free != 0) {
    const auto bit = static_cast<std::uint32_t>(std::countr_zero(free));
    if (g_free_cells.compare_exchange_weak(
            free, free & ~(std::uint32_t{1} << bit),
            std::memory_order_acq_rel, std::memory_order_acquire)) {
      cell = bit;
      lease.owned = bit;
      break;
    }
  }
  if (cell == kNoCell) {
    cell = g_next_shared.fetch_add(1, std::memory_order_relaxed) %
           kCounterCells;
  }
  t_counter_cell = cell;
  return cell;
}

}  // namespace detail

double SampleSeries::percentile(double p) const {
  if (samples_.empty()) throw std::logic_error("percentile of empty series");
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile out of range");
  std::vector<double> sorted(samples_);
  std::sort(sorted.begin(), sorted.end());
  if (p == 0.0) return sorted.front();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::min(rank, sorted.size()) - 1];
}

double SampleSeries::mean() const {
  if (samples_.empty()) return 0.0;
  return sum() / static_cast<double>(samples_.size());
}

double SampleSeries::sum() const {
  return std::accumulate(samples_.begin(), samples_.end(), 0.0);
}

}  // namespace zc
