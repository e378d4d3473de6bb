// Concurrency stress: all backends under maximal cross-thread pressure,
// with scheduler churn, backend hot-swap and mixed payload sizes.  These
// tests hunt for lost updates, deadlocks and state-machine races rather
// than performance properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <random>
#include <thread>
#include <vector>

#include "core/backend_registry.hpp"
#include "core/zc_async.hpp"
#include "core/zc_backend.hpp"
#include "intel_sl/intel_backend.hpp"
#include "workload/synthetic.hpp"

namespace zc {
namespace {

using namespace std::chrono_literals;

// The hammers are sized for the paper's 8-wide machine.  With fewer host
// cores every busy-wait hand-off costs a whole scheduler round, so the
// same call counts would take tens of minutes of wall clock without
// exercising any additional interleavings; scale the pressure down, keep
// the structure (always >= 2 threads so races stay possible).
unsigned scaled_threads(unsigned n) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return hw >= 8 ? n : std::max(2u, n * hw / 8);
}

std::uint64_t scaled_calls(std::uint64_t n) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return hw >= 8 ? n : std::max<std::uint64_t>(125, n * hw / 8);
}

struct SumArgs {
  std::uint64_t value = 0;
  std::uint64_t echoed = 0;
};

class StressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimConfig cfg;
    cfg.tes_cycles = 500;  // cheap transitions: maximise call rate
    cfg.logical_cpus = 8;
    enclave_ = Enclave::create(cfg);
    sum_id_ = enclave_->ocalls().register_fn("sum", [this](MarshalledCall& c) {
      auto* a = static_cast<SumArgs*>(c.args);
      a->echoed = a->value;
      total_.fetch_add(a->value, std::memory_order_relaxed);
    });
  }

  // Hammers the installed backend from `threads` threads; verifies no call
  // is lost, duplicated, or corrupted.  `in_bytes` > 0 sends an [in]
  // payload of that size with every call.
  void hammer(unsigned threads, std::uint64_t calls_per_thread,
              std::size_t in_bytes = 0) {
    total_.store(0, std::memory_order_relaxed);
    std::atomic<std::uint64_t> expected{0};
    std::atomic<int> corrupt{0};
    {
      std::vector<std::jthread> workers;
      for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          std::mt19937_64 rng(t);
          std::uint64_t local = 0;
          const std::vector<char> payload(in_bytes, 'p');
          for (std::uint64_t i = 0; i < calls_per_thread; ++i) {
            SumArgs args;
            args.value = rng() % 1000;
            local += args.value;
            if (in_bytes == 0) {
              enclave_->ocall(sum_id_, args);
            } else {
              enclave_->ocall_in(sum_id_, args, payload.data(), in_bytes);
            }
            if (args.echoed != args.value) corrupt.fetch_add(1);
          }
          expected.fetch_add(local);
        });
      }
    }
    EXPECT_EQ(corrupt.load(), 0);
    EXPECT_EQ(total_.load(), expected.load());
  }

  std::unique_ptr<Enclave> enclave_;
  std::uint32_t sum_id_ = 0;
  std::atomic<std::uint64_t> total_{0};
};

TEST_F(StressTest, RegularBackendUnderPressure) {
  hammer(scaled_threads(16), scaled_calls(2'000));
}

TEST_F(StressTest, ZcBackendUnderPressure) {
  ZcConfig cfg;
  cfg.quantum = 2ms;  // aggressive scheduler churn during the run
  enclave_->set_backend(std::make_unique<ZcBackend>(*enclave_, cfg));
  hammer(scaled_threads(16), scaled_calls(2'000));
}

TEST_F(StressTest, IntelBackendUnderPressure) {
  intel::IntelSlConfig cfg;
  cfg.num_workers = 3;
  cfg.task_pool_slots = 4;  // smaller than demand: forces fallbacks
  cfg.retries_before_fallback = 50;
  cfg.switchless_fns = {sum_id_};
  enclave_->set_backend(
      std::make_unique<intel::IntelSwitchlessBackend>(*enclave_, cfg));
  hammer(scaled_threads(16), scaled_calls(2'000));
}

TEST_F(StressTest, HotCallsBackendUnderPressure) {
  install_backend_spec(*enclave_, "hotcalls:workers=3");
  hammer(scaled_threads(16), scaled_calls(2'000));
}

TEST_F(StressTest, ZcTinyPoolsForceConstantResets) {
  ZcConfig cfg;
  cfg.scheduler_enabled = false;
  cfg.with_initial_workers(4);
  cfg.worker_pool_bytes = 256;  // every few calls exhausts a pool
  auto backend = std::make_unique<ZcBackend>(*enclave_, cfg);
  auto* raw = backend.get();
  enclave_->set_backend(std::move(backend));
  // A 128 B payload makes a 176 B frame: too large to travel inline, and
  // only one fits the pool, so nearly every call resets one.
  hammer(scaled_threads(8), scaled_calls(1'000), 128);
  EXPECT_GT(raw->stats().pool_resets.load(), 0u);
}

TEST_F(StressTest, SchedulerChurnWhileCallersRun) {
  // Manual worker-count churn racing live callers: exercises the
  // RESERVED-vs-PAUSE rule of §IV-B continuously.
  ZcConfig cfg;
  cfg.scheduler_enabled = false;
  auto backend = std::make_unique<ZcBackend>(*enclave_, cfg);
  auto* raw = backend.get();
  enclave_->set_backend(std::move(backend));

  std::atomic<bool> stop{false};
  std::jthread churner([&] {
    unsigned m = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      raw->set_active_workers(m % (raw->max_workers() + 1));
      ++m;
      std::this_thread::sleep_for(200us);
    }
  });
  hammer(scaled_threads(8), scaled_calls(2'000));
  stop.store(true);
}

TEST_F(StressTest, MixedPayloadSizesAcrossWorkers) {
  ZcConfig cfg;
  cfg.scheduler_enabled = false;
  cfg.with_initial_workers(4);
  cfg.worker_pool_bytes = 16 * 1024;
  enclave_->set_backend(std::make_unique<ZcBackend>(*enclave_, cfg));

  const auto xor_id =
      enclave_->ocalls().register_fn("xor", [](MarshalledCall& c) {
        auto* p = static_cast<std::uint8_t*>(c.payload);
        for (std::size_t i = 0; i < c.payload_size; ++i) p[i] ^= 0xFF;
      });

  std::atomic<int> corrupt{0};
  {
    const unsigned threads_n = scaled_threads(8);
    const std::uint64_t iters = scaled_calls(300);
    std::vector<std::jthread> threads;
    for (unsigned t = 0; t < threads_n; ++t) {
      threads.emplace_back([&, t] {
        std::mt19937 rng(static_cast<unsigned>(t));
        for (std::uint64_t i = 0; i < iters; ++i) {
          const std::size_t n = 1 + rng() % 8'192;
          std::vector<std::uint8_t> in(n);
          std::vector<std::uint8_t> out(n);
          for (auto& b : in) b = static_cast<std::uint8_t>(rng());
          SumArgs args;
          CallDesc desc;
          desc.fn_id = xor_id;
          desc.args = &args;
          desc.args_size = sizeof(args);
          desc.in_payload = in.data();
          desc.in_size = n;
          desc.out_payload = out.data();
          desc.out_size = n;
          enclave_->ocall(desc);
          for (std::size_t k = 0; k < n; ++k) {
            if (out[k] != static_cast<std::uint8_t>(in[k] ^ 0xFF)) {
              corrupt.fetch_add(1);
              break;
            }
          }
        }
      });
    }
  }
  EXPECT_EQ(corrupt.load(), 0);
}

TEST_F(StressTest, ComposedRecordBatchedUnderPressure) {
  // The composed plane under the full hammer: batched buffers inside the
  // record tap, whose rolled-up snapshot is the inner layer's.
  install_backend_spec(
      *enclave_, "record:inner=(zc_batched:workers=1;batch=4;flush_us=50)");
  hammer(scaled_threads(8), scaled_calls(2'000));
  const BackendStatsSnapshot rolled = enclave_->backend().stats_snapshot();
  EXPECT_GT(rolled.batch_flushes, 0u);  // the inner layer surfaces rolled up
  EXPECT_EQ(rolled.in_flight, 0u);      // quiesced
}

TEST_F(StressTest, ComposedChurnWhileCallersRun) {
  // Worker churn forwarded through the record tap into a batched inner
  // while callers hammer: pause/drain races every claim.
  install_backend_spec(
      *enclave_, "record:inner=(zc_batched:workers=2;batch=2;flush_us=50)");
  auto* raw = &enclave_->backend();
  std::atomic<bool> stop{false};
  std::jthread churner([&] {
    unsigned m = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      raw->set_active_workers(m % 3);  // 0, 1, 2 workers
      ++m;
      std::this_thread::sleep_for(200us);
    }
  });
  hammer(scaled_threads(8), scaled_calls(2'000));
  stop.store(true);
}

TEST_F(StressTest, FutexWaitZcUnderPressure) {
  // spin_us=0 + wait=futex: every switchless hand-off puts the caller to
  // sleep in the kernel and the worker must wake it — the gate's futex
  // protocol under maximal contention.
  install_backend_spec(
      *enclave_, "zc:wait=futex;spin_us=0;scheduler=off;workers=2");
  hammer(scaled_threads(8), scaled_calls(2'000));
  const BackendStats& stats = enclave_->backend().stats();
  EXPECT_GT(stats.caller_sleeps.load(), 0u);
  EXPECT_EQ(stats.caller_sleeps.load(), stats.caller_wakeups.load());
}

TEST_F(StressTest, FutexWaitBatchedUnderPressure) {
  install_backend_spec(
      *enclave_,
      "zc_batched:workers=2;batch=4;flush_us=50;wait=futex;spin_us=0");
  hammer(scaled_threads(8), scaled_calls(2'000));
  const BackendStats& stats = enclave_->backend().stats();
  EXPECT_GT(stats.caller_sleeps.load(), 0u);
  EXPECT_EQ(stats.caller_sleeps.load(), stats.caller_wakeups.load());
}

TEST_F(StressTest, FutexWaitAsyncUnderPressure) {
  install_backend_spec(*enclave_, "zc_async:workers=2;queue=8;wait=futex");
  hammer(scaled_threads(8), scaled_calls(2'000));
}

TEST_F(StressTest, BatchedBackendUnderPressure) {
  install_backend_spec(*enclave_, "zc_batched:workers=2;batch=4;flush_us=50");
  hammer(scaled_threads(16), scaled_calls(2'000));
}

TEST_F(StressTest, BatchedPauseResumeChurnWhileCallersRun) {
  // Workers are paused (drain, park) and resumed continuously while the
  // callers run: exercises the publish-vs-park wakeup protocol and the
  // forced fallback window when all workers are parked.
  install_backend_spec(*enclave_, "zc_batched:workers=2;batch=2;flush_us=50");
  auto* raw = dynamic_cast<ZcAsyncBackend*>(&enclave_->backend());
  ASSERT_NE(raw, nullptr);

  std::atomic<bool> stop{false};
  std::jthread churner([&] {
    unsigned m = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      raw->set_active_workers(m % (raw->max_workers() + 1));
      ++m;
      std::this_thread::sleep_for(200us);
    }
  });
  hammer(scaled_threads(8), scaled_calls(2'000));
  stop.store(true);
}

TEST_F(StressTest, LongWindowBatchedUnderPressure) {
  // A 2 ms window under the hammer: buffers flush when full or eagerly,
  // and the window only bounds a straggler, so no call may be lost,
  // duplicated or corrupted under full, eager and window flushes alike.
  install_backend_spec(*enclave_, "zc_batched:workers=2;batch=4;flush_us=2000");
  hammer(scaled_threads(16), scaled_calls(2'000));
}

TEST_F(StressTest, LongWindowPauseResumeChurnWhileCallersRun) {
  // A pausing worker drains its published slots without waiting out the
  // window, so a 2 ms window must never strand a call across a pause.
  install_backend_spec(*enclave_, "zc_batched:workers=2;batch=2;flush_us=2000");
  auto* raw = dynamic_cast<ZcAsyncBackend*>(&enclave_->backend());
  ASSERT_NE(raw, nullptr);

  std::atomic<bool> stop{false};
  std::jthread churner([&] {
    unsigned m = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      raw->set_active_workers(m % (raw->max_workers() + 1));
      ++m;
      std::this_thread::sleep_for(200us);
    }
  });
  hammer(scaled_threads(8), scaled_calls(2'000));
  stop.store(true);
}

TEST_F(StressTest, BatchedTinySlotPoolsForceFallbacks) {
  // pool_bytes=16 is smaller than any frame: every claim overflows.
  install_backend_spec(*enclave_,
                       "zc_batched:workers=2;batch=2;flush_us=50;pool_bytes=16");
  auto* raw = dynamic_cast<ZcAsyncBackend*>(&enclave_->backend());
  ASSERT_NE(raw, nullptr);
  hammer(scaled_threads(8), scaled_calls(1'000));
  EXPECT_GT(raw->stats().fallback_calls.load(), 0u);
}

TEST_F(StressTest, AsyncBackendUnderPressure) {
  install_backend_spec(*enclave_, "zc_async:workers=2;queue=16");
  hammer(scaled_threads(16), scaled_calls(2'000));
}

TEST_F(StressTest, AsyncTinyQueueForcesBackpressureFallbacks) {
  // A single completion-table slot under concurrent submitters: most calls
  // hit queue-full backpressure and must fall back inline — none may be
  // lost, duplicated or corrupted.
  ZcAsyncConfig cfg;
  cfg.workers = 2;
  cfg.queue = 1;
  auto backend = make_zc_async_backend(*enclave_, cfg);
  auto* raw = backend.get();
  enclave_->set_backend(std::move(backend));
  hammer(scaled_threads(8), scaled_calls(1'000));
  EXPECT_GT(raw->stats().fallback_calls.load(), 0u);
}

TEST_F(StressTest, AsyncConcurrentPipelinedSubmitters) {
  // Every thread keeps a window of in-flight futures over a shared
  // completion table, so slots, generations and completion signals are
  // contended from all sides; every future must resolve to its own call.
  ZcAsyncConfig cfg;
  cfg.workers = 2;
  cfg.queue = 8;
  auto backend = make_zc_async_backend(*enclave_, cfg);
  auto* raw = backend.get();
  enclave_->set_backend(std::move(backend));

  total_.store(0, std::memory_order_relaxed);
  std::atomic<std::uint64_t> expected{0};
  std::atomic<int> corrupt{0};
  const unsigned threads_n = scaled_threads(8);
  const std::uint64_t calls = scaled_calls(1'000);
  {
    std::vector<std::jthread> submitters;
    for (unsigned t = 0; t < threads_n; ++t) {
      submitters.emplace_back([&, t] {
        constexpr unsigned kDepth = 4;
        std::mt19937_64 rng(t);
        std::uint64_t local = 0;
        std::vector<SumArgs> ring(kDepth);
        std::vector<CallFuture> futures(kDepth);
        auto check = [&](std::size_t k) {
          futures[k].wait();
          if (futures[k].valid() && ring[k].echoed != ring[k].value) {
            corrupt.fetch_add(1);
          }
        };
        for (std::uint64_t i = 0; i < calls; ++i) {
          const std::size_t k = i % kDepth;
          check(k);
          ring[k].value = rng() % 1000;
          ring[k].echoed = 0;
          local += ring[k].value;
          CallDesc desc;
          desc.fn_id = sum_id_;
          desc.args = &ring[k];
          desc.args_size = sizeof(ring[k]);
          futures[k] = raw->submit(desc);
        }
        for (std::size_t k = 0; k < kDepth; ++k) check(k);
        expected.fetch_add(local);
      });
    }
  }
  EXPECT_EQ(corrupt.load(), 0);
  EXPECT_EQ(total_.load(), expected.load());
  EXPECT_EQ(raw->stats().total_calls(), calls * threads_n);
}

TEST_F(StressTest, AsyncPauseResumeChurnWhileSubmittersRun) {
  ZcAsyncConfig cfg;
  cfg.workers = 2;
  cfg.queue = 4;
  auto backend = make_zc_async_backend(*enclave_, cfg);
  auto* raw = backend.get();
  enclave_->set_backend(std::move(backend));

  std::atomic<bool> stop{false};
  std::jthread churner([&] {
    unsigned m = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      raw->set_active_workers(m % (raw->max_workers() + 1));
      ++m;
      std::this_thread::sleep_for(200us);
    }
  });
  hammer(scaled_threads(8), scaled_calls(2'000));
  stop.store(true);
}

TEST_F(StressTest, AsyncPipelinedSubmittersWithChurn) {
  // The async plane under its hardest shape: pipelined futures from every
  // thread while workers pause and resume — slot generations, paused-worker
  // drains and the parked-wake protocol all contended at once.
  ZcAsyncConfig cfg;
  cfg.workers = 2;
  cfg.queue = 8;
  auto backend = make_zc_async_backend(*enclave_, cfg);
  auto* raw = backend.get();
  enclave_->set_backend(std::move(backend));

  std::atomic<bool> stop{false};
  std::jthread churner([&] {
    unsigned m = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      raw->set_active_workers(m % (raw->max_workers() + 1));
      ++m;
      std::this_thread::sleep_for(200us);
    }
  });

  total_.store(0, std::memory_order_relaxed);
  std::atomic<std::uint64_t> expected{0};
  std::atomic<int> corrupt{0};
  const unsigned threads_n = scaled_threads(8);
  const std::uint64_t calls = scaled_calls(1'000);
  {
    std::vector<std::jthread> submitters;
    for (unsigned t = 0; t < threads_n; ++t) {
      submitters.emplace_back([&, t] {
        constexpr unsigned kDepth = 4;
        std::mt19937_64 rng(t);
        std::uint64_t local = 0;
        std::vector<SumArgs> ring(kDepth);
        std::vector<CallFuture> futures(kDepth);
        auto check = [&](std::size_t k) {
          futures[k].wait();
          if (futures[k].valid() && ring[k].echoed != ring[k].value) {
            corrupt.fetch_add(1);
          }
        };
        for (std::uint64_t i = 0; i < calls; ++i) {
          const std::size_t k = i % kDepth;
          check(k);
          ring[k].value = rng() % 1000;
          ring[k].echoed = 0;
          local += ring[k].value;
          CallDesc desc;
          desc.fn_id = sum_id_;
          desc.args = &ring[k];
          desc.args_size = sizeof(ring[k]);
          futures[k] = raw->submit(desc);
        }
        for (std::size_t k = 0; k < kDepth; ++k) check(k);
        expected.fetch_add(local);
      });
    }
  }
  stop.store(true);
  churner.join();
  EXPECT_EQ(corrupt.load(), 0);
  EXPECT_EQ(total_.load(), expected.load());
  EXPECT_EQ(raw->stats().total_calls(), calls * threads_n);
}

TEST_F(StressTest, RedundantCommandStormLeavesParkedWorkersAsleep) {
  // Regression: a scheduler that re-issues the same set_active_workers
  // value every probe used to wake every parked worker each time.  A
  // 10k-call storm of redundant commands must leave worker_wakeups flat;
  // the real transitions at the end still restore service.  Built with the
  // scheduler off: its probes are real transitions that wake workers.
  install_backend_spec(*enclave_,
                       "zc_batched:workers=2;scheduler=off;batch=2;flush_us=50");
  auto* raw = dynamic_cast<ZcAsyncBackend*>(&enclave_->backend());
  ASSERT_NE(raw, nullptr);

  raw->set_active_workers(0);
  while (raw->stats().worker_sleeps.load() < 2) {
    std::this_thread::sleep_for(100us);
  }
  std::this_thread::sleep_for(2ms);  // absorb the pause transition's wakes
  const std::uint64_t baseline = raw->stats().worker_wakeups.load();
  {
    std::vector<std::jthread> stormers;
    for (int t = 0; t < 4; ++t) {
      stormers.emplace_back([&] {
        for (int i = 0; i < 10'000; ++i) raw->set_active_workers(0);
      });
    }
  }
  std::this_thread::sleep_for(2ms);
  EXPECT_EQ(raw->stats().worker_wakeups.load(), baseline);

  raw->set_active_workers(2);
  hammer(scaled_threads(4), scaled_calls(500));
}

TEST_F(StressTest, BackendHotSwapBetweenBatches) {
  // Swapping backends between batches (never mid-flight) must preserve
  // every call under all four policies in sequence.
  for (int round = 0; round < 3; ++round) {
    enclave_->set_backend(nullptr);
    hammer(scaled_threads(4), scaled_calls(250));
    ZcConfig zcfg;
    zcfg.quantum = 2ms;
    enclave_->set_backend(std::make_unique<ZcBackend>(*enclave_, zcfg));
    hammer(scaled_threads(4), scaled_calls(250));
    intel::IntelSlConfig icfg;
    icfg.num_workers = 2;
    icfg.switchless_fns = {sum_id_};
    enclave_->set_backend(
        std::make_unique<intel::IntelSwitchlessBackend>(*enclave_, icfg));
    hammer(scaled_threads(4), scaled_calls(250));
    install_backend_spec(*enclave_, "hotcalls");
    hammer(scaled_threads(4), scaled_calls(250));
    install_backend_spec(*enclave_, "zc_batched:workers=2;batch=2;flush_us=50");
    hammer(scaled_threads(4), scaled_calls(250));
    install_backend_spec(*enclave_,
                         "zc_batched:workers=2;batch=2;flush_us=2000");
    hammer(scaled_threads(4), scaled_calls(250));
    install_backend_spec(*enclave_, "zc_async:workers=2;queue=4");
    hammer(scaled_threads(4), scaled_calls(250));
    install_backend_spec(*enclave_,
                         "record:inner=(zc_batched:workers=1;batch=2)");
    hammer(scaled_threads(4), scaled_calls(250));
  }
}

}  // namespace
}  // namespace zc
