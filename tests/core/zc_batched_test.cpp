// The slotted plane under its zc_batched key: per-range flush gates
// (batch fill, the timer window and the learned eager flush), pause/resume
// draining, fallback paths, a publish racing stop(), the ecall direction,
// and the futures API on batched ranges.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstring>
#include <thread>
#include <vector>

#include "core/backend_registry.hpp"
#include "core/zc_async.hpp"

namespace zc {
namespace {

using namespace std::chrono_literals;

struct EchoArgs {
  std::uint64_t in = 0;
  std::uint64_t out = 0;
};

/// The zc_batched key's defaults: batch 8, flush 100 µs, spin 50 µs,
/// wait=yield, but with the worker count fixed: most tests below pin flush
/// counts, home ranges, wakeups or the switchless path, which a scheduler
/// decision (an idle plane parks every worker) would change.  make() sizes
/// the table at workers×batch.
ZcAsyncConfig batched_config() {
  ZcAsyncConfig cfg;
  cfg.scheduler_enabled = false;
  cfg.batch = 8;
  cfg.flush = 100us;
  cfg.spin = 50us;
  cfg.wait = GateWaitPolicy::kYield;
  return cfg;
}

CallDesc desc_for(std::uint32_t fn_id, EchoArgs& args) {
  CallDesc desc;
  desc.fn_id = fn_id;
  desc.args = &args;
  desc.args_size = sizeof(args);
  return desc;
}

std::unique_ptr<ZcAsyncBackend> make(Enclave& enclave, ZcAsyncConfig cfg) {
  cfg.queue = cfg.workers * cfg.batch;
  return make_zc_async_backend(enclave, cfg, "zc_batched");
}

class ZcBatchedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimConfig cfg;
    cfg.tes_cycles = 200;
    cfg.logical_cpus = 8;
    enclave_ = Enclave::create(cfg);
    echo_id_ =
        enclave_->ocalls().register_fn("echo", [](MarshalledCall& call) {
          auto* a = static_cast<EchoArgs*>(call.args);
          a->out = a->in + 1;
        });
  }

  ZcAsyncBackend* install(ZcAsyncConfig cfg) {
    auto backend = make(*enclave_, cfg);
    auto* raw = backend.get();
    enclave_->set_backend(std::move(backend));
    return raw;
  }

  static std::uint64_t flushes(const ZcAsyncBackend& backend) {
    return backend.stats().batch_flushes.load();
  }

  std::unique_ptr<Enclave> enclave_;
  std::uint32_t echo_id_ = 0;
};

TEST_F(ZcBatchedTest, LoneCallIsFlushedByTheTimer) {
  ZcAsyncConfig cfg = batched_config();
  cfg.workers = 1;
  cfg.batch = 8;  // never fills with a single sequential caller
  cfg.flush = 100us;
  auto* backend = install(cfg);

  EchoArgs args;
  args.in = 41;
  EXPECT_EQ(enclave_->ocall(echo_id_, args), CallPath::kSwitchless);
  EXPECT_EQ(args.out, 42u);
  EXPECT_GE(flushes(*backend), 1u);
  EXPECT_EQ(backend->stats().switchless_calls.load(), 1u);
}

TEST_F(ZcBatchedTest, EveryCallIsServedAndCounted) {
  ZcAsyncConfig cfg = batched_config();
  cfg.workers = 2;
  cfg.batch = 4;
  cfg.flush = 50us;
  auto* backend = install(cfg);

  const std::uint64_t calls = 500;
  for (std::uint64_t i = 0; i < calls; ++i) {
    EchoArgs args;
    args.in = i;
    enclave_->ocall(echo_id_, args);
    ASSERT_EQ(args.out, i + 1);
  }
  EXPECT_EQ(backend->stats().total_calls(), calls);
  EXPECT_GE(flushes(*backend), 1u);
  // Flushes can never exceed served calls (each flush serves >= 1).
  EXPECT_LE(flushes(*backend), backend->stats().switchless_calls.load());
}

TEST_F(ZcBatchedTest, ConcurrentCallersShareBatches) {
  ZcAsyncConfig cfg = batched_config();
  cfg.workers = 1;
  cfg.batch = 4;
  cfg.flush = 2000us;  // long timer: concurrent arrivals batch together
  auto* backend = install(cfg);

  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> callers;
    for (int t = 0; t < 4; ++t) {
      callers.emplace_back([&, t] {
        for (std::uint64_t i = 0; i < 200; ++i) {
          EchoArgs args;
          args.in = static_cast<std::uint64_t>(t) * 10'000 + i;
          enclave_->ocall(echo_id_, args);
          if (args.out != args.in + 1) failures.fetch_add(1);
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
  const std::uint64_t switchless = backend->stats().switchless_calls.load();
  const std::uint64_t fallbacks = backend->stats().fallback_calls.load();
  EXPECT_EQ(switchless + fallbacks, 800u);
}

TEST_F(ZcBatchedTest, ConcurrentPublishesShareAFlush) {
  // Amortisation evidence: four callers publish in lockstep into one
  // 4-slot buffer with a long flush timer, so the worker's sweep must
  // serve multiple calls per flush — flushes < switchless calls.
  ZcAsyncConfig cfg = batched_config();
  cfg.workers = 1;
  cfg.batch = 4;
  cfg.flush = std::chrono::microseconds(50'000);
  auto* backend = install(cfg);

  std::barrier sync(4);
  {
    std::vector<std::jthread> callers;
    for (int t = 0; t < 4; ++t) {
      callers.emplace_back([&, t] {
        sync.arrive_and_wait();
        EchoArgs args;
        args.in = static_cast<std::uint64_t>(t);
        enclave_->ocall(echo_id_, args);
        EXPECT_EQ(args.out, args.in + 1);
      });
    }
  }
  const std::uint64_t switchless = backend->stats().switchless_calls.load();
  if (switchless < 2) {
    GTEST_SKIP() << "transient slot contention left <2 switchless calls; "
                    "amortisation not observable this run";
  }
  EXPECT_LT(flushes(*backend), switchless);
}

TEST_F(ZcBatchedTest, NoFreeSlotFallsBackImmediately) {
  ZcAsyncConfig cfg = batched_config();
  cfg.workers = 1;
  cfg.batch = 1;  // one slot total: concurrent callers must fall back
  auto* backend = install(cfg);

  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> callers;
    for (int t = 0; t < 4; ++t) {
      callers.emplace_back([&, t] {
        for (std::uint64_t i = 0; i < 200; ++i) {
          EchoArgs args;
          args.in = static_cast<std::uint64_t>(t) * 10'000 + i;
          enclave_->ocall(echo_id_, args);
          if (args.out != args.in + 1) failures.fetch_add(1);
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(backend->stats().total_calls(), 800u);
}

TEST_F(ZcBatchedTest, OversizedRequestFallsBack) {
  ZcAsyncConfig cfg = batched_config();
  cfg.workers = 1;
  cfg.batch = 2;
  cfg.slot_pool_bytes = 256;
  auto* backend = install(cfg);

  std::vector<std::uint8_t> payload(4'096, 0xAB);
  EchoArgs args;
  args.in = 1;
  CallDesc desc;
  desc.fn_id = echo_id_;
  desc.args = &args;
  desc.args_size = sizeof(args);
  desc.in_payload = payload.data();
  desc.in_size = payload.size();
  EXPECT_EQ(enclave_->ocall(desc), CallPath::kFallback);
  EXPECT_EQ(args.out, 2u);
  EXPECT_EQ(backend->stats().fallback_calls.load(), 1u);
}

TEST_F(ZcBatchedTest, PauseDrainsAndResumeRestoresService) {
  ZcAsyncConfig cfg = batched_config();
  cfg.workers = 2;
  cfg.batch = 2;
  cfg.flush = 50us;
  auto* backend = install(cfg);

  EchoArgs args;
  args.in = 1;
  EXPECT_EQ(enclave_->ocall(echo_id_, args), CallPath::kSwitchless);

  backend->set_active_workers(0);
  EXPECT_EQ(backend->active_workers(), 0u);
  args.in = 2;
  EXPECT_EQ(enclave_->ocall(echo_id_, args), CallPath::kFallback);
  EXPECT_EQ(args.out, 3u);

  // Both workers eventually park (the sleep counter is written as they do).
  while (backend->stats().worker_sleeps.load() < 2) {
    std::this_thread::sleep_for(100us);
  }

  backend->set_active_workers(2);
  args.in = 3;
  EXPECT_EQ(enclave_->ocall(echo_id_, args), CallPath::kSwitchless);
  EXPECT_EQ(args.out, 4u);
  EXPECT_GE(backend->stats().worker_sleeps.load(), 1u);
  EXPECT_GE(backend->stats().worker_wakeups.load(), 1u);
}

TEST_F(ZcBatchedTest, PauseResumeChurnLosesNoCalls) {
  // The scheduler runs too: its probes and decisions race the churn.
  ZcAsyncConfig cfg = batched_config();
  cfg.scheduler_enabled = true;
  cfg.workers = 2;
  cfg.batch = 2;
  cfg.flush = 50us;
  auto* backend = install(cfg);

  std::atomic<bool> stop{false};
  std::jthread churner([&] {
    unsigned m = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      backend->set_active_workers(m % 3);  // 0, 1, 2, 0, ...
      ++m;
      std::this_thread::sleep_for(200us);
    }
  });

  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> issued{0};
  {
    std::vector<std::jthread> callers;
    for (int t = 0; t < 2; ++t) {
      callers.emplace_back([&, t] {
        for (std::uint64_t i = 0; i < 400; ++i) {
          EchoArgs args;
          args.in = static_cast<std::uint64_t>(t) * 10'000 + i;
          enclave_->ocall(echo_id_, args);
          issued.fetch_add(1);
          if (args.out != args.in + 1) failures.fetch_add(1);
        }
      });
    }
  }
  stop.store(true);
  churner.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(backend->stats().total_calls(), issued.load());
}

TEST_F(ZcBatchedTest, SpinZeroMeansYieldImmediately) {
  // spin_us=0 disables the caller's spin budget: every poll that finds the
  // result not ready donates the quantum (observable via caller_yields).
  ZcAsyncConfig cfg = batched_config();
  cfg.workers = 1;
  cfg.batch = 8;
  cfg.flush = 100us;
  cfg.spin = 0us;
  auto* backend = install(cfg);

  for (std::uint64_t i = 0; i < 100; ++i) {
    EchoArgs args;
    args.in = i;
    enclave_->ocall(echo_id_, args);
    ASSERT_EQ(args.out, i + 1);
  }
  // The flush timer makes every lone call wait ~100us: with a zero spin
  // budget those waits can only be spent yielding.
  EXPECT_GT(backend->stats().caller_yields.load(), 0u);
}

TEST_F(ZcBatchedTest, LargeSpinBudgetNeverYields) {
  ZcAsyncConfig cfg = batched_config();
  cfg.workers = 1;
  cfg.batch = 8;
  cfg.flush = 100us;
  cfg.spin = std::chrono::microseconds(10'000'000);  // outlasts any call
  auto* backend = install(cfg);

  for (std::uint64_t i = 0; i < 20; ++i) {
    EchoArgs args;
    args.in = i;
    enclave_->ocall(echo_id_, args);
    ASSERT_EQ(args.out, i + 1);
  }
  EXPECT_EQ(backend->stats().caller_yields.load(), 0u);
}

TEST_F(ZcBatchedTest, SpinOptionReachesTheBackendFromTheSpecPlane) {
  install_backend_spec(*enclave_,
                       "zc_batched:workers=1;scheduler=off;batch=2;"
                       "flush_us=50;spin_us=0");
  auto* backend = dynamic_cast<ZcAsyncBackend*>(&enclave_->backend());
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->config().spin.count(), 0);
  EchoArgs args;
  args.in = 1;
  EXPECT_EQ(enclave_->ocall(echo_id_, args), CallPath::kSwitchless);
  EXPECT_EQ(args.out, 2u);
}

TEST_F(ZcBatchedTest, EcallDirectionServesTrustedFunctions) {
  const auto square_id =
      enclave_->ecalls().register_fn("square", [](MarshalledCall& call) {
        auto* a = static_cast<EchoArgs*>(call.args);
        a->out = a->in * a->in;
      });
  ZcAsyncConfig cfg = batched_config();
  cfg.workers = 1;
  cfg.batch = 2;
  cfg.flush = 100us;
  cfg.direction = CallDirection::kEcall;
  enclave_->set_ecall_backend(make(*enclave_, cfg));
  EXPECT_STREQ(enclave_->ecall_backend().name(), "zc_batched-ecall");

  EchoArgs args;
  args.in = 6;
  EXPECT_EQ(enclave_->ecall_fn(square_id, args), CallPath::kSwitchless);
  EXPECT_EQ(args.out, 36u);
  EXPECT_EQ(enclave_->transitions().ecall_count(), 0u);
}

// --- Polling and sleeping wait policies ------------------------------------

// The flush notifies each sleeping publisher through its slot's gate;
// polling callers need no notify.  Both shapes must serve every call.
class ZcBatchedPlaneTest
    : public ZcBatchedTest,
      public ::testing::WithParamInterface<GateWaitPolicy> {
 protected:
  ZcAsyncConfig plane_config() {
    ZcAsyncConfig cfg = batched_config();
    cfg.wait = GetParam();
    return cfg;
  }
};

TEST_P(ZcBatchedPlaneTest, ConcurrentCallersAreAllServed) {
  ZcAsyncConfig cfg = plane_config();
  cfg.workers = 2;
  cfg.batch = 4;
  cfg.flush = 50us;
  auto* backend = install(cfg);

  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> callers;
    for (int t = 0; t < 4; ++t) {
      callers.emplace_back([&, t] {
        for (std::uint64_t i = 0; i < 200; ++i) {
          EchoArgs args;
          args.in = static_cast<std::uint64_t>(t) * 10'000 + i;
          enclave_->ocall(echo_id_, args);
          if (args.out != args.in + 1) failures.fetch_add(1);
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(backend->stats().total_calls(), 800u);
}

TEST_P(ZcBatchedPlaneTest, PauseResumeChurnLosesNoCalls) {
  ZcAsyncConfig cfg = plane_config();
  cfg.scheduler_enabled = true;
  cfg.workers = 2;
  cfg.batch = 2;
  cfg.flush = 50us;
  auto* backend = install(cfg);

  std::atomic<bool> stop{false};
  std::jthread churner([&] {
    unsigned m = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      backend->set_active_workers(m % 3);
      ++m;
      std::this_thread::sleep_for(200us);
    }
  });

  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> issued{0};
  {
    std::vector<std::jthread> callers;
    for (int t = 0; t < 2; ++t) {
      callers.emplace_back([&, t] {
        for (std::uint64_t i = 0; i < 400; ++i) {
          EchoArgs args;
          args.in = static_cast<std::uint64_t>(t) * 10'000 + i;
          enclave_->ocall(echo_id_, args);
          issued.fetch_add(1);
          if (args.out != args.in + 1) failures.fetch_add(1);
        }
      });
    }
  }
  stop.store(true);
  churner.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(backend->stats().total_calls(), issued.load());
}

INSTANTIATE_TEST_SUITE_P(WaitPolicies, ZcBatchedPlaneTest,
                         ::testing::Values(GateWaitPolicy::kYield,
                                           GateWaitPolicy::kFutex,
                                           GateWaitPolicy::kCondvar),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// --- Learned eager flush ----------------------------------------------------

class ZcBatchedEagerTest : public ZcBatchedTest {
 protected:
  static ZcAsyncConfig eager_config() {
    ZcAsyncConfig cfg = batched_config();
    cfg.workers = 1;
    cfg.batch = 8;  // never fills in these cases
    cfg.flush = 200ms;
    return cfg;
  }
};

TEST_F(ZcBatchedEagerTest, LoneSequentialCallerPaysTheWindowOnce) {
  // The first call waits out the window and, having been served alone,
  // switches the worker to eager mode; the other 19 flush on publish.
  // Without the eager flush the loop takes 20 windows.
  auto* backend = install(eager_config());
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < 20; ++i) {
    EchoArgs args;
    args.in = i;
    ASSERT_EQ(enclave_->ocall(echo_id_, args), CallPath::kSwitchless);
    ASSERT_EQ(args.out, i + 1);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 2 * 200ms);
  EXPECT_EQ(flushes(*backend), 20u);
}

// Single-copy producer that signals it is mid-marshal (its slot claimed,
// not yet published) and holds there until released.
struct HeldProducer {
  std::atomic<bool> inside{false};
  std::atomic<bool> release{false};

  static void produce(void* dst, std::size_t n, void* ctx) {
    auto* self = static_cast<HeldProducer*>(ctx);
    std::memset(dst, 0x5A, n);
    self->inside.store(true, std::memory_order_seq_cst);
    while (!self->release.load(std::memory_order_seq_cst)) {
      std::this_thread::yield();
    }
  }
};

TEST_F(ZcBatchedEagerTest, ProducerMidClaimStillBatches) {
  ZcAsyncConfig cfg = eager_config();
  cfg.copy = CopyMode::kSingle;
  auto* backend = install(cfg);

  // Prime: a lone call served by the window makes the worker eager.
  EchoArgs prime;
  ASSERT_EQ(enclave_->ocall(echo_id_, prime), CallPath::kSwitchless);
  ASSERT_EQ(flushes(*backend), 1u);

  // B claims first, then A; both hold mid-marshal.  B is released and
  // publishes while A's slot is still claimed, so the eager worker must
  // hold B's flush until A publishes: one flush for both calls.
  const auto run = [&](HeldProducer& held, EchoArgs& args,
                       std::atomic<bool>& done) {
    CallDesc desc;
    desc.fn_id = echo_id_;
    desc.args = &args;
    desc.args_size = sizeof(args);
    desc.produce_in = &HeldProducer::produce;
    desc.in_size = 64;
    desc.inplace_ctx = &held;
    EXPECT_EQ(enclave_->ocall(desc), CallPath::kSwitchless);
    done.store(true, std::memory_order_seq_cst);
  };
  HeldProducer held_a;
  HeldProducer held_b;
  EchoArgs args_a;
  EchoArgs args_b;
  args_a.in = 10;
  args_b.in = 20;
  std::atomic<bool> done_a{false};
  std::atomic<bool> done_b{false};
  std::jthread b([&] { run(held_b, args_b, done_b); });
  while (!held_b.inside.load()) std::this_thread::yield();
  std::jthread a([&] { run(held_a, args_a, done_a); });
  while (!held_a.inside.load()) std::this_thread::yield();

  held_b.release.store(true);
  std::this_thread::sleep_for(20ms);  // B publishes; A stays mid-claim
  EXPECT_FALSE(done_b.load());
  EXPECT_EQ(flushes(*backend), 1u);

  held_a.release.store(true);
  a.join();
  b.join();
  EXPECT_TRUE(done_a.load());
  EXPECT_TRUE(done_b.load());
  EXPECT_EQ(args_a.out, 11u);
  EXPECT_EQ(args_b.out, 21u);
  EXPECT_EQ(flushes(*backend), 2u);
  EXPECT_EQ(backend->stats().switchless_calls.load(), 3u);
}

TEST_F(ZcBatchedEagerTest, SequentialCallersNeverShareAHomeRange) {
  // A holds a producer mid-claim in its home range.  B's home is the other
  // range, so once a window flush has made that range eager, B's lone call
  // flushes at once.  Sharing A's range, it would wait out the window.
  ZcAsyncConfig cfg = eager_config();
  cfg.workers = 2;
  cfg.flush = 100ms;
  cfg.copy = CopyMode::kSingle;
  auto* backend = install(cfg);

  HeldProducer held;
  EchoArgs args_a;
  args_a.in = 10;
  std::uint32_t slot_a = FutureHandle::kInline;
  std::jthread a([&] {
    CallDesc desc;
    desc.fn_id = echo_id_;
    desc.args = &args_a;
    desc.args_size = sizeof(args_a);
    desc.produce_in = &HeldProducer::produce;
    desc.in_size = 64;
    desc.inplace_ctx = &held;
    CallFuture future = backend->submit(desc);
    slot_a = future.handle().slot;
    EXPECT_EQ(future.wait(), CallPath::kSwitchless);
  });
  while (!held.inside.load()) std::this_thread::yield();

  std::uint32_t slot_b = FutureHandle::kInline;
  std::chrono::steady_clock::duration lone{};
  std::jthread([&] {
    EchoArgs prime;  // served by the window: B's range learns eager
    EXPECT_EQ(backend->submit(desc_for(echo_id_, prime)).wait(),
              CallPath::kSwitchless);
    EchoArgs args;
    args.in = 20;
    const auto t0 = std::chrono::steady_clock::now();
    CallFuture future = backend->submit(desc_for(echo_id_, args));
    slot_b = future.handle().slot;
    EXPECT_EQ(future.wait(), CallPath::kSwitchless);
    lone = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(args.out, 21u);
  }).join();
  EXPECT_LT(lone, cfg.flush / 2);

  held.release.store(true);
  a.join();
  EXPECT_EQ(args_a.out, 11u);
  ASSERT_NE(slot_a, FutureHandle::kInline);
  ASSERT_NE(slot_b, FutureHandle::kInline);
  EXPECT_NE(slot_a / cfg.batch, slot_b / cfg.batch);
}

// --- stop() racing a publish ------------------------------------------------

TEST_F(ZcBatchedTest, StopWhileAProducerIsMidClaimStillServesItsCall) {
  // The caller has claimed its slot and is still marshalling when stop()
  // runs: the exiting worker sees no pending call and leaves.  The caller
  // must then find the backend stopped and serve its own slot instead of
  // waiting for a worker that is gone.
  ZcAsyncConfig cfg = batched_config();
  cfg.workers = 1;
  cfg.batch = 4;
  cfg.flush = 50us;
  cfg.copy = CopyMode::kSingle;
  auto* backend = install(cfg);

  HeldProducer held;
  EchoArgs args;
  args.in = 70;
  std::atomic<CallPath> path{CallPath::kRegular};
  std::atomic<bool> done{false};
  std::jthread caller([&] {
    CallDesc desc;
    desc.fn_id = echo_id_;
    desc.args = &args;
    desc.args_size = sizeof(args);
    desc.produce_in = &HeldProducer::produce;
    desc.in_size = 64;
    desc.inplace_ctx = &held;
    path.store(enclave_->ocall(desc), std::memory_order_seq_cst);
    done.store(true, std::memory_order_seq_cst);
  });
  while (!held.inside.load()) std::this_thread::yield();

  backend->stop();  // the worker exits while the slot is still kClaimed
  held.release.store(true);

  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!done.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  if (!done.load()) {
    ADD_FAILURE() << "the published call was stranded behind stop()";
    backend->start();  // rescue the caller so the test can finish
  }
  caller.join();
  EXPECT_EQ(path.load(), CallPath::kSwitchless);
  EXPECT_EQ(args.out, 71u);
  EXPECT_EQ(backend->stats().switchless_calls.load(), 1u);
  EXPECT_EQ(backend->stats().in_flight.load(), 0u);
}

TEST_F(ZcBatchedTest, TableClaimRotationSurvivesThe32BitBoundary) {
  // Regression: the home-range dealer used to be a 32-bit fetch_add;
  // planting it just below 2^32 and dealing fresh pairs of concurrent
  // callers forces the wrap mid-run.
  ZcAsyncConfig cfg = batched_config();
  cfg.workers = 2;
  cfg.batch = 2;
  cfg.flush = 50us;
  auto* backend = install(cfg);
  backend->set_claim_rotation_for_test((std::uint64_t{1} << 32) - 50);

  std::atomic<int> failures{0};
  for (std::uint64_t round = 0; round < 100; ++round) {
    std::vector<std::jthread> callers;
    for (std::uint64_t t = 0; t < 2; ++t) {
      callers.emplace_back([&, t] {
        for (std::uint64_t i = 0; i < 2; ++i) {
          EchoArgs args;
          args.in = round * 100 + t * 10 + i;
          enclave_->ocall(echo_id_, args);
          if (args.out != args.in + 1) failures.fetch_add(1);
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(backend->stats().total_calls(), 400u);
}

TEST_F(ZcBatchedTest, RedundantSetActiveWorkersWakesNobody) {
  // Regression: set_active_workers re-issued kPause to already-paused
  // workers on every call, turning each scheduler probe into a spurious
  // wake for every parked worker.  Re-asserting the current command must
  // leave worker_wakeups untouched.
  ZcAsyncConfig cfg = batched_config();
  cfg.workers = 2;
  cfg.batch = 2;
  cfg.flush = 50us;
  auto* backend = install(cfg);

  backend->set_active_workers(0);
  while (backend->stats().worker_sleeps.load() < 2) {
    std::this_thread::sleep_for(100us);
  }
  // Parked workers may still absorb the wakes of their own pause
  // transition; let the count settle first.
  std::this_thread::sleep_for(2ms);
  const std::uint64_t baseline = backend->stats().worker_wakeups.load();
  for (int i = 0; i < 1'000; ++i) backend->set_active_workers(0);
  std::this_thread::sleep_for(2ms);
  EXPECT_EQ(backend->stats().worker_wakeups.load(), baseline);

  // An actual transition still wakes and restores service.
  backend->set_active_workers(2);
  EchoArgs args;
  args.in = 5;
  EXPECT_EQ(enclave_->ocall(echo_id_, args), CallPath::kSwitchless);
  EXPECT_EQ(args.out, 6u);
  EXPECT_GT(backend->stats().worker_wakeups.load(), baseline);
}

// --- Futures on batched ranges ----------------------------------------------

TEST_F(ZcBatchedTest, OutOfOrderWaitsResolveTheRightFutures) {
  // Futures on the batched key: twelve submissions against an 8-slot
  // table (the rest complete inline), collected in reverse order.
  ZcAsyncConfig cfg = batched_config();
  cfg.workers = 2;
  cfg.batch = 4;
  cfg.flush = 100us;
  auto* backend = install(cfg);

  constexpr std::size_t kCalls = 12;
  std::vector<EchoArgs> args(kCalls);
  std::vector<CallFuture> futures;
  futures.reserve(kCalls);
  for (std::size_t i = 0; i < kCalls; ++i) {
    args[i].in = 100 + i;
    futures.push_back(backend->submit(desc_for(echo_id_, args[i])));
  }
  EXPECT_NE(futures.front().handle().slot, FutureHandle::kInline);
  for (std::size_t i = kCalls; i-- > 0;) {
    const CallPath path = futures[i].wait();
    EXPECT_TRUE(path == CallPath::kSwitchless || path == CallPath::kFallback)
        << i;
    EXPECT_EQ(args[i].out, 101 + i) << i;
  }
  EXPECT_EQ(backend->stats().total_calls(), kCalls);
  EXPECT_GE(backend->stats().switchless_calls.load(), 8u);
  EXPECT_EQ(backend->stats().in_flight.load(), 0u);
}

TEST_F(ZcBatchedTest, DroppedFutureStillExecutesAndReleasesItsSlot) {
  std::atomic<std::uint64_t> runs{0};
  const auto count_id =
      enclave_->ocalls().register_fn("count", [&runs](MarshalledCall& call) {
        auto* a = static_cast<EchoArgs*>(call.args);
        a->out = a->in + 1;
        runs.fetch_add(1, std::memory_order_relaxed);
      });
  ZcAsyncConfig cfg = batched_config();
  cfg.workers = 1;
  cfg.batch = 2;  // a lone dropped call waits for the window, then runs
  cfg.flush = 100us;
  auto* backend = install(cfg);

  {
    EchoArgs args;
    args.in = 4;
    CallFuture dropped = backend->submit(desc_for(count_id, args));
    ASSERT_NE(dropped.handle().slot, FutureHandle::kInline);
  }
  while (runs.load(std::memory_order_acquire) < 1) {
    std::this_thread::sleep_for(100us);
  }
  // Its slot comes back: both slots of the table serve a fresh pair.
  for (;;) {
    EchoArgs a;
    EchoArgs b;
    a.in = 8;
    b.in = 9;
    CallFuture fa = backend->submit(desc_for(echo_id_, a));
    CallFuture fb = backend->submit(desc_for(echo_id_, b));
    const bool both_slotted = fa.handle().slot != FutureHandle::kInline &&
                              fb.handle().slot != FutureHandle::kInline;
    fa.wait();
    fb.wait();
    EXPECT_EQ(a.out, 9u);
    EXPECT_EQ(b.out, 10u);
    if (both_slotted) break;
    std::this_thread::sleep_for(100us);
  }
  EXPECT_EQ(runs.load(), 1u);
  EXPECT_EQ(backend->stats().in_flight.load(), 0u);
}

TEST_F(ZcBatchedTest, RacingWorkersCountOneFlushPerCompletedSweep) {
  // Two running workers both sweep each range, so both may see a range's
  // gate open; only a sweep that completes a call counts a flush.  batch=1
  // opens every gate on publish: each call completes in exactly one
  // sweep, so flushes never exceed the calls served.
  ZcAsyncConfig cfg = batched_config();
  cfg.workers = 2;
  cfg.batch = 1;
  auto* backend = install(cfg);

  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> callers;
    for (int t = 0; t < 4; ++t) {
      callers.emplace_back([&, t] {
        for (std::uint64_t i = 0; i < 200; ++i) {
          EchoArgs args;
          args.in = static_cast<std::uint64_t>(t) * 10'000 + i;
          enclave_->ocall(echo_id_, args);
          if (args.out != args.in + 1) failures.fetch_add(1);
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
  const std::uint64_t switchless = backend->stats().switchless_calls.load();
  EXPECT_GE(flushes(*backend), 1u);
  EXPECT_LE(flushes(*backend), switchless);
}

TEST_F(ZcBatchedTest, StoppedBackendExecutesRegularly) {
  ZcAsyncConfig cfg = batched_config();
  cfg.workers = 1;
  auto backend = make(*enclave_, cfg);
  // Never started: invoke takes the regular path.
  EchoArgs args;
  args.in = 10;
  EXPECT_EQ(backend->invoke([&] {
    CallDesc desc;
    desc.fn_id = echo_id_;
    desc.args = &args;
    desc.args_size = sizeof(args);
    return desc;
  }()), CallPath::kRegular);
  EXPECT_EQ(args.out, 11u);
}

// --- The configless scheduler on batched ranges ------------------------------

TEST_F(ZcBatchedTest, IdlePlaneParksEveryWorker) {
  ZcAsyncConfig cfg = batched_config();
  cfg.scheduler_enabled = true;  // workers=2 is the scheduler's maximum
  cfg.workers = 2;
  auto* backend = install(cfg);

  const auto all_parked = [&] {
    for (unsigned i = 0; i < backend->max_workers(); ++i) {
      if (!backend->worker_parked(i)) return false;
    }
    return true;
  };
  // A quantum is 10 ms; a loaded host may stretch the first few.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline &&
         !(backend->scheduler()->last_decision() == 0 &&
           backend->active_workers() == 0 && all_parked())) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(backend->scheduler()->last_decision(), 0u);
  EXPECT_EQ(backend->active_workers(), 0u);
  EXPECT_TRUE(all_parked());

  // A parked plane still serves every call, on whichever path is open.
  for (std::uint64_t i = 0; i < 50; ++i) {
    EchoArgs args;
    args.in = i;
    enclave_->ocall(echo_id_, args);
    ASSERT_EQ(args.out, i + 1);
  }
}

TEST(ZcBatchedScheduler, SaturatingPipelinedLoadKeepsTheMaximum) {
  // Two callers submit a full batch each, then collect it.  A refused call
  // pays a
  // 60,000-cycle transition, several times what two spinning workers
  // cost per call here, yet short against a probe window: the scheduler
  // must keep both workers.
  SimConfig sim;
  sim.tes_cycles = 60'000;
  sim.logical_cpus = 8;
  auto enclave = Enclave::create(sim);
  const auto echo_id =
      enclave->ocalls().register_fn("echo", [](MarshalledCall& call) {
        auto* a = static_cast<EchoArgs*>(call.args);
        a->out = a->in + 1;
      });
  ZcAsyncConfig cfg = batched_config();
  cfg.scheduler_enabled = true;
  cfg.workers = 2;
  auto owned = make(*enclave, cfg);
  ZcAsyncBackend* backend = owned.get();
  enclave->set_backend(std::move(owned));

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  unsigned streak = 0;
  {
    std::vector<std::jthread> callers;
    for (unsigned t = 0; t < 2; ++t) {
      callers.emplace_back([&, t] {
        // Submit a whole batch, then collect it.
        std::vector<EchoArgs> batch(cfg.batch);
        std::vector<CallFuture> futures(cfg.batch);
        for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed);) {
          for (std::size_t k = 0; k < batch.size(); ++k, ++i) {
            batch[k].in = t * 1'000'000'000 + i;
            futures[k] = backend->submit(desc_for(echo_id, batch[k]));
          }
          for (std::size_t k = 0; k < batch.size(); ++k) {
            futures[k].wait();
            if (batch[k].out != batch[k].in + 1) failures++;
          }
        }
      });
    }
    // Five decisions in a row at the maximum.  A noisy host may starve
    // a quantum's callers and cost a decision, so this waits for a run.
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    std::uint64_t seen = backend->scheduler()->config_phases();
    while (streak < 5 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
      const std::uint64_t phases = backend->scheduler()->config_phases();
      if (phases == seen) continue;
      seen = phases;
      streak = backend->scheduler()->last_decision() == 2 ? streak + 1 : 0;
    }
    stop.store(true);
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(streak, 5u);
  enclave->set_backend(nullptr);
}

}  // namespace
}  // namespace zc
