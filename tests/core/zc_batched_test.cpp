// Batched ZC backend: slot life cycle, flush triggers (batch fill, timer
// and the feedback-adapted window), pause/resume draining, fallback paths
// and the ecall direction.
#include "core/zc_batched.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstring>
#include <thread>
#include <vector>

#include "core/backend_registry.hpp"

namespace zc {
namespace {

using namespace std::chrono_literals;

struct EchoArgs {
  std::uint64_t in = 0;
  std::uint64_t out = 0;
};

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

  ZcBatchedBackend* install(ZcBatchedConfig cfg) {
    auto backend = make_zc_batched_backend(*enclave_, cfg);
    auto* raw = backend.get();
    enclave_->set_backend(std::move(backend));
    return raw;
  }

  std::unique_ptr<Enclave> enclave_;
  std::uint32_t echo_id_ = 0;
};

TEST_F(ZcBatchedTest, LoneCallIsFlushedByTheTimer) {
  ZcBatchedConfig cfg;
  cfg.workers = 1;
  cfg.batch = 8;  // never fills with a single sequential caller
  cfg.flush = 100us;
  auto* backend = install(cfg);

  EchoArgs args;
  args.in = 41;
  EXPECT_EQ(enclave_->ocall(echo_id_, args), CallPath::kSwitchless);
  EXPECT_EQ(args.out, 42u);
  EXPECT_GE(backend->flushes(), 1u);
  EXPECT_EQ(backend->stats().switchless_calls.load(), 1u);
}

TEST_F(ZcBatchedTest, EveryCallIsServedAndCounted) {
  ZcBatchedConfig cfg;
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
  EXPECT_GE(backend->flushes(), 1u);
  // Flushes can never exceed served calls (each flush serves >= 1).
  EXPECT_LE(backend->flushes(), backend->stats().switchless_calls.load());
}

TEST_F(ZcBatchedTest, ConcurrentCallersShareBatches) {
  ZcBatchedConfig cfg;
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
  ZcBatchedConfig cfg;
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
  EXPECT_LT(backend->flushes(), switchless);
}

TEST_F(ZcBatchedTest, NoFreeSlotFallsBackImmediately) {
  ZcBatchedConfig cfg;
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
  ZcBatchedConfig cfg;
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
  ZcBatchedConfig cfg;
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
  ZcBatchedConfig cfg;
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
  ZcBatchedConfig cfg;
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
  ZcBatchedConfig cfg;
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
                       "zc_batched:workers=1;batch=2;flush_us=50;spin_us=0");
  auto* backend = dynamic_cast<ZcBatchedBackend*>(&enclave_->backend());
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->config().spin.count(), 0);
  EchoArgs args;
  args.in = 1;
  EXPECT_EQ(enclave_->ocall(echo_id_, args), CallPath::kSwitchless);
  EXPECT_EQ(args.out, 2u);
}

TEST_F(ZcBatchedTest, FeedbackFlushServesLoneCallsPromptly) {
  // flush=feedback replaces the fixed timer, but a lone partial batch must
  // still flush within the clamped window — a stranded batch would hang
  // this sequential loop.
  ZcBatchedConfig cfg;
  cfg.workers = 1;
  cfg.batch = 8;  // never fills with a single sequential caller
  cfg.flush = 100us;
  cfg.flush_policy = BatchFlushPolicy::kFeedback;
  cfg.quantum = std::chrono::microseconds(2'000);
  auto* backend = install(cfg);

  for (std::uint64_t i = 0; i < 200; ++i) {
    EchoArgs args;
    args.in = i;
    EXPECT_EQ(enclave_->ocall(echo_id_, args), CallPath::kSwitchless);
    ASSERT_EQ(args.out, i + 1);
  }
  EXPECT_GE(backend->flushes(), 1u);
  EXPECT_EQ(backend->stats().switchless_calls.load(), 200u);
}

TEST_F(ZcBatchedTest, FeedbackControllerWidensTheWindowUnderSparseLoad) {
  // A lone sequential caller flushes 1-call batches (fill 1 of 8, below
  // half): each quantum the controller must double the window until it
  // hits the 8x clamp.  The window never exceeds the clamp, so no caller
  // is ever stranded longer than 8x the base window.
  ZcBatchedConfig cfg;
  cfg.workers = 1;
  cfg.batch = 8;
  cfg.flush = 100us;
  cfg.flush_policy = BatchFlushPolicy::kFeedback;
  cfg.quantum = std::chrono::microseconds(2'000);
  auto* backend = install(cfg);

  const std::uint64_t base_ns = 100'000;
  EXPECT_EQ(backend->flush_window_ns(), base_ns);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (backend->flush_window_ns() < base_ns * 8 &&
         std::chrono::steady_clock::now() < deadline) {
    EchoArgs args;
    args.in = 1;
    enclave_->ocall(echo_id_, args);
    ASSERT_EQ(args.out, 2u);
  }
  EXPECT_EQ(backend->flush_window_ns(), base_ns * 8);
  EXPECT_GT(backend->flush_decisions(), 0u);
}

TEST_F(ZcBatchedTest, FeedbackFlushNeverStrandsABatchAcrossPauseResume) {
  // Pause/resume churn while the adaptive window is live: a pausing
  // worker drains its published slots regardless of the window, so no
  // call may be lost, duplicated or stranded mid-batch.
  ZcBatchedConfig cfg;
  cfg.workers = 2;
  cfg.batch = 4;
  cfg.flush = 50us;
  cfg.flush_policy = BatchFlushPolicy::kFeedback;
  cfg.quantum = std::chrono::microseconds(1'000);
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

TEST_F(ZcBatchedTest, FeedbackPolicyReachesTheBackendFromTheSpecPlane) {
  install_backend_spec(
      *enclave_, "zc_batched:workers=1;batch=4;flush=feedback;quantum_us=2000");
  auto* backend = dynamic_cast<ZcBatchedBackend*>(&enclave_->backend());
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->config().flush_policy, BatchFlushPolicy::kFeedback);
  EXPECT_STREQ(to_string(backend->config().flush_policy), "feedback");
  EXPECT_EQ(backend->config().quantum.count(), 2'000);
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
  ZcBatchedConfig cfg;
  cfg.workers = 1;
  cfg.batch = 2;
  cfg.flush = 100us;
  cfg.direction = CallDirection::kEcall;
  enclave_->set_ecall_backend(make_zc_batched_backend(*enclave_, cfg));
  EXPECT_STREQ(enclave_->ecall_backend().name(), "zc_batched-ecall");

  EchoArgs args;
  args.in = 6;
  EXPECT_EQ(enclave_->ecall_fn(square_id, args), CallPath::kSwitchless);
  EXPECT_EQ(args.out, 36u);
  EXPECT_EQ(enclave_->transitions().ecall_count(), 0u);
}

// --- MPSC submit ring & coalesced wakes ------------------------------------

// Every submit-plane combination the spec grammar allows: the table scan
// (the historical claim path), the lock-free MPSC ring, and each with
// coalesced flush wakes under a sleeping wait policy.
struct SubmitPlane {
  const char* tag;
  bool ring;
  bool coalesce;
  GateWaitPolicy wait;
};

class ZcBatchedPlaneTest : public ZcBatchedTest,
                           public ::testing::WithParamInterface<SubmitPlane> {
 protected:
  ZcBatchedConfig plane_config() {
    ZcBatchedConfig cfg;
    cfg.ring = GetParam().ring;
    cfg.coalesce = GetParam().coalesce;
    cfg.wait = GetParam().wait;
    return cfg;
  }
};

TEST_P(ZcBatchedPlaneTest, ConcurrentCallersAreAllServed) {
  ZcBatchedConfig cfg = plane_config();
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
  if (GetParam().coalesce) {
    // Sleeping callers released by flush broadcasts, not per-slot wakes.
    EXPECT_GE(backend->stats().wake_batches.load(), 1u);
  }
}

TEST_P(ZcBatchedPlaneTest, PauseResumeChurnLosesNoCalls) {
  ZcBatchedConfig cfg = plane_config();
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

INSTANTIATE_TEST_SUITE_P(
    SubmitPlanes, ZcBatchedPlaneTest,
    ::testing::Values(
        SubmitPlane{"table_yield", false, false, GateWaitPolicy::kYield},
        SubmitPlane{"ring_yield", true, false, GateWaitPolicy::kYield},
        SubmitPlane{"table_futex", false, false, GateWaitPolicy::kFutex},
        SubmitPlane{"ring_futex", true, false, GateWaitPolicy::kFutex},
        SubmitPlane{"table_coalesce", false, true, GateWaitPolicy::kFutex},
        SubmitPlane{"ring_coalesce", true, true, GateWaitPolicy::kFutex},
        SubmitPlane{"ring_coalesce_condvar", true, true,
                    GateWaitPolicy::kCondvar}),
    [](const auto& info) { return std::string(info.param.tag); });

// --- Learned eager flush ----------------------------------------------------

// Both submit planes share the flush decision, so each eager-flush case
// runs over the table scan and the MPSC ring.
class ZcBatchedEagerTest : public ZcBatchedTest,
                           public ::testing::WithParamInterface<bool> {
 protected:
  ZcBatchedConfig eager_config() {
    ZcBatchedConfig cfg;
    cfg.workers = 1;
    cfg.batch = 8;  // never fills in these cases
    cfg.flush = 200ms;
    cfg.ring = GetParam();
    return cfg;
  }
};

TEST_P(ZcBatchedEagerTest, LoneSequentialCallerPaysTheWindowOnce) {
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
  EXPECT_EQ(backend->flushes(), 20u);
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

TEST_P(ZcBatchedEagerTest, ProducerMidClaimStillBatches) {
  ZcBatchedConfig cfg = eager_config();
  cfg.copy = CopyMode::kSingle;
  auto* backend = install(cfg);

  // Prime: a lone call served by the window makes the worker eager.
  EchoArgs prime;
  ASSERT_EQ(enclave_->ocall(echo_id_, prime), CallPath::kSwitchless);
  ASSERT_EQ(backend->flushes(), 1u);

  // B claims first, then A; both hold mid-marshal.  B is released and
  // publishes while A's slot is still claimed, so the eager worker must
  // hold B's flush until A publishes: one flush for both calls.  (B
  // first also keeps the ring's straggler sweep out of it: B is at the
  // ring front, so there is no publish-order gap to serve around.)
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
  EXPECT_EQ(backend->flushes(), 1u);

  held_a.release.store(true);
  a.join();
  b.join();
  EXPECT_TRUE(done_a.load());
  EXPECT_TRUE(done_b.load());
  EXPECT_EQ(args_a.out, 11u);
  EXPECT_EQ(args_b.out, 21u);
  EXPECT_EQ(backend->flushes(), 2u);
  EXPECT_EQ(backend->stats().switchless_calls.load(), 3u);
}

INSTANTIATE_TEST_SUITE_P(TableAndRing, ZcBatchedEagerTest,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return std::string(info.param ? "ring" : "table");
                         });

TEST_F(ZcBatchedTest, RingOptionsReachTheBackendFromTheSpecPlane) {
  install_backend_spec(*enclave_,
                       "zc_batched:workers=1;batch=4;flush_us=50;ring=on;"
                       "coalesce=on;wait=futex;spin_us=0");
  auto* backend = dynamic_cast<ZcBatchedBackend*>(&enclave_->backend());
  ASSERT_NE(backend, nullptr);
  EXPECT_TRUE(backend->config().ring);
  EXPECT_TRUE(backend->config().coalesce);
  EchoArgs args;
  args.in = 1;
  EXPECT_EQ(enclave_->ocall(echo_id_, args), CallPath::kSwitchless);
  EXPECT_EQ(args.out, 2u);
}

TEST_F(ZcBatchedTest, TableClaimRotationSurvivesThe32BitBoundary) {
  // Regression: the rotating worker-claim counter used to be a 32-bit
  // fetch_add; planting it just below 2^32 forces the wrap mid-run.
  ZcBatchedConfig cfg;
  cfg.workers = 2;
  cfg.batch = 2;
  cfg.flush = 50us;
  auto* backend = install(cfg);
  backend->set_claim_rotation_for_test((std::uint64_t{1} << 32) - 50);

  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> callers;
    for (int t = 0; t < 2; ++t) {
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
  EXPECT_EQ(backend->stats().total_calls(), 400u);
}

TEST_F(ZcBatchedTest, RedundantSetActiveWorkersWakesNobody) {
  // Regression: set_active_workers re-issued kPause to already-paused
  // workers on every call, turning each scheduler probe into a spurious
  // wake for every parked worker.  Re-asserting the current command must
  // leave worker_wakeups untouched.
  ZcBatchedConfig cfg;
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

TEST_F(ZcBatchedTest, StoppedBackendExecutesRegularly) {
  ZcBatchedConfig cfg;
  cfg.workers = 1;
  auto backend = make_zc_batched_backend(*enclave_, cfg);
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

}  // namespace
}  // namespace zc
