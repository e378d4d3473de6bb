// Future-based ZC backend: submit()/wait()/poll() semantics, completion
// ordering under out-of-order worker finishes, generation-counter ABA
// protection, double-wait and drop-without-wait future lifetime,
// queue-full backpressure, pause/resume churn with in-flight futures, and
// caller affinity: claim cursors, home ranges and owner-first service.
#include "core/zc_async.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
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

// A plane whose worker count stays where the test puts it.  Most tests
// below pin switchless paths, home ranges, wakeups or flush counts, which a
// scheduler decision (an idle plane parks every worker) would change.
ZcAsyncConfig fixed_workers() {
  ZcAsyncConfig cfg;
  cfg.scheduler_enabled = false;
  return cfg;
}

class ZcAsyncTest : public ::testing::Test {
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
    // A handler that parks until the test opens the gate — the tool for
    // deterministically holding one call in flight.
    gate_id_ = enclave_->ocalls().register_fn("gated", [this](
                                                  MarshalledCall& call) {
      auto* a = static_cast<EchoArgs*>(call.args);
      while (!gate_.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      a->out = a->in * 10;
      gated_runs_.fetch_add(1, std::memory_order_relaxed);
    });
  }

  ZcAsyncBackend* install(ZcAsyncConfig cfg) {
    auto backend = make_zc_async_backend(*enclave_, cfg);
    auto* raw = backend.get();
    enclave_->set_backend(std::move(backend));
    return raw;
  }

  CallDesc echo_desc(EchoArgs& args) const {
    CallDesc desc;
    desc.fn_id = echo_id_;
    desc.args = &args;
    desc.args_size = sizeof(args);
    return desc;
  }

  CallDesc gated_desc(EchoArgs& args) const {
    CallDesc desc;
    desc.fn_id = gate_id_;
    desc.args = &args;
    desc.args_size = sizeof(args);
    return desc;
  }

  std::unique_ptr<Enclave> enclave_;
  std::uint32_t echo_id_ = 0;
  std::uint32_t gate_id_ = 0;
  std::atomic<bool> gate_{false};
  std::atomic<std::uint64_t> gated_runs_{0};
};

TEST_F(ZcAsyncTest, SynchronousInvokeIsSubmitPlusWait) {
  ZcAsyncConfig cfg = fixed_workers();
  cfg.workers = 1;
  cfg.queue = 4;
  auto* backend = install(cfg);

  EchoArgs args;
  args.in = 41;
  EXPECT_EQ(enclave_->ocall(echo_id_, args), CallPath::kSwitchless);
  EXPECT_EQ(args.out, 42u);
  EXPECT_EQ(backend->stats().switchless_calls.load(), 1u);
  EXPECT_EQ(backend->stats().total_calls(), 1u);
}

TEST_F(ZcAsyncTest, SubmitWaitRoundTripWithPayload) {
  ZcAsyncConfig cfg = fixed_workers();
  cfg.workers = 1;
  cfg.queue = 4;
  auto* backend = install(cfg);

  const auto xor_id =
      enclave_->ocalls().register_fn("xor", [](MarshalledCall& c) {
        auto* p = static_cast<std::uint8_t*>(c.payload);
        for (std::size_t i = 0; i < c.payload_size; ++i) p[i] ^= 0xFF;
      });
  std::vector<std::uint8_t> in(1'024);
  std::vector<std::uint8_t> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<std::uint8_t>(i);
  }
  EchoArgs args;
  CallDesc desc;
  desc.fn_id = xor_id;
  desc.args = &args;
  desc.args_size = sizeof(args);
  desc.in_payload = in.data();
  desc.in_size = in.size();
  desc.out_payload = out.data();
  desc.out_size = out.size();

  CallFuture future = backend->submit(desc);
  ASSERT_TRUE(future.valid());
  EXPECT_EQ(future.wait(), CallPath::kSwitchless);
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<std::uint8_t>(in[i] ^ 0xFF)) << i;
  }
}

TEST_F(ZcAsyncTest, OutOfOrderCompletionResolvesTheRightFutures) {
  // Two workers: the gated call holds one while the echo call finishes on
  // the other — the *second* submission completes first, and each future
  // still resolves to its own call's results.
  ZcAsyncConfig cfg = fixed_workers();
  cfg.workers = 2;
  cfg.queue = 4;
  auto* backend = install(cfg);

  EchoArgs slow;
  slow.in = 7;
  CallFuture slow_future = backend->submit(gated_desc(slow));
  EchoArgs fast;
  fast.in = 1;
  CallFuture fast_future = backend->submit(echo_desc(fast));

  EXPECT_EQ(fast_future.wait(), CallPath::kSwitchless);
  EXPECT_EQ(fast.out, 2u);
  EXPECT_FALSE(slow_future.poll());  // still gated: genuinely out of order

  gate_.store(true, std::memory_order_release);
  EXPECT_EQ(slow_future.wait(), CallPath::kSwitchless);
  EXPECT_EQ(slow.out, 70u);
  EXPECT_EQ(backend->stats().switchless_calls.load(), 2u);
}

TEST_F(ZcAsyncTest, WaitingInReverseSubmissionOrderIsCorrect) {
  ZcAsyncConfig cfg = fixed_workers();
  cfg.workers = 2;
  cfg.queue = 16;
  auto* backend = install(cfg);

  constexpr std::size_t kCalls = 12;
  std::vector<EchoArgs> args(kCalls);
  std::vector<CallFuture> futures;
  futures.reserve(kCalls);
  for (std::size_t i = 0; i < kCalls; ++i) {
    args[i].in = 100 + i;
    futures.push_back(backend->submit(echo_desc(args[i])));
  }
  for (std::size_t i = kCalls; i-- > 0;) {
    EXPECT_EQ(futures[i].wait(), CallPath::kSwitchless) << i;
    EXPECT_EQ(args[i].out, 101 + i) << i;
  }
  EXPECT_EQ(backend->stats().total_calls(), kCalls);
}

TEST_F(ZcAsyncTest, GenerationCounterProtectsAgainstSlotReuseAba) {
  // queue=1 forces the second call into the first call's slot.  The stale
  // handle (old generation) must read as completed and never reflect the
  // live call now occupying the slot.
  ZcAsyncConfig cfg = fixed_workers();
  cfg.workers = 1;
  cfg.queue = 1;
  auto* backend = install(cfg);

  EchoArgs first;
  first.in = 1;
  CallFuture f1 = backend->submit(echo_desc(first));
  const FutureHandle h1 = f1.handle();
  ASSERT_NE(h1.slot, FutureHandle::kInline);
  EXPECT_EQ(f1.wait(), CallPath::kSwitchless);
  EXPECT_EQ(first.out, 2u);

  // Reoccupy the same slot with a call held in flight by the gate.
  EchoArgs second;
  second.in = 3;
  CallFuture f2 = backend->submit(gated_desc(second));
  const FutureHandle h2 = f2.handle();
  ASSERT_EQ(h2.slot, h1.slot);  // single slot: guaranteed reuse
  EXPECT_GT(h2.generation, h1.generation);

  // The old handle reports completed (its call IS done) even though the
  // slot's current occupant is still executing; the live handle reports
  // not-done.  This is exactly the ABA case the generation counter kills.
  EXPECT_TRUE(backend->handle_completed(h1));
  EXPECT_FALSE(backend->handle_completed(h2));
  EXPECT_FALSE(f2.poll());

  gate_.store(true, std::memory_order_release);
  EXPECT_EQ(f2.wait(), CallPath::kSwitchless);
  EXPECT_EQ(second.out, 30u);
  EXPECT_TRUE(backend->handle_completed(h2));
}

TEST_F(ZcAsyncTest, DoubleWaitIsIdempotent) {
  ZcAsyncConfig cfg = fixed_workers();
  cfg.workers = 1;
  cfg.queue = 2;
  auto* backend = install(cfg);

  EchoArgs args;
  args.in = 5;
  CallFuture future = backend->submit(echo_desc(args));
  const CallPath first = future.wait();
  EXPECT_EQ(first, CallPath::kSwitchless);
  EXPECT_EQ(args.out, 6u);
  args.out = 0;  // a second wait must not re-unmarshal or touch the slot
  EXPECT_EQ(future.wait(), first);
  EXPECT_EQ(args.out, 0u);
  EXPECT_TRUE(future.poll());
  // The backend still serves fresh calls through the same slot.
  EchoArgs next;
  next.in = 9;
  EXPECT_EQ(enclave_->ocall(echo_id_, next), CallPath::kSwitchless);
  EXPECT_EQ(next.out, 10u);
}

TEST_F(ZcAsyncTest, DroppedFutureStillExecutesAndReleasesItsSlot) {
  ZcAsyncConfig cfg = fixed_workers();
  cfg.workers = 1;
  cfg.queue = 1;
  auto* backend = install(cfg);

  gate_.store(true, std::memory_order_release);  // gated calls run freely
  {
    EchoArgs args;
    args.in = 4;
    CallFuture dropped = backend->submit(gated_desc(args));
    ASSERT_NE(dropped.handle().slot, FutureHandle::kInline);
    // `args` stays alive past the drop: an abandoned call may still be
    // executing and only result *collection* is cancelled.
  }
  // The abandoned call still runs (submission promises its side effects).
  while (gated_runs_.load(std::memory_order_acquire) < 1) {
    std::this_thread::sleep_for(100us);
  }
  // And its slot comes back: with queue=1, a fresh submission can only go
  // switchless once the abandoned slot has been released.
  EchoArgs args;
  for (;;) {
    args.in = 8;
    CallFuture future = backend->submit(echo_desc(args));
    const bool slot_backed = future.handle().slot != FutureHandle::kInline;
    future.wait();
    EXPECT_EQ(args.out, 9u);
    if (slot_backed) break;
    std::this_thread::sleep_for(100us);
  }
  EXPECT_EQ(gated_runs_.load(), 1u);
}

TEST_F(ZcAsyncTest, DropAfterCompletionThenReuseServesTheSuccessor) {
  // Dropping a future whose call already completed (kDone) makes the
  // abandoner release the slot; the very next occupant of that slot must
  // be served normally — a stale abandon mark or a worker's late reclaim
  // must never touch the successor (the generation checks in
  // execute_slot/abandon).
  ZcAsyncConfig cfg = fixed_workers();
  cfg.workers = 1;
  cfg.queue = 1;
  auto* backend = install(cfg);

  for (int round = 0; round < 200; ++round) {
    {
      EchoArgs dropped;
      dropped.in = 1;
      CallFuture f = backend->submit(echo_desc(dropped));
      while (!f.poll()) {
        std::this_thread::yield();
      }
      // Completed but never collected: dropped here.
    }
    EchoArgs args;
    for (;;) {
      args.in = 5;
      args.out = 0;
      CallFuture next = backend->submit(echo_desc(args));
      const bool slot_backed = next.handle().slot != FutureHandle::kInline;
      next.wait();
      ASSERT_EQ(args.out, 6u) << round;
      if (slot_backed) break;  // the successor reused the dropped slot
    }
  }
}

TEST_F(ZcAsyncTest, QueueFullBackpressureFallsBackInline) {
  // One slot, held in flight by the gated call: the next submission finds
  // the table full and completes inline as a fallback — never queued
  // without a slot, never lost, never spinning.
  ZcAsyncConfig cfg = fixed_workers();
  cfg.workers = 1;
  cfg.queue = 1;
  auto* backend = install(cfg);

  EchoArgs held;
  held.in = 2;
  CallFuture held_future = backend->submit(gated_desc(held));
  ASSERT_NE(held_future.handle().slot, FutureHandle::kInline);

  EchoArgs args;
  args.in = 20;
  CallFuture inline_future = backend->submit(echo_desc(args));
  EXPECT_EQ(inline_future.handle().slot, FutureHandle::kInline);
  EXPECT_TRUE(inline_future.poll());  // already complete
  EXPECT_EQ(args.out, 21u);           // executed before submit returned
  EXPECT_EQ(inline_future.wait(), CallPath::kFallback);
  EXPECT_EQ(backend->stats().fallback_calls.load(), 1u);

  gate_.store(true, std::memory_order_release);
  EXPECT_EQ(held_future.wait(), CallPath::kSwitchless);
  EXPECT_EQ(held.out, 20u);
}

TEST_F(ZcAsyncTest, NoActiveWorkersFallsBackAndResumeRestoresService) {
  ZcAsyncConfig cfg = fixed_workers();
  cfg.workers = 2;
  cfg.queue = 4;
  auto* backend = install(cfg);

  backend->set_active_workers(0);
  EXPECT_EQ(backend->active_workers(), 0u);
  EchoArgs args;
  args.in = 1;
  CallFuture future = backend->submit(echo_desc(args));
  EXPECT_EQ(future.handle().slot, FutureHandle::kInline);
  EXPECT_EQ(future.wait(), CallPath::kFallback);
  EXPECT_EQ(args.out, 2u);

  backend->set_active_workers(2);
  args.in = 3;
  EXPECT_EQ(enclave_->ocall(echo_id_, args), CallPath::kSwitchless);
  EXPECT_EQ(args.out, 4u);
}

TEST_F(ZcAsyncTest, PauseResumeChurnWithInFlightFuturesLosesNothing) {
  // The scheduler runs too: its probes and decisions race the churn.
  ZcAsyncConfig cfg;
  cfg.workers = 2;
  cfg.queue = 8;
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

  constexpr unsigned kDepth = 4;
  constexpr std::uint64_t kCalls = 600;
  std::uint64_t failures = 0;
  std::vector<EchoArgs> ring(kDepth);
  std::vector<CallFuture> futures(kDepth);
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    const std::size_t k = i % kDepth;
    futures[k].wait();  // no-op on a fresh future
    if (i >= kDepth && ring[k].out != ring[k].in + 1) ++failures;
    ring[k].in = i;
    ring[k].out = 0;
    futures[k] = backend->submit(echo_desc(ring[k]));
  }
  for (std::size_t k = 0; k < kDepth; ++k) {
    futures[k].wait();
    if (ring[k].out != ring[k].in + 1) ++failures;
  }
  stop.store(true);
  churner.join();
  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(backend->stats().total_calls(), kCalls);
}

TEST_F(ZcAsyncTest, StopDrainsInFlightFutures) {
  ZcAsyncConfig cfg = fixed_workers();
  cfg.workers = 2;
  cfg.queue = 4;
  auto backend = make_zc_async_backend(*enclave_, cfg);
  backend->start();

  EchoArgs gated_args;
  gated_args.in = 6;
  CallFuture gated_future = backend->submit(gated_desc(gated_args));
  EchoArgs echo_args;
  echo_args.in = 8;
  CallFuture echo_future = backend->submit(echo_desc(echo_args));

  std::jthread opener([&] {
    std::this_thread::sleep_for(1ms);
    gate_.store(true, std::memory_order_release);
  });
  backend->stop();  // exit drains the completion table before joining
  EXPECT_EQ(gated_future.wait(), CallPath::kSwitchless);
  EXPECT_EQ(gated_args.out, 60u);
  EXPECT_EQ(echo_future.wait(), CallPath::kSwitchless);
  EXPECT_EQ(echo_args.out, 9u);

  // Stopped: new calls take the regular path, inline.
  EchoArgs after;
  after.in = 1;
  CallFuture regular = backend->submit(echo_desc(after));
  EXPECT_EQ(regular.wait(), CallPath::kRegular);
  EXPECT_EQ(after.out, 2u);
}

TEST_F(ZcAsyncTest, EcallDirectionServesTrustedFunctions) {
  const auto square_id =
      enclave_->ecalls().register_fn("square", [](MarshalledCall& call) {
        auto* a = static_cast<EchoArgs*>(call.args);
        a->out = a->in * a->in;
      });
  ZcAsyncConfig cfg = fixed_workers();
  cfg.workers = 1;
  cfg.queue = 4;
  cfg.direction = CallDirection::kEcall;
  enclave_->set_ecall_backend(make_zc_async_backend(*enclave_, cfg));
  EXPECT_STREQ(enclave_->ecall_backend().name(), "zc_async-ecall");

  EchoArgs args;
  args.in = 6;
  EXPECT_EQ(enclave_->ecall_fn(square_id, args), CallPath::kSwitchless);
  EXPECT_EQ(args.out, 36u);
  EXPECT_EQ(enclave_->transitions().ecall_count(), 0u);
  enclave_->set_ecall_backend(nullptr);
}

// --- Both sleeping wait policies --------------------------------------------

class ZcAsyncPlaneTest : public ZcAsyncTest,
                         public ::testing::WithParamInterface<GateWaitPolicy> {
 protected:
  ZcAsyncConfig plane_config() {
    ZcAsyncConfig cfg = fixed_workers();
    cfg.wait = GetParam();
    return cfg;
  }
};

TEST_P(ZcAsyncPlaneTest, SubmitWaitRoundTrips) {
  ZcAsyncConfig cfg = plane_config();
  cfg.workers = 2;
  cfg.queue = 8;
  auto* backend = install(cfg);

  for (std::uint64_t i = 0; i < 200; ++i) {
    EchoArgs args;
    args.in = i;
    CallFuture future = backend->submit(echo_desc(args));
    future.wait();
    ASSERT_EQ(args.out, i + 1) << i;
  }
  EXPECT_EQ(backend->stats().total_calls(), 200u);
}

TEST_P(ZcAsyncPlaneTest, OutOfOrderCompletionResolvesTheRightFutures) {
  ZcAsyncConfig cfg = plane_config();
  cfg.workers = 2;
  cfg.queue = 4;
  auto* backend = install(cfg);

  EchoArgs slow;
  slow.in = 7;
  CallFuture slow_future = backend->submit(gated_desc(slow));
  EchoArgs fast;
  fast.in = 1;
  CallFuture fast_future = backend->submit(echo_desc(fast));

  EXPECT_EQ(fast_future.wait(), CallPath::kSwitchless);
  EXPECT_EQ(fast.out, 2u);
  EXPECT_FALSE(slow_future.poll());

  gate_.store(true, std::memory_order_release);
  EXPECT_EQ(slow_future.wait(), CallPath::kSwitchless);
  EXPECT_EQ(slow.out, 70u);
}

TEST_P(ZcAsyncPlaneTest, PauseResumeChurnWithInFlightFuturesLosesNothing) {
  ZcAsyncConfig cfg = plane_config();
  cfg.scheduler_enabled = true;
  cfg.workers = 2;
  cfg.queue = 8;
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

  constexpr unsigned kDepth = 4;
  constexpr std::uint64_t kCalls = 600;
  std::uint64_t failures = 0;
  std::vector<EchoArgs> ring(kDepth);
  std::vector<CallFuture> futures(kDepth);
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    const std::size_t k = i % kDepth;
    futures[k].wait();
    if (i >= kDepth && ring[k].out != ring[k].in + 1) ++failures;
    ring[k].in = i;
    ring[k].out = 0;
    futures[k] = backend->submit(echo_desc(ring[k]));
  }
  for (std::size_t k = 0; k < kDepth; ++k) {
    futures[k].wait();
    if (ring[k].out != ring[k].in + 1) ++failures;
  }
  stop.store(true);
  churner.join();
  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(backend->stats().total_calls(), kCalls);
}

INSTANTIATE_TEST_SUITE_P(WaitPolicies, ZcAsyncPlaneTest,
                         ::testing::Values(GateWaitPolicy::kFutex,
                                           GateWaitPolicy::kCondvar),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST_F(ZcAsyncTest, TicketCounterSurvivesThe32BitBoundary) {
  // Regression: ticket_ was a 32-bit fetch_add.  It now deals each thread
  // its home range on the thread's first claim; plant it just below 2^32
  // and deal enough fresh threads to cross the boundary.
  ZcAsyncConfig cfg = fixed_workers();
  cfg.workers = 2;
  cfg.queue = 8;
  auto* backend = install(cfg);
  backend->set_claim_rotation_for_test((std::uint64_t{1} << 32) - 100);

  for (std::uint64_t t = 0; t < 200; ++t) {
    std::jthread([&, t] {
      for (std::uint64_t i = 0; i < 2; ++i) {
        EchoArgs args;
        args.in = t * 10 + i;
        CallFuture future = backend->submit(echo_desc(args));
        future.wait();
        EXPECT_EQ(args.out, args.in + 1) << t;
      }
    }).join();
  }
  EXPECT_EQ(backend->stats().total_calls(), 400u);
}

TEST_F(ZcAsyncTest, RedundantSetActiveWorkersWakesNobody) {
  ZcAsyncConfig cfg = fixed_workers();
  cfg.workers = 2;
  cfg.queue = 4;
  auto* backend = install(cfg);

  backend->set_active_workers(0);
  while (backend->stats().worker_sleeps.load() < 2) {
    std::this_thread::sleep_for(100us);
  }
  std::this_thread::sleep_for(2ms);
  const std::uint64_t baseline = backend->stats().worker_wakeups.load();
  for (int i = 0; i < 1'000; ++i) backend->set_active_workers(0);
  std::this_thread::sleep_for(2ms);
  EXPECT_EQ(backend->stats().worker_wakeups.load(), baseline);

  backend->set_active_workers(2);
  EchoArgs args;
  args.in = 5;
  EXPECT_EQ(enclave_->ocall(echo_id_, args), CallPath::kSwitchless);
  EXPECT_EQ(args.out, 6u);
}

TEST_F(ZcAsyncTest, SubmitsNeverWakeAPausedWorker) {
  // Regression: every submit woke any parked worker, paused ones included;
  // a paused worker then drained, parked again and never freed its CPU.
  // Paused ranges take no claims, so a submit wakes only its own range's
  // worker, and only when that worker is parked.
  ZcAsyncConfig cfg = fixed_workers();
  cfg.workers = 2;
  cfg.queue = 8;
  auto* backend = install(cfg);

  backend->set_active_workers(1);
  while (backend->stats().worker_sleeps.load() < 1) {
    std::this_thread::sleep_for(100us);
  }
  const std::uint64_t baseline = backend->stats().worker_wakeups.load();
  for (std::uint64_t i = 0; i < 1'000; ++i) {
    EchoArgs args;
    args.in = i;
    CallFuture future = backend->submit(echo_desc(args));
    future.wait();
    ASSERT_EQ(args.out, i + 1) << i;
  }
  EXPECT_LE(backend->stats().worker_wakeups.load() - baseline, 2u);
  EXPECT_EQ(backend->stats().total_calls(), 1'000u);
}

TEST_F(ZcAsyncTest, EveryCompletingSweepCountsOneFlush) {
  // batch=1: each sweep that completes calls is one flush, counted once
  // even when both workers race on a range.
  ZcAsyncConfig cfg = fixed_workers();
  cfg.workers = 2;
  cfg.queue = 8;
  auto* backend = install(cfg);

  for (std::uint64_t i = 0; i < 200; ++i) {
    EchoArgs args;
    args.in = i;
    ASSERT_EQ(enclave_->ocall(echo_id_, args), CallPath::kSwitchless);
  }
  const std::uint64_t flushes = backend->stats().batch_flushes.load();
  EXPECT_GE(flushes, 1u);
  EXPECT_LE(flushes, backend->stats().switchless_calls.load());
}

// --- Caller affinity ----------------------------------------------------------

TEST_F(ZcAsyncTest, BlockedOwnerIsHelpedByAnIdleWorker) {
  // Both calls land in the caller's home range; the gated one holds the
  // range's owner.  The other running worker, whose own range is idle,
  // must take the echo call, and it counts as switchless.
  ZcAsyncConfig cfg = fixed_workers();
  cfg.workers = 2;
  cfg.queue = 4;
  auto* backend = install(cfg);

  EchoArgs slow;
  slow.in = 7;
  CallFuture slow_future = backend->submit(gated_desc(slow));
  EchoArgs fast;
  fast.in = 1;
  const auto t0 = std::chrono::steady_clock::now();
  CallFuture fast_future = backend->submit(echo_desc(fast));
  ASSERT_NE(slow_future.handle().slot, FutureHandle::kInline);
  ASSERT_NE(fast_future.handle().slot, FutureHandle::kInline);
  EXPECT_EQ(slow_future.handle().slot / 2, fast_future.handle().slot / 2);

  const auto deadline = t0 + 2s;
  while (!fast_future.poll() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(50us);
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(fast_future.poll()) << "stranded behind its blocked owner";
  EXPECT_LT(elapsed, cfg.flush + 500ms);
  EXPECT_FALSE(slow_future.poll());

  gate_.store(true, std::memory_order_release);
  EXPECT_EQ(fast_future.wait(), CallPath::kSwitchless);
  EXPECT_EQ(fast.out, 2u);
  EXPECT_EQ(slow_future.wait(), CallPath::kSwitchless);
  EXPECT_EQ(slow.out, 70u);
  EXPECT_EQ(backend->stats().switchless_calls.load(), 2u);
  EXPECT_EQ(backend->stats().fallback_calls.load(), 0u);
}

TEST_F(ZcAsyncTest, BlockedOwnerIsHelpedByABusyWorkerOnceTheWindowPasses) {
  // As above, but the helper's own range never goes idle: a second caller
  // keeps four slow calls in flight there.  The busy helper must still take
  // the call stranded behind the held owner once it has waited out the
  // flush window.
  std::atomic<bool> held{false};
  const auto hold_id =
      enclave_->ocalls().register_fn("hold", [&](MarshalledCall& call) {
        held.store(true, std::memory_order_release);
        while (!gate_.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        static_cast<EchoArgs*>(call.args)->out = 70;
      });
  const auto slow_id =
      enclave_->ocalls().register_fn("slow", [](MarshalledCall& call) {
        auto* a = static_cast<EchoArgs*>(call.args);
        const auto until = std::chrono::steady_clock::now() + 2ms;
        while (std::chrono::steady_clock::now() < until) {
        }
        a->out = a->in + 1;
      });
  ZcAsyncConfig cfg = fixed_workers();
  cfg.workers = 2;
  cfg.queue = 8;
  auto* backend = install(cfg);

  // With worker 1 paused, this thread claims first (home range 0) and
  // the held call can only go to worker 0.
  backend->set_active_workers(1);
  EchoArgs gated;
  CallDesc hold = gated_desc(gated);
  hold.fn_id = hold_id;
  CallFuture gated_future = backend->submit(hold);
  ASSERT_NE(gated_future.handle().slot, FutureHandle::kInline);
  while (!held.load(std::memory_order_acquire)) std::this_thread::yield();
  backend->set_active_workers(2);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> busy_calls{0};
  std::atomic<int> failures{0};
  std::jthread busy([&] {
    std::array<EchoArgs, 4> ring{};
    std::array<CallFuture, 4> futures;
    CallDesc desc;
    desc.fn_id = slow_id;
    desc.args_size = sizeof(EchoArgs);
    for (std::uint64_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
      const std::size_t k = i % ring.size();
      if (futures[k].valid()) {
        futures[k].wait();
        if (ring[k].out != ring[k].in + 1) failures++;
        busy_calls.fetch_add(1, std::memory_order_relaxed);
      }
      ring[k].in = i;
      desc.args = &ring[k];
      futures[k] = backend->submit(desc);
      if (futures[k].handle().slot / 4 != 1) failures++;
    }
    for (auto& f : futures) f.wait();
  });
  while (busy_calls.load(std::memory_order_relaxed) < 10) {
    std::this_thread::sleep_for(100us);
  }

  EchoArgs fast;
  fast.in = 1;
  const auto t0 = std::chrono::steady_clock::now();
  CallFuture fast_future = backend->submit(echo_desc(fast));
  ASSERT_EQ(fast_future.handle().slot / 4, gated_future.handle().slot / 4);
  const auto deadline = t0 + 2s;
  while (!fast_future.poll() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(50us);
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(fast_future.poll()) << "stranded behind its blocked owner";
  EXPECT_LT(elapsed, cfg.flush + 500ms);
  EXPECT_FALSE(gated_future.poll());

  stop.store(true, std::memory_order_release);
  busy.join();
  gate_.store(true, std::memory_order_release);
  EXPECT_EQ(fast_future.wait(), CallPath::kSwitchless);
  EXPECT_EQ(fast.out, 2u);
  EXPECT_EQ(gated_future.wait(), CallPath::kSwitchless);
  EXPECT_EQ(gated.out, 70u);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(backend->stats().fallback_calls.load(), 0u);
}

TEST_F(ZcAsyncTest, SequentialCallerReusesTheSlotItsLastCollectFreed) {
  ZcAsyncConfig cfg = fixed_workers();
  cfg.workers = 2;
  cfg.queue = 8;
  auto* backend = install(cfg);

  std::uint32_t first = FutureHandle::kInline;
  for (std::uint64_t i = 0; i < 100; ++i) {
    EchoArgs args;
    args.in = i;
    CallFuture future = backend->submit(echo_desc(args));
    if (i == 0) first = future.handle().slot;
    ASSERT_EQ(future.handle().slot, first) << i;
    EXPECT_EQ(future.wait(), CallPath::kSwitchless);
    ASSERT_EQ(args.out, i + 1);
  }
}

TEST_F(ZcAsyncTest, PipelinedCallersStayInTheirHomeRanges) {
  // Two callers, four futures each, on two 4-slot ranges: each keeps to
  // its own home range, and the two homes differ.
  ZcAsyncConfig cfg = fixed_workers();
  cfg.workers = 2;
  cfg.queue = 8;
  auto* backend = install(cfg);

  constexpr unsigned kDepth = 4;
  std::array<std::vector<std::uint32_t>, 2> ranges;
  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> callers;
    for (unsigned t = 0; t < 2; ++t) {
      callers.emplace_back([&, t] {
        std::vector<EchoArgs> ring(kDepth);
        std::vector<CallFuture> futures(kDepth);
        for (std::uint64_t i = 0; i < 400; ++i) {
          const std::size_t k = i % kDepth;
          futures[k].wait();
          if (i >= kDepth && ring[k].out != ring[k].in + 1) failures++;
          ring[k].in = t * 10'000 + i;
          futures[k] = backend->submit(echo_desc(ring[k]));
          ranges[t].push_back(futures[k].handle().slot / kDepth);
        }
        for (std::size_t k = 0; k < kDepth; ++k) {
          futures[k].wait();
          if (ring[k].out != ring[k].in + 1) failures++;
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
  for (const auto& r : ranges) {
    for (std::uint32_t range : r) ASSERT_EQ(range, r.front());
  }
  EXPECT_NE(ranges[0].front(), ranges[1].front());
  EXPECT_EQ(backend->stats().switchless_calls.load(), 800u);
}

TEST_F(ZcAsyncTest, ACursorNeverOutlivesItsBackend) {
  // A backend built where a destroyed one lived (often the same address)
  // must not inherit this thread's cursor: every claim on the 4-slot
  // successor stays in its table.
  {
    ZcAsyncConfig cfg = fixed_workers();
    cfg.workers = 2;
    cfg.queue = 16;
    auto backend = make_zc_async_backend(*enclave_, cfg);
    backend->start();
    std::vector<EchoArgs> args(cfg.queue);
    std::vector<CallFuture> futures;
    for (auto& a : args) {
      futures.push_back(backend->submit(echo_desc(a)));
      EXPECT_NE(futures.back().handle().slot, FutureHandle::kInline);
    }
    for (auto& f : futures) f.wait();
    backend->stop();
  }

  ZcAsyncConfig cfg = fixed_workers();
  cfg.workers = 2;
  cfg.queue = 4;
  auto* backend = install(cfg);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EchoArgs args;
    args.in = i;
    CallFuture future = backend->submit(echo_desc(args));
    ASSERT_LT(future.handle().slot, cfg.queue) << i;
    EXPECT_EQ(future.wait(), CallPath::kSwitchless);
    ASSERT_EQ(args.out, i + 1);
  }
}

TEST_F(ZcAsyncTest, OneThreadAlternatingBetweenTwoBackendsStaysCorrect) {
  // The sharded router's steal probes drive several planes from one
  // thread: each keeps its own cursor, so claims stay in the right table.
  ZcAsyncConfig big = fixed_workers();
  big.workers = 2;
  big.queue = 16;
  ZcAsyncConfig small = big;
  small.queue = 4;
  auto a = make_zc_async_backend(*enclave_, big);
  auto b = make_zc_async_backend(*enclave_, small);
  a->start();
  b->start();

  for (std::uint64_t i = 0; i < 300; ++i) {
    EchoArgs args_a;
    EchoArgs args_b;
    args_a.in = i;
    args_b.in = i + 1'000;
    CallFuture fa = a->submit(echo_desc(args_a));
    CallFuture fb = b->submit(echo_desc(args_b));
    ASSERT_LT(fa.handle().slot, big.queue) << i;
    ASSERT_LT(fb.handle().slot, small.queue) << i;
    // Collect in alternating order, so each backend's slot is freed both
    // before and after the other's.
    if (i % 2 == 0) {
      EXPECT_EQ(fa.wait(), CallPath::kSwitchless);
      EXPECT_EQ(fb.wait(), CallPath::kSwitchless);
    } else {
      EXPECT_EQ(fb.wait(), CallPath::kSwitchless);
      EXPECT_EQ(fa.wait(), CallPath::kSwitchless);
    }
    ASSERT_EQ(args_a.out, i + 1);
    ASSERT_EQ(args_b.out, i + 1'001);
  }
  a->stop();
  b->stop();
  EXPECT_EQ(a->stats().switchless_calls.load(), 300u);
  EXPECT_EQ(b->stats().switchless_calls.load(), 300u);
  EXPECT_EQ(a->stats().in_flight.load(), 0u);
  EXPECT_EQ(b->stats().in_flight.load(), 0u);
}

TEST_F(ZcAsyncTest, NeverStartedBackendExecutesRegularly) {
  ZcAsyncConfig cfg;
  cfg.workers = 1;
  auto backend = make_zc_async_backend(*enclave_, cfg);
  EchoArgs args;
  args.in = 10;
  EXPECT_EQ(backend->invoke(echo_desc(args)), CallPath::kRegular);
  EXPECT_EQ(args.out, 11u);
  EXPECT_EQ(backend->stats().regular_calls.load(), 1u);
}

TEST_F(ZcAsyncTest, OversizedRequestFallsBack) {
  ZcAsyncConfig cfg = fixed_workers();
  cfg.workers = 1;
  cfg.queue = 2;
  cfg.slot_pool_bytes = 256;
  auto* backend = install(cfg);

  std::vector<std::uint8_t> payload(4'096, 0xAB);
  EchoArgs args;
  args.in = 1;
  CallDesc desc = echo_desc(args);
  desc.in_payload = payload.data();
  desc.in_size = payload.size();
  CallFuture future = backend->submit(desc);
  EXPECT_EQ(future.handle().slot, FutureHandle::kInline);
  EXPECT_EQ(future.wait(), CallPath::kFallback);
  EXPECT_EQ(args.out, 2u);
}

TEST_F(ZcAsyncTest, SmallFramesNeverTouchTheSlotPool) {
  // A frame that fits the slot's inline request area travels in the
  // slot's own lines; only a larger one takes the slot's bump pool.
  ZcAsyncConfig cfg = fixed_workers();
  cfg.workers = 1;
  cfg.queue = 4;
  auto* backend = install(cfg);
  const auto pooled = [&] {
    std::uint64_t n = 0;
    for (unsigned i = 0; i < cfg.queue; ++i) {
      n += backend->slot_pool(i).reset_count();
    }
    return n;
  };
  const auto xor_id =
      enclave_->ocalls().register_fn("xor", [](MarshalledCall& c) {
        auto* p = static_cast<std::uint8_t*>(c.payload);
        for (std::size_t i = 0; i < c.payload_size; ++i) p[i] ^= 0xFF;
      });
  const auto round_trip = [&](std::size_t bytes, std::uint8_t seed) {
    std::vector<std::uint8_t> in(bytes, seed);
    std::vector<std::uint8_t> out(bytes);
    EchoArgs args;
    CallDesc desc;
    desc.fn_id = xor_id;
    desc.args = &args;
    desc.args_size = sizeof(args);
    desc.in_payload = in.data();
    desc.in_size = in.size();
    desc.out_payload = out.data();
    desc.out_size = out.size();
    EXPECT_EQ(backend->submit(desc).wait(), CallPath::kSwitchless);
    for (const std::uint8_t b : out) {
      ASSERT_EQ(b, static_cast<std::uint8_t>(seed ^ 0xFF));
    }
  };
  for (unsigned i = 0; i < 1'000; ++i) {
    round_trip(16, static_cast<std::uint8_t>(i));
  }
  EXPECT_EQ(pooled(), 0u);
  round_trip(kInlineFrameBytes, 7);
  EXPECT_EQ(pooled(), 1u);
}

TEST_F(ZcAsyncTest, SmallFramesNeverTouchTheSlab) {
  ZcAsyncConfig cfg = fixed_workers();
  cfg.workers = 1;
  cfg.queue = 4;
  cfg.pool = FramePoolKind::kSlab;
  auto* backend = install(cfg);
  const auto slab_frames = [&] {
    return backend->stats().slab_hits.load() +
           backend->stats().slab_misses.load();
  };
  for (std::uint64_t i = 0; i < 1'000; ++i) {
    EchoArgs args;
    args.in = i;
    ASSERT_EQ(backend->submit(echo_desc(args)).wait(), CallPath::kSwitchless);
    ASSERT_EQ(args.out, i + 1);
  }
  EXPECT_EQ(slab_frames(), 0u);
  std::vector<std::uint8_t> payload(kInlineFrameBytes, 0xAB);
  EchoArgs args;
  CallDesc desc = echo_desc(args);
  desc.in_payload = payload.data();
  desc.in_size = payload.size();
  EXPECT_EQ(backend->submit(desc).wait(), CallPath::kSwitchless);
  EXPECT_EQ(slab_frames(), 1u);
}

TEST_F(ZcAsyncTest, FallbackReasonsSumToFallbackCalls) {
  // One refusal of each kind: the table full (busy), no active worker, and
  // a frame larger than its slot pool.
  ZcAsyncConfig cfg = fixed_workers();
  cfg.workers = 1;
  cfg.queue = 1;
  cfg.slot_pool_bytes = 256;
  auto* backend = install(cfg);

  EchoArgs held;
  CallFuture held_future = backend->submit(gated_desc(held));
  ASSERT_NE(held_future.handle().slot, FutureHandle::kInline);
  EchoArgs busy;
  EXPECT_EQ(backend->submit(echo_desc(busy)).wait(), CallPath::kFallback);
  gate_.store(true, std::memory_order_release);
  held_future.wait();

  std::vector<std::uint8_t> payload(4'096, 0xAB);
  EchoArgs big;
  CallDesc desc = echo_desc(big);
  desc.in_payload = payload.data();
  desc.in_size = payload.size();
  EXPECT_EQ(backend->submit(desc).wait(), CallPath::kFallback);

  backend->set_active_workers(0);
  EchoArgs idle;
  EXPECT_EQ(backend->submit(echo_desc(idle)).wait(), CallPath::kFallback);

  const BackendStatsSnapshot s = backend->stats().snapshot();
  EXPECT_EQ(s.fallback_busy, 1u);
  EXPECT_EQ(s.fallback_oversize, 1u);
  EXPECT_EQ(s.fallback_no_worker, 1u);
  EXPECT_EQ(s.fallback_no_worker + s.fallback_busy + s.fallback_oversize,
            s.fallback_calls);
}

// --- The configless scheduler on the plane ------------------------------------

TEST_F(ZcAsyncTest, IdlePlaneParksEveryWorker) {
  ZcAsyncConfig cfg;  // the scheduler runs, with workers=2 as its maximum
  cfg.workers = 2;
  cfg.queue = 8;
  auto* backend = install(cfg);
  ASSERT_NE(backend->scheduler(), nullptr);

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
    backend->submit(echo_desc(args)).wait();
    ASSERT_EQ(args.out, i + 1);
  }
}

TEST(ZcAsyncScheduler, SaturatingPipelinedLoadKeepsTheMaximum) {
  // A refused call pays a 60,000-cycle transition, several times what two
  // spinning workers cost per call under this load, yet short against a
  // probe window: the scheduler must keep both workers.
  SimConfig sim;
  sim.tes_cycles = 60'000;
  sim.logical_cpus = 8;
  auto enclave = Enclave::create(sim);
  const auto echo_id =
      enclave->ocalls().register_fn("echo", [](MarshalledCall& call) {
        auto* a = static_cast<EchoArgs*>(call.args);
        a->out = a->in + 1;
      });
  ZcAsyncConfig cfg;
  cfg.workers = 2;
  cfg.queue = 8;
  auto owned = make_zc_async_backend(*enclave, cfg);
  ZcAsyncBackend* backend = owned.get();
  enclave->set_backend(std::move(owned));

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  unsigned streak = 0;
  {
    std::vector<std::jthread> callers;
    for (unsigned t = 0; t < 2; ++t) {
      callers.emplace_back([&, t] {
        constexpr unsigned kDepth = 4;
        std::vector<EchoArgs> ring(kDepth);
        std::vector<CallFuture> futures(kDepth);
        for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed);
             ++i) {
          const std::size_t k = i % kDepth;
          futures[k].wait();
          if (i >= kDepth && ring[k].out != ring[k].in + 1) failures++;
          ring[k].in = t * 1'000'000'000 + i;
          CallDesc desc;
          desc.fn_id = echo_id;
          desc.args = &ring[k];
          desc.args_size = sizeof(EchoArgs);
          futures[k] = backend->submit(desc);
        }
        for (auto& f : futures) f.wait();
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

TEST_F(ZcAsyncTest, SchedulerChurnAndStopNeverStrandOrRepeatACall) {
  // Scheduler probes and decisions race pipelined futures, a thread
  // churning set_active_workers, and finally stop() with calls in flight.
  // Every call must run exactly once and resolve its own future.
  constexpr unsigned kCallers = 2;
  constexpr std::uint64_t kPerCaller = 1u << 18;
  std::vector<std::atomic<std::uint32_t>> runs(kCallers * kPerCaller);
  const auto count_id =
      enclave_->ocalls().register_fn("count", [&](MarshalledCall& call) {
        auto* a = static_cast<EchoArgs*>(call.args);
        runs[a->in].fetch_add(1, std::memory_order_relaxed);
        a->out = a->in + 1;
      });
  ZcAsyncConfig cfg;
  cfg.workers = 2;
  cfg.queue = 8;
  auto* backend = install(cfg);

  std::atomic<bool> stop_churn{false};
  std::atomic<bool> stop_callers{false};
  std::atomic<int> failures{0};
  std::array<std::uint64_t, kCallers> issued{};
  {
    std::vector<std::jthread> threads;
    for (unsigned t = 0; t < kCallers; ++t) {
      threads.emplace_back([&, t] {
        constexpr unsigned kDepth = 4;
        std::vector<EchoArgs> ring(kDepth);
        std::vector<CallFuture> futures(kDepth);
        std::uint64_t i = 0;
        for (; i < kPerCaller && !stop_callers.load(std::memory_order_relaxed);
             ++i) {
          const std::size_t k = i % kDepth;
          futures[k].wait();
          if (i >= kDepth && ring[k].out != ring[k].in + 1) failures++;
          ring[k].in = t * kPerCaller + i;
          CallDesc desc;
          desc.fn_id = count_id;
          desc.args = &ring[k];
          desc.args_size = sizeof(EchoArgs);
          futures[k] = backend->submit(desc);
        }
        for (std::size_t k = 0; k < kDepth; ++k) {
          futures[k].wait();
          if (futures[k].valid() && ring[k].out != ring[k].in + 1) failures++;
        }
        issued[t] = i;
      });
    }
    threads.emplace_back([&] {
      for (unsigned m = 0; !stop_churn.load(std::memory_order_relaxed); ++m) {
        backend->set_active_workers(m % 3);
        std::this_thread::sleep_for(3ms);
      }
    });
    // A few quanta of decisions and probes, then stop under load.
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (backend->scheduler()->config_phases() < 4 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    stop_churn.store(true);
    backend->stop();
    std::this_thread::sleep_for(2ms);  // calls after stop() run regularly
    stop_callers.store(true);
  }
  EXPECT_EQ(failures.load(), 0);
  std::uint64_t total = 0;
  for (unsigned t = 0; t < kCallers; ++t) {
    total += issued[t];
    for (std::uint64_t i = 0; i < issued[t]; ++i) {
      ASSERT_EQ(runs[t * kPerCaller + i].load(), 1u)
          << "caller " << t << " call " << i;
    }
  }
  const BackendStatsSnapshot s = backend->stats().snapshot();
  EXPECT_EQ(s.total_calls(), total);
  EXPECT_EQ(s.fallback_no_worker + s.fallback_busy + s.fallback_oversize,
            s.fallback_calls);
  EXPECT_EQ(s.in_flight, 0u);
}

}  // namespace
}  // namespace zc
