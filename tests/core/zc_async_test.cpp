// Future-based ZC backend: submit()/wait()/poll() semantics, completion
// ordering under out-of-order worker finishes, generation-counter ABA
// protection, double-wait and drop-without-wait future lifetime,
// queue-full backpressure and pause/resume churn with in-flight futures.
#include "core/zc_async.hpp"

#include <gtest/gtest.h>

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
  ZcAsyncConfig cfg;
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
  ZcAsyncConfig cfg;
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
  ZcAsyncConfig cfg;
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
  ZcAsyncConfig cfg;
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
  ZcAsyncConfig cfg;
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
  ZcAsyncConfig cfg;
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
  ZcAsyncConfig cfg;
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
  ZcAsyncConfig cfg;
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
  ZcAsyncConfig cfg;
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
  ZcAsyncConfig cfg;
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
  ZcAsyncConfig cfg;
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
  ZcAsyncConfig cfg;
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
    ZcAsyncConfig cfg;
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
  // Regression: ticket_ was a 32-bit fetch_add.  A long-lived backend
  // wrapping it mid-run corrupted the rotation (and, had generations been
  // derived from it, the ABA protection).  Plant the counter just below
  // 2^32 and drive enough traffic through to cross the boundary.
  ZcAsyncConfig cfg;
  cfg.workers = 2;
  cfg.queue = 8;
  auto* backend = install(cfg);
  backend->set_claim_rotation_for_test((std::uint64_t{1} << 32) - 100);

  for (std::uint64_t i = 0; i < 400; ++i) {
    EchoArgs args;
    args.in = i;
    CallFuture future = backend->submit(echo_desc(args));
    future.wait();
    ASSERT_EQ(args.out, i + 1) << i;
  }
  EXPECT_EQ(backend->stats().total_calls(), 400u);
}

TEST_F(ZcAsyncTest, RedundantSetActiveWorkersWakesNobody) {
  ZcAsyncConfig cfg;
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
  ZcAsyncConfig cfg;
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

}  // namespace
}  // namespace zc
