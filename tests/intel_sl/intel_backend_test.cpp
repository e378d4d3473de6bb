#include "intel_sl/intel_backend.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "../test_util.hpp"
#include "common/cycles.hpp"
#include "sgx/enclave.hpp"

namespace zc::intel {
namespace {

using namespace std::chrono_literals;

struct NopArgs {
  int x = 0;
};

struct SpinArgs {
  std::uint64_t cycles = 0;
};

// On few-core hosts the SDK's default rbf budget (20k pauses) expires
// before a worker thread is ever scheduled, turning every switchless
// attempt into a fallback.  Tests asserting the switchless *path* use an
// effectively unbounded rbf so the caller waits out the scheduler; the
// rbf-expiry behaviour itself is covered by RbfExpiryFallsBackWhenWorkersBusy.
constexpr std::uint32_t kWaitForWorker = 2'000'000'000;

class IntelBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimConfig cfg;
    cfg.tes_cycles = 5'000;
    enclave_ = Enclave::create(cfg);
    nop_id_ = enclave_->ocalls().register_fn(
        "nop", [this](MarshalledCall& call) {
          auto* a = static_cast<NopArgs*>(call.args);
          a->x += 1;
          executions_.fetch_add(1);
        });
    spin_id_ = enclave_->ocalls().register_fn(
        "spin", [](MarshalledCall& call) {
          burn_cycles(static_cast<SpinArgs*>(call.args)->cycles);
        });
  }

  IntelSwitchlessBackend* install(IntelSlConfig cfg) {
    auto backend = std::make_unique<IntelSwitchlessBackend>(*enclave_, cfg);
    auto* raw = backend.get();
    enclave_->set_backend(std::move(backend));
    return raw;
  }

  std::unique_ptr<Enclave> enclave_;
  std::uint32_t nop_id_ = 0;
  std::uint32_t spin_id_ = 0;
  std::atomic<int> executions_{0};
};

TEST_F(IntelBackendTest, NonSwitchlessIdTakesRegularPath) {
  IntelSlConfig cfg;
  cfg.num_workers = 2;
  // switchless set is empty
  auto* backend = install(cfg);
  NopArgs args;
  EXPECT_EQ(enclave_->ocall(nop_id_, args), CallPath::kRegular);
  EXPECT_EQ(args.x, 1);
  EXPECT_EQ(backend->stats().regular_calls.load(), 1u);
  EXPECT_EQ(backend->stats().switchless_calls.load(), 0u);
  EXPECT_EQ(enclave_->transitions().eexit_count(), 1u);
}

TEST_F(IntelBackendTest, SwitchlessCallAvoidsTransition) {
  IntelSlConfig cfg;
  cfg.num_workers = 2;
  cfg.retries_before_fallback = kWaitForWorker;
  cfg.switchless_fns = {nop_id_};
  auto* backend = install(cfg);
  NopArgs args;
  const CallPath path = enclave_->ocall(nop_id_, args);
  EXPECT_EQ(path, CallPath::kSwitchless);
  EXPECT_EQ(args.x, 1);
  EXPECT_EQ(backend->stats().switchless_calls.load(), 1u);
  EXPECT_EQ(enclave_->transitions().eexit_count(), 0u);  // no transition!
}

TEST_F(IntelBackendTest, ZeroWorkersDisablesSwitchless) {
  IntelSlConfig cfg;
  cfg.num_workers = 0;
  cfg.switchless_fns = {nop_id_};
  install(cfg);
  NopArgs args;
  EXPECT_EQ(enclave_->ocall(nop_id_, args), CallPath::kRegular);
  EXPECT_EQ(args.x, 1);
}

TEST_F(IntelBackendTest, ManySwitchlessCallsAllExecute) {
  IntelSlConfig cfg;
  cfg.num_workers = 2;
  cfg.switchless_fns = {nop_id_};
  auto* backend = install(cfg);
  NopArgs args;
  constexpr int kCalls = 2'000;
  for (int i = 0; i < kCalls; ++i) enclave_->ocall(nop_id_, args);
  EXPECT_EQ(args.x, kCalls);
  EXPECT_EQ(executions_.load(), kCalls);
  EXPECT_EQ(backend->stats().total_calls(), static_cast<unsigned>(kCalls));
}

TEST_F(IntelBackendTest, RbfExpiryFallsBackWhenWorkersBusy) {
  // Needs the worker to *accept* the occupier's long call concurrently;
  // with one shared core that acceptance is a scheduler coin-flip.
  ZC_SKIP_IF_FEWER_CORES_THAN(2);
  // The occupier's own call can hit the short rbf and run on the occupier
  // thread, leaving the worker idle; only a handler running elsewhere
  // proves the worker is busy.  A fallen-back run returns at once, so the
  // occupier re-submits while the worker its submit woke is still awake.
  static thread_local bool on_occupier = false;
  std::atomic<bool> worker_busy{false};
  const auto occupy_id = enclave_->ocalls().register_fn(
      "occupy", [&worker_busy](MarshalledCall& call) {
        if (on_occupier) return;
        worker_busy.store(true);
        burn_cycles(static_cast<SpinArgs*>(call.args)->cycles);
      });
  IntelSlConfig cfg;
  cfg.num_workers = 1;
  cfg.retries_before_fallback = 100;  // short rbf for the test
  cfg.switchless_fns = {nop_id_, occupy_id};
  auto* backend = install(cfg);

  // Occupy the single worker with a long call from another thread,
  // re-issuing it for as long as it falls back.
  std::jthread occupier([&](const std::stop_token& st) {
    on_occupier = true;
    while (!worker_busy.load() && !st.stop_requested()) {
      SpinArgs args;
      args.cycles = 400'000'000;  // ~100 ms
      enclave_->ocall(occupy_id, args);
    }
  });
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!worker_busy.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(worker_busy.load()) << "the worker never accepted the call";

  NopArgs args;
  const CallPath path = enclave_->ocall(nop_id_, args);
  EXPECT_EQ(path, CallPath::kFallback);
  EXPECT_EQ(args.x, 1);  // still executed, via the regular path
  EXPECT_GE(backend->stats().fallback_calls.load(), 1u);
}

TEST_F(IntelBackendTest, OversizedFrameFallsBack) {
  IntelSlConfig cfg;
  cfg.num_workers = 1;
  cfg.slot_frame_bytes = 64;  // tiny slots
  cfg.switchless_fns = {nop_id_};
  install(cfg);
  NopArgs args;
  std::vector<char> big(4096, 'a');
  const CallPath path =
      enclave_->ocall_in(nop_id_, args, big.data(), big.size());
  EXPECT_EQ(path, CallPath::kFallback);
  EXPECT_EQ(args.x, 1);
}

TEST_F(IntelBackendTest, WorkersSleepAfterRbsAndWakeOnSubmit) {
  IntelSlConfig cfg;
  cfg.num_workers = 2;
  cfg.retries_before_fallback = kWaitForWorker;
  cfg.retries_before_sleep = 200;  // sleep almost immediately when idle
  cfg.switchless_fns = {nop_id_};
  auto* backend = install(cfg);

  // Idle long enough for both workers to park.
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (backend->sleeping_workers() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(backend->sleeping_workers(), 2u);
  EXPECT_GE(backend->stats().worker_sleeps.load(), 2u);

  // A switchless call must wake a worker and still complete.
  NopArgs args;
  EXPECT_EQ(enclave_->ocall(nop_id_, args), CallPath::kSwitchless);
  EXPECT_EQ(args.x, 1);
  EXPECT_GE(backend->stats().worker_wakeups.load(), 1u);
}

TEST_F(IntelBackendTest, PayloadsFlowThroughWorkers) {
  const auto echo_id = enclave_->ocalls().register_fn(
      "echo", [](MarshalledCall& call) {
        auto* p = static_cast<char*>(call.payload);
        for (std::size_t i = 0; i < call.payload_size; ++i) {
          p[i] = static_cast<char>(p[i] + 1);
        }
      });
  IntelSlConfig cfg;
  cfg.num_workers = 1;
  cfg.retries_before_fallback = kWaitForWorker;
  cfg.switchless_fns = {echo_id};
  install(cfg);

  NopArgs args;
  std::string data = "abc";
  std::string out(3, '\0');
  CallDesc desc;
  desc.fn_id = echo_id;
  desc.args = &args;
  desc.args_size = sizeof(args);
  desc.in_payload = data.data();
  desc.in_size = data.size();
  desc.out_payload = out.data();
  desc.out_size = out.size();
  EXPECT_EQ(enclave_->ocall(desc), CallPath::kSwitchless);
  EXPECT_EQ(out, "bcd");
}

TEST_F(IntelBackendTest, StopDrainsAndFurtherCallsAreRegular) {
  IntelSlConfig cfg;
  cfg.num_workers = 2;
  cfg.switchless_fns = {nop_id_};
  auto* backend = install(cfg);
  NopArgs args;
  enclave_->ocall(nop_id_, args);
  backend->stop();
  EXPECT_EQ(backend->active_workers(), 0u);
  EXPECT_EQ(enclave_->ocall(nop_id_, args), CallPath::kRegular);
  EXPECT_EQ(args.x, 2);
}

TEST_F(IntelBackendTest, StartStopAreIdempotent) {
  IntelSlConfig cfg;
  cfg.num_workers = 1;
  cfg.switchless_fns = {nop_id_};
  auto* backend = install(cfg);
  backend->start();  // second start: no-op
  backend->stop();
  backend->stop();  // second stop: no-op
  NopArgs args;
  EXPECT_EQ(enclave_->ocall(nop_id_, args), CallPath::kRegular);
}

TEST_F(IntelBackendTest, ConcurrentCallersAreAllServed) {
  IntelSlConfig cfg;
  cfg.num_workers = 4;
  cfg.switchless_fns = {nop_id_};
  auto* backend = install(cfg);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        NopArgs args;
        for (int i = 0; i < kPerThread; ++i) enclave_->ocall(nop_id_, args);
      });
    }
  }
  EXPECT_EQ(executions_.load(), kThreads * kPerThread);
  EXPECT_EQ(backend->stats().total_calls(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(IntelBackendTest, DefaultsMatchSdkV214) {
  IntelSlConfig cfg;
  EXPECT_EQ(cfg.retries_before_fallback, 20'000u);
  EXPECT_EQ(cfg.retries_before_sleep, 20'000u);
  EXPECT_EQ(cfg.num_workers, 2u);
}

}  // namespace
}  // namespace zc::intel
