// Sharded switchless router: shard routing policies (round_robin and the
// load-aware least_loaded), bounded cross-shard stealing, per-shard
// isolation, fallback behaviour, generic inner-backend composition (nested
// `inner=` specs) and the trusted-worker (ecall) direction.
#include "core/zc_sharded.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "core/backend_registry.hpp"
#include "core/zc_async.hpp"
#include "core/zc_batched.hpp"

namespace zc {
namespace {

struct EchoArgs {
  std::uint64_t in = 0;
  std::uint64_t out = 0;
};

class ZcShardedTest : public ::testing::Test {
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
    gate_id_ = enclave_->ocalls().register_fn("gate", [this](MarshalledCall&) {
      gate_entered_.fetch_add(1, std::memory_order_acq_rel);
      while (!gate_open_.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
  }

  // Installs a scheduler-off sharded backend and returns the raw pointer.
  ZcShardedBackend* install(unsigned shards, ShardPolicy policy,
                            unsigned workers_per_shard, bool steal = false) {
    ZcShardedConfig cfg;
    cfg.shards = shards;
    cfg.policy = policy;
    cfg.steal = steal;
    cfg.shard.scheduler_enabled = false;
    cfg.shard.with_initial_workers(workers_per_shard);
    auto backend = make_zc_sharded_backend(*enclave_, cfg);
    auto* raw = backend.get();
    enclave_->set_backend(std::move(backend));
    return raw;
  }

  // Occupies one worker of `shard` with a gate call issued directly at
  // that shard (bypassing routing), and returns once the worker is inside
  // the handler — i.e. once the shard's in_flight gauge reflects the
  // stall.  Stackable (each stall pins one more worker); release_stall()
  // lets every gate call finish.
  std::jthread stall_shard(ZcShardedBackend& backend, unsigned shard) {
    const unsigned target = ++stalls_issued_;
    std::jthread holder([this, &backend, shard] {
      EchoArgs args;
      CallDesc desc;
      desc.fn_id = gate_id_;
      desc.args = &args;
      desc.args_size = sizeof(args);
      backend.shard(shard).invoke(desc);
    });
    while (gate_entered_.load(std::memory_order_acquire) < target) {
      std::this_thread::yield();
    }
    return holder;
  }

  void release_stall() { gate_open_.store(true, std::memory_order_release); }

  std::unique_ptr<Enclave> enclave_;
  std::uint32_t echo_id_ = 0;
  std::uint32_t gate_id_ = 0;
  std::atomic<unsigned> gate_entered_{0};
  std::atomic<bool> gate_open_{false};
  unsigned stalls_issued_ = 0;
};

TEST_F(ZcShardedTest, RoundRobinSpreadsCallsAcrossShards) {
  auto* backend = install(2, ShardPolicy::kRoundRobin, 1);
  for (std::uint64_t i = 0; i < 200; ++i) {
    EchoArgs args;
    args.in = i;
    EXPECT_EQ(enclave_->ocall(echo_id_, args), CallPath::kSwitchless);
    EXPECT_EQ(args.out, i + 1);
  }
  const auto served = backend->per_shard_served();
  ASSERT_EQ(served.size(), 2u);
  // A single caller alternates deterministically: both shards serve half.
  EXPECT_EQ(served[0], 100u);
  EXPECT_EQ(served[1], 100u);
  EXPECT_EQ(backend->stats().switchless_calls.load(), 200u);
}

TEST_F(ZcShardedTest, AggregatesActiveWorkersAcrossShards) {
  auto* backend = install(3, ShardPolicy::kRoundRobin, 2);
  EXPECT_EQ(backend->shard_count(), 3u);
  EXPECT_EQ(backend->active_workers(), 6u);
  backend->set_active_workers(1);
  EXPECT_EQ(backend->active_workers(), 3u);
}

TEST_F(ZcShardedTest, ZeroActiveWorkersFallsBackEverywhere) {
  auto* backend = install(2, ShardPolicy::kRoundRobin, 0);
  EchoArgs args;
  args.in = 7;
  EXPECT_EQ(enclave_->ocall(echo_id_, args), CallPath::kFallback);
  EXPECT_EQ(args.out, 8u);  // fallback still executes the call
  EXPECT_EQ(backend->stats().fallback_calls.load(), 1u);
}

TEST_F(ZcShardedTest, ResultsSurviveConcurrentCallers) {
  install(2, ShardPolicy::kRoundRobin, 2);
  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> callers;
    for (int t = 0; t < 4; ++t) {
      callers.emplace_back([&, t] {
        for (std::uint64_t i = 0; i < 300; ++i) {
          EchoArgs args;
          args.in = static_cast<std::uint64_t>(t) * 1'000 + i;
          enclave_->ocall(echo_id_, args);
          if (args.out != args.in + 1) failures.fetch_add(1);
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ZcShardedTest, LeastLoadedIdleTiesBreakToTheLowestShard) {
  auto* backend = install(3, ShardPolicy::kLeastLoaded, 1);
  for (std::uint64_t i = 0; i < 50; ++i) {
    EchoArgs args;
    args.in = i;
    EXPECT_EQ(enclave_->ocall(echo_id_, args), CallPath::kSwitchless);
    EXPECT_EQ(args.out, i + 1);
  }
  // A sequential caller never observes load anywhere: every call routes
  // to shard 0 deterministically.
  const auto served = backend->per_shard_served();
  EXPECT_EQ(served[0], 50u);
  EXPECT_EQ(served[1] + served[2], 0u);
}

TEST_F(ZcShardedTest, LeastLoadedRoutesAwayFromAStalledShard) {
  auto* backend = install(2, ShardPolicy::kLeastLoaded, 1);
  // Occupy shard 0's only worker with a long call: its in_flight gauge
  // stays at 1 while the gate is closed.
  std::jthread holder = stall_shard(*backend, 0);
  EXPECT_EQ(backend->shard(0).stats().in_flight.load(), 1u);

  // Every routed call must now pick shard 1 — no fallbacks, no calls
  // queued behind the stalled worker (a count-blind policy would send
  // half of them to shard 0 and pay a fallback transition for each).
  for (std::uint64_t i = 0; i < 100; ++i) {
    EchoArgs args;
    args.in = i;
    EXPECT_EQ(enclave_->ocall(echo_id_, args), CallPath::kSwitchless);
    EXPECT_EQ(args.out, i + 1);
  }
  const auto served = backend->per_shard_served();
  EXPECT_EQ(served[1], 100u);
  EXPECT_EQ(backend->stats().fallback_calls.load(), 0u);

  release_stall();
  holder.join();
  EXPECT_EQ(backend->shard(0).stats().in_flight.load(), 0u);
}

TEST_F(ZcShardedTest, StealServesFromANonPrimaryShard) {
  // Round-robin tickets start at shard 0, whose only worker is stalled:
  // with steal=on the first call must be served by shard 1's idle worker
  // instead of falling back.
  auto* backend =
      install(2, ShardPolicy::kRoundRobin, 1, /*steal=*/true);
  std::jthread holder = stall_shard(*backend, 0);

  EchoArgs args;
  args.in = 7;
  EXPECT_EQ(enclave_->ocall(echo_id_, args), CallPath::kSwitchless);
  EXPECT_EQ(args.out, 8u);
  EXPECT_EQ(backend->stats().steals.load(), 1u);
  EXPECT_EQ(backend->stats().fallback_calls.load(), 0u);

  release_stall();
  holder.join();
}

TEST_F(ZcShardedTest, StealOffPreservesStrictIsolation) {
  // Identical situation without steal=on: the call routed to the stalled
  // shard falls back immediately (§IV-C per shard) and never probes the
  // idle neighbour.
  auto* backend =
      install(2, ShardPolicy::kRoundRobin, 1, /*steal=*/false);
  std::jthread holder = stall_shard(*backend, 0);

  EchoArgs args;
  args.in = 7;
  EXPECT_EQ(enclave_->ocall(echo_id_, args), CallPath::kFallback);
  EXPECT_EQ(args.out, 8u);  // the fallback still executed the call
  EXPECT_EQ(backend->stats().steals.load(), 0u);
  const auto served = backend->per_shard_served();
  EXPECT_EQ(served[1], 0u);

  release_stall();
  holder.join();
}

TEST_F(ZcShardedTest, StealFallsBackWhenNoShardIsIdle) {
  auto* backend =
      install(1, ShardPolicy::kRoundRobin, 1, /*steal=*/true);
  std::jthread holder = stall_shard(*backend, 0);
  EchoArgs args;
  args.in = 1;
  EXPECT_EQ(enclave_->ocall(echo_id_, args), CallPath::kFallback);
  EXPECT_EQ(args.out, 2u);
  EXPECT_EQ(backend->stats().steals.load(), 0u);
  release_stall();
  holder.join();
}

TEST_F(ZcShardedTest, SlabShardsStealFramesLargerThanThePoolBytes) {
  // pool_bytes sizes only the bump pools: a slab shard never refuses a
  // frame for size, so an 8 KB frame over pool_bytes=4096 must be served
  // switchlessly, and stolen when its primary shard is stalled.
  install_backend_spec(*enclave_,
                       "zc_sharded:shards=2;workers=1;scheduler=off;"
                       "pool=slab;pool_bytes=4096;steal=on");
  auto* backend = dynamic_cast<ZcShardedBackend*>(&enclave_->backend());
  ASSERT_NE(backend, nullptr);
  const std::vector<std::uint8_t> payload(8 * 1024, 0x5a);

  // Round robin: the first call routes to shard 0, the second to shard 1.
  EchoArgs args;
  args.in = 1;
  EXPECT_EQ(
      enclave_->ocall_in(echo_id_, args, payload.data(), payload.size()),
      CallPath::kSwitchless);
  EXPECT_EQ(args.out, 2u);

  std::jthread holder = stall_shard(*backend, 1);
  args.in = 7;
  EXPECT_EQ(
      enclave_->ocall_in(echo_id_, args, payload.data(), payload.size()),
      CallPath::kSwitchless);
  EXPECT_EQ(args.out, 8u);
  EXPECT_EQ(backend->stats().steals.load(), 1u);
  EXPECT_EQ(backend->stats().fallback_calls.load(), 0u);
  release_stall();
  holder.join();
}

TEST_F(ZcShardedTest, StealPreservesResultsUnderChurn) {
  // Work stealing racing worker pause/resume churn: every call must still
  // return its own result exactly once (the equivalence property), with
  // path counters agreeing with the issue count.
  auto* backend =
      install(2, ShardPolicy::kLeastLoaded, 2, /*steal=*/true);
  std::atomic<bool> stop{false};
  std::jthread churner([&] {
    unsigned m = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      backend->set_active_workers(m % 3);  // 0, 1, 2 workers per shard
      ++m;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> issued{0};
  {
    std::vector<std::jthread> callers;
    for (int t = 0; t < 4; ++t) {
      callers.emplace_back([&, t] {
        for (std::uint64_t i = 0; i < 300; ++i) {
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
  // Quiesced: no call is still counted as occupying a worker anywhere.
  for (unsigned s = 0; s < backend->shard_count(); ++s) {
    EXPECT_EQ(backend->shard(s).stats().in_flight.load(), 0u) << s;
  }
}

TEST_F(ZcShardedTest, PolicyAndStealReachTheBackendFromTheSpecPlane) {
  install_backend_spec(
      *enclave_,
      "zc_sharded:shards=2;policy=least_loaded;steal=on;scheduler=off;"
      "workers=1");
  auto* backend = dynamic_cast<ZcShardedBackend*>(&enclave_->backend());
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->config().policy, ShardPolicy::kLeastLoaded);
  EXPECT_TRUE(backend->config().steal);
  EXPECT_STREQ(to_string(backend->config().policy), "least_loaded");
  EchoArgs args;
  args.in = 1;
  EXPECT_EQ(enclave_->ocall(echo_id_, args), CallPath::kSwitchless);
  EXPECT_EQ(args.out, 2u);
}

TEST_F(ZcShardedTest, EcallDirectionServesTrustedFunctions) {
  const auto square_id =
      enclave_->ecalls().register_fn("square", [](MarshalledCall& call) {
        auto* a = static_cast<EchoArgs*>(call.args);
        a->out = a->in * a->in;
      });
  ZcShardedConfig cfg;
  cfg.shards = 2;
  cfg.shard.direction = CallDirection::kEcall;
  cfg.shard.scheduler_enabled = false;
  cfg.shard.with_initial_workers(1);
  enclave_->set_ecall_backend(make_zc_sharded_backend(*enclave_, cfg));
  EXPECT_STREQ(enclave_->ecall_backend().name(), "zc_sharded-ecall");

  EchoArgs args;
  args.in = 9;
  EXPECT_EQ(enclave_->ecall_fn(square_id, args), CallPath::kSwitchless);
  EXPECT_EQ(args.out, 81u);
  EXPECT_EQ(enclave_->transitions().ecall_count(), 0u);
}

TEST_F(ZcShardedTest, PerShardSchedulersRunIndependently) {
  ZcShardedConfig cfg;
  cfg.shards = 2;
  cfg.shard.quantum = std::chrono::microseconds(2'000);
  auto backend = make_zc_sharded_backend(*enclave_, cfg);
  auto* raw = backend.get();
  enclave_->set_backend(std::move(backend));
  for (std::uint64_t i = 0; i < 500; ++i) {
    EchoArgs args;
    args.in = i;
    enclave_->ocall(echo_id_, args);
    ASSERT_EQ(args.out, i + 1);
  }
  // Both shards own a live scheduler instance.
  EXPECT_NE(dynamic_cast<ZcBackend&>(raw->shard(0)).scheduler(), nullptr);
  EXPECT_NE(dynamic_cast<ZcBackend&>(raw->shard(1)).scheduler(), nullptr);
  EXPECT_EQ(raw->stats().total_calls(), 500u);
}

// --- Composition: nested inner= backends ------------------------------------

TEST_F(ZcShardedTest, ComposedBatchedInnerServesSwitchlessly) {
  install_backend_spec(
      *enclave_, "zc_sharded:shards=2;inner=(zc_batched:workers=1;batch=1)");
  auto* backend = dynamic_cast<ZcShardedBackend*>(&enclave_->backend());
  ASSERT_NE(backend, nullptr);
  EXPECT_STREQ(backend->name(), "zc_sharded[zc_batched]");
  ASSERT_NE(dynamic_cast<ZcBatchedBackend*>(&backend->shard(0)), nullptr);
  for (std::uint64_t i = 0; i < 200; ++i) {
    EchoArgs args;
    args.in = i;
    EXPECT_EQ(enclave_->ocall(echo_id_, args), CallPath::kSwitchless);
    EXPECT_EQ(args.out, i + 1);
  }
  // Round-robin routing spreads over the batched shards like any other.
  const auto served = backend->per_shard_served();
  EXPECT_EQ(served[0], 100u);
  EXPECT_EQ(served[1], 100u);
}

TEST_F(ZcShardedTest, ComposedAsyncInnerServesSwitchlessly) {
  install_backend_spec(
      *enclave_, "zc_sharded:shards=2;inner=(zc_async:workers=1;queue=4)");
  auto* backend = dynamic_cast<ZcShardedBackend*>(&enclave_->backend());
  ASSERT_NE(backend, nullptr);
  EXPECT_STREQ(backend->name(), "zc_sharded[zc_async]");
  ASSERT_NE(dynamic_cast<ZcAsyncBackend*>(&backend->shard(0)), nullptr);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EchoArgs args;
    args.in = i;
    EXPECT_EQ(enclave_->ocall(echo_id_, args), CallPath::kSwitchless);
    EXPECT_EQ(args.out, i + 1);
  }
  EXPECT_EQ(backend->stats().switchless_calls.load(), 100u);
}

TEST_F(ZcShardedTest, ComposedEcallPlaneInheritsTheOuterDirection) {
  const auto square_id =
      enclave_->ecalls().register_fn("square", [](MarshalledCall& call) {
        auto* a = static_cast<EchoArgs*>(call.args);
        a->out = a->in * a->in;
      });
  install_backend_spec(
      *enclave_,
      "zc_sharded:direction=ecall;shards=2;inner=(zc_batched:workers=1;"
      "batch=2)");
  EXPECT_STREQ(enclave_->ecall_backend().name(), "zc_sharded[zc_batched]-ecall");
  EchoArgs args;
  args.in = 9;
  EXPECT_EQ(enclave_->ecall_fn(square_id, args), CallPath::kSwitchless);
  EXPECT_EQ(args.out, 81u);
  EXPECT_EQ(enclave_->transitions().ecall_count(), 0u);
  enclave_->set_ecall_backend(nullptr);
}

TEST_F(ZcShardedTest, ComposedStealServesThroughTheInnerProbe) {
  // Batched inner shards with a single slot each: stall shard 0's buffer
  // and the steal probe must serve the call from shard 1's batched buffer
  // through the generic try_invoke_switchless seam.
  install_backend_spec(
      *enclave_,
      "zc_sharded:shards=2;steal=on;inner=(zc_batched:workers=1;batch=1)");
  auto* backend = dynamic_cast<ZcShardedBackend*>(&enclave_->backend());
  ASSERT_NE(backend, nullptr);
  std::jthread holder = stall_shard(*backend, 0);

  EchoArgs args;
  args.in = 7;
  EXPECT_EQ(enclave_->ocall(echo_id_, args), CallPath::kSwitchless);
  EXPECT_EQ(args.out, 8u);
  EXPECT_EQ(backend->stats().steals.load(), 1u);
  release_stall();
  holder.join();
}

TEST_F(ZcShardedTest, SnapshotRollsUpComposedLayers) {
  install_backend_spec(
      *enclave_, "zc_sharded:shards=2;inner=(zc_batched:workers=1;batch=1)");
  auto* backend = dynamic_cast<ZcShardedBackend*>(&enclave_->backend());
  ASSERT_NE(backend, nullptr);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EchoArgs args;
    args.in = i;
    enclave_->ocall(echo_id_, args);
  }
  // The rolled-up snapshot agrees with the router's live mirror on call
  // counts and surfaces the inner layer's batch_flushes.
  const BackendStatsSnapshot rolled = backend->stats_snapshot();
  EXPECT_EQ(rolled.switchless_calls,
            backend->stats().switchless_calls.load());
  EXPECT_EQ(rolled.total_calls(), 100u);
  EXPECT_GT(rolled.batch_flushes, 0u);
  EXPECT_EQ(rolled.in_flight, 0u);
  // Per-layer views stay accessible: the shard snapshots partition the
  // rolled-up counters.
  const BackendStatsSnapshot s0 = backend->shard(0).stats_snapshot();
  const BackendStatsSnapshot s1 = backend->shard(1).stats_snapshot();
  EXPECT_EQ(s0.switchless_calls + s1.switchless_calls,
            rolled.switchless_calls);
  EXPECT_EQ(s0.batch_flushes + s1.batch_flushes, rolled.batch_flushes);
}

TEST_F(ZcShardedTest, ComposedSpecRoundTripsThroughTheRegistry) {
  const std::string canon =
      "zc_sharded:shards=2;inner=(zc_batched:workers=1;batch=4)";
  const BackendSpec spec = BackendSpec::parse(canon);
  EXPECT_EQ(spec.to_string(), canon);
  const BackendSpec again = BackendSpec::parse(spec.to_string());
  EXPECT_EQ(again.to_string(), canon);
  EXPECT_EQ(again.get_string("inner", ""), "zc_batched:workers=1;batch=4");
  BackendRegistry::instance().validate(canon);
  auto backend = BackendRegistry::instance().create(*enclave_, canon);
  ASSERT_NE(backend, nullptr);
  EXPECT_STREQ(backend->name(), "zc_sharded[zc_batched]");
}

}  // namespace
}  // namespace zc
