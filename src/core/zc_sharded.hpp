// Sharded switchless call router.
//
// The plain ZcBackend keeps one flat worker array: every caller scans the
// same cache lines (worker status words) from index 0, so under many
// concurrent callers the low-indexed workers become a contention point —
// the single-queue bottleneck of the paper's design at scale.  The sharded
// backend splits capacity into N independent shards and routes each call
// to exactly one of them; the handoff path (reservation, request buffer,
// completion wait) touches only that shard's cache lines, and shards never
// synchronise with each other.  The only shared write per call is the
// lifetime stats() counter block — the same cost every backend pays.
//
// The router is *generic*: a shard is any leaf CallBackend, built by a
// factory, so the same routing/stealing policies compose over plain ZC
// workers (the default) or the slotted plane (zc_batched / zc_async).
// The spec plane spells composition as a nested spec —
// `zc_sharded:shards=4;inner=(zc_batched:batch=8)` — and the shard's
// probe (CallBackend::try_invoke_switchless) plus its stats().in_flight
// gauge are the whole inner-backend contract.  Inner planes keep their
// full option surface: each shard of `inner=(zc_batched:batch=4;wait=futex)`
// runs its own slot buffers and per-slot completion gates, with no router
// involvement.  A shard is a leaf: never another router, and its spec
// carries no `inner=` of its own.
//
// Shard selection policies:
//  - round_robin: a relaxed atomic ticket spreads calls evenly.  Best when
//    callers are homogeneous.
//  - least_loaded: routes to the shard with the fewest calls currently
//    occupying its capacity (each shard's stats().in_flight gauge, one
//    relaxed load per shard).  Count-blind policies route onto shards
//    whose workers are tied up in long calls; this one follows *observed*
//    load.  Ties go to the lowest index, so an idle backend routes
//    deterministically.
//
// By default a call routed to a shard with no capacity falls back to a
// regular ocall immediately — the paper's §IV-C no-busy-wait property is
// preserved per shard, and shards stay strictly isolated.  With
// `steal=on` the caller instead probes the remaining shards once, in scan
// order from the primary (bounded, no retries, no spinning), and runs on
// the first one that accepts.  Stolen calls are counted in
// stats().steals; a call that no shard accepts still falls back through
// its *primary* shard, so the primary's feedback scheduler observes the
// unmet demand.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/zc_backend.hpp"

namespace zc {

enum class ShardPolicy : std::uint8_t {
  kRoundRobin,   ///< relaxed atomic ticket, even spread
  kLeastLoaded,  ///< fewest in-flight calls right now (load-aware)
};

const char* to_string(ShardPolicy policy) noexcept;

struct ZcShardedConfig {
  unsigned shards = 2;  ///< independent shards (> 0)
  ShardPolicy policy = ShardPolicy::kRoundRobin;
  /// Probe the other shards once before falling back (false = strict
  /// isolation: a refusal means immediate fallback).
  bool steal = false;
  /// Boundary direction of the composed plane (for name()); with the
  /// default inner this is derived from `shard.direction`.
  CallDirection direction = CallDirection::kOcall;
  /// Per-shard configuration of the *default* inner=(zc) backend (worker
  /// counts, quantum, pools, scheduler and direction all apply to each
  /// shard independently).  Ignored when `make_shard` is set.
  ZcConfig shard;
  /// Builds one shard.  Unset = one ZcBackend per shard from `shard`
  /// (exactly the pre-composition behaviour); the registry wires nested
  /// `inner=(...)` specs through here.
  std::function<std::unique_ptr<CallBackend>(Enclave&)> make_shard;
  /// Registry key of the inner family ("zc", "zc_batched", ...), used for
  /// the composed name().
  std::string inner_key = "zc";
};

class ZcShardedBackend final : public CallBackend {
 public:
  ZcShardedBackend(Enclave& enclave, ZcShardedConfig cfg);
  ~ZcShardedBackend() override;

  void start() override;
  void stop() override;
  CallPath invoke(const CallDesc& desc) override;
  /// "zc_sharded" for the default inner, "zc_sharded[<inner>]" for a
  /// composed plane, with "-ecall" appended on the trusted direction.
  const char* name() const noexcept override { return name_.c_str(); }

  /// Sum of the shards' currently active worker counts.
  unsigned active_workers() const noexcept override;

  /// Rolled-up view: the per-shard layers merged (so an inner zc_batched's
  /// batch_flushes surface here) plus the router-only counters (steals).
  /// The call-path counters come from the shards — each call is counted
  /// once by the shard that served it, never double-counted with the
  /// router's own live mirror.
  BackendStatsSnapshot stats_snapshot() const override;

  unsigned shard_count() const noexcept {
    return static_cast<unsigned>(shards_.size());
  }

  /// The composed plane's copy discipline is whatever the shards advertise
  /// (uniform by construction: every shard comes from the same spec).
  CopyMode copy_mode() const noexcept override {
    return shards_.empty() ? CopyMode::kDouble : shards_.front()->copy_mode();
  }

  /// Per-layer introspection: one layer per shard, so benches can emit a
  /// stats row for each routing target instead of only the rolled-up view.
  unsigned layer_count() const noexcept override { return shard_count(); }
  BackendStatsSnapshot layer_snapshot(unsigned i) const override {
    return i < shards_.size() ? shards_[i]->stats_snapshot()
                              : BackendStatsSnapshot{};
  }
  const char* layer_name(unsigned i) const noexcept override {
    return i < shards_.size() ? shards_[i]->name() : "";
  }

  /// Direct access to one shard layer (diagnostics, churn tests,
  /// per-layer stats via shard(i).stats_snapshot()).
  CallBackend& shard(unsigned i) noexcept { return *shards_[i]; }
  const CallBackend& shard(unsigned i) const noexcept { return *shards_[i]; }

  /// Applies `m` active workers to every shard (scheduler-off ablations).
  void set_active_workers(unsigned m) override;

  /// Lifetime switchless calls served per shard.
  std::vector<std::uint64_t> per_shard_served() const;

  const ZcShardedConfig& config() const noexcept { return cfg_; }

 private:
  unsigned select_shard() noexcept;
  unsigned least_loaded_shard() const noexcept;
  bool try_route_switchless(unsigned primary, const CallDesc& desc);
  CallPath record(CallPath path) noexcept;

  Enclave& enclave_;
  ZcShardedConfig cfg_;
  std::string name_;
  /// Steal probes are skipped outright for frames no shard could take
  /// (known for the default inner=(zc) on bump pools: the per-shard pool
  /// size; a slab never refuses for size, and a generic inner's probes
  /// refuse cheaply).
  std::size_t steal_probe_max_bytes_ = ~std::size_t{0};
  std::vector<std::unique_ptr<CallBackend>> shards_;
  std::atomic<unsigned> ticket_{0};
};

std::unique_ptr<ZcShardedBackend> make_zc_sharded_backend(
    Enclave& enclave, ZcShardedConfig cfg = {});

}  // namespace zc
