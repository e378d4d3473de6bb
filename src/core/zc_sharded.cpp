#include "core/zc_sharded.hpp"

namespace zc {

const char* to_string(ShardPolicy policy) noexcept {
  switch (policy) {
    case ShardPolicy::kRoundRobin:
      return "round_robin";
    case ShardPolicy::kLeastLoaded:
      return "least_loaded";
  }
  return "?";
}

ZcShardedBackend::ZcShardedBackend(Enclave& enclave, ZcShardedConfig cfg)
    : enclave_(enclave), cfg_(std::move(cfg)) {
  if (!cfg_.make_shard) {
    // Default inner=(zc): one plain ZcBackend per shard from cfg_.shard —
    // byte-for-byte the pre-composition sharded backend, including the
    // direction the per-shard config carries.
    cfg_.direction = cfg_.shard.direction;
    cfg_.inner_key = "zc";
    // By-value capture: a ZcShardedConfig copied out of config() must not
    // tie its factory to this backend's lifetime.
    cfg_.make_shard = [shard = cfg_.shard](Enclave& e) {
      return std::make_unique<ZcBackend>(e, shard);
    };
    // A frame the per-shard bump pool cannot hold would be refused by
    // every shard for the same reason — and a ZC refusal on an exhausted
    // pool is not free (reservation + reset transition), so oversized
    // frames must not be probed at all.  A slab has no such cliff.
    if (cfg_.shard.pool == FramePoolKind::kBump) {
      steal_probe_max_bytes_ = cfg_.shard.worker_pool_bytes;
    }
  }
  name_ = "zc_sharded";
  if (cfg_.inner_key != "zc") name_ += "[" + cfg_.inner_key + "]";
  if (cfg_.direction == CallDirection::kEcall) name_ += "-ecall";
  shards_.reserve(cfg_.shards);
  for (unsigned i = 0; i < cfg_.shards; ++i) {
    shards_.push_back(cfg_.make_shard(enclave_));
  }
}

ZcShardedBackend::~ZcShardedBackend() { stop(); }

void ZcShardedBackend::start() {
  for (auto& s : shards_) s->start();
}

void ZcShardedBackend::stop() {
  for (auto& s : shards_) s->stop();
}

unsigned ZcShardedBackend::active_workers() const noexcept {
  unsigned total = 0;
  for (const auto& s : shards_) total += s->active_workers();
  return total;
}

void ZcShardedBackend::set_active_workers(unsigned m) {
  for (auto& s : shards_) s->set_active_workers(m);
}

BackendStatsSnapshot ZcShardedBackend::stats_snapshot() const {
  BackendStatsSnapshot rolled;
  // merge() carries every inner-plane counter — batch_flushes,
  // worker_wakeups, caller_sleeps — so a composed router exposes its
  // inner planes' behaviour without knowing about it.
  for (const auto& s : shards_) rolled.merge(s->stats_snapshot());
  // Router-only counters.  Everything else in the router's live stats()
  // block mirrors calls the shards already counted once.
  rolled.steals += stats_.steals.load();
  return rolled;
}

std::vector<std::uint64_t> ZcShardedBackend::per_shard_served() const {
  std::vector<std::uint64_t> out;
  out.reserve(shards_.size());
  for (const auto& s : shards_) {
    out.push_back(s->stats().switchless_calls.load());
  }
  return out;
}

unsigned ZcShardedBackend::least_loaded_shard() const noexcept {
  // One striped sum per shard (relaxed loads of its counter cells); the
  // level is approximate by design (two callers can pick the same
  // minimum) — the cheapness is the point, and the next call sees the
  // corrected level.
  const auto n = static_cast<unsigned>(shards_.size());
  unsigned best = 0;
  std::uint64_t best_load = shards_[0]->stats().in_flight.level();
  for (unsigned i = 1; i < n && best_load > 0; ++i) {
    const std::uint64_t load = shards_[i]->stats().in_flight.level();
    if (load < best_load) {
      best = i;
      best_load = load;
    }
  }
  return best;
}

unsigned ZcShardedBackend::select_shard() noexcept {
  if (cfg_.policy == ShardPolicy::kLeastLoaded) return least_loaded_shard();
  return ticket_.fetch_add(1, std::memory_order_relaxed) %
         static_cast<unsigned>(shards_.size());
}

// Mirrors a call-path outcome into the live stats() block (callers cache
// the reference and read deltas mid-run, so lazy aggregation is not an
// option).  One relaxed add on a padded line per call — the same
// shared-stats cost every other backend pays; the *handoff* path
// (reservation, request buffer, completion wait) stays shard-private.
CallPath ZcShardedBackend::record(CallPath path) noexcept {
  switch (path) {
    case CallPath::kRegular:
      stats_.regular_calls.add();
      break;
    case CallPath::kSwitchless:
      stats_.switchless_calls.add();
      break;
    case CallPath::kFallback:
      stats_.fallback_calls.add();
      break;
  }
  return path;
}

// The probe half of routing: try the primary shard, then every other
// shard once in scan order.  Never falls back; a true return means some
// shard served the call switchlessly (counted in steals when it was not
// the primary).
bool ZcShardedBackend::try_route_switchless(unsigned primary,
                                            const CallDesc& desc) {
  if (shards_[primary]->try_invoke_switchless(desc)) return true;
  // A frame no shard could take (default zc inner on bump pools: larger
  // than the per-shard pool) is not probed at all — each refusal would
  // cost a reservation and a reset-transition in every shard.
  if (frame_bytes(desc) > steal_probe_max_bytes_) return false;
  const auto n = static_cast<unsigned>(shards_.size());
  for (unsigned i = 1; i < n; ++i) {
    if (shards_[(primary + i) % n]->try_invoke_switchless(desc)) {
      stats_.steals.add();
      return true;
    }
  }
  return false;
}

CallPath ZcShardedBackend::invoke(const CallDesc& desc) {
  const unsigned primary = select_shard();
  // Without steal=on (strict isolation) the shard's own invoke decides
  // switchless vs fallback, so its scheduler sees refusals as unmet
  // demand (F_i).  A stealing call that no shard accepted falls back the
  // same way, through its primary shard.
  if (cfg_.steal && try_route_switchless(primary, desc)) {
    return record(CallPath::kSwitchless);
  }
  return record(shards_[primary]->invoke(desc));
}

std::unique_ptr<ZcShardedBackend> make_zc_sharded_backend(Enclave& enclave,
                                                          ZcShardedConfig cfg) {
  return std::make_unique<ZcShardedBackend>(enclave, std::move(cfg));
}

}  // namespace zc
