#include "core/zc_sharded.hpp"

#include <functional>
#include <thread>

namespace zc {

const char* to_string(ShardPolicy policy) noexcept {
  switch (policy) {
    case ShardPolicy::kRoundRobin:
      return "round_robin";
    case ShardPolicy::kCallerAffinity:
      return "caller_affinity";
    case ShardPolicy::kLeastLoaded:
      return "least_loaded";
    case ShardPolicy::kAffinityLoad:
      return "affinity_load";
  }
  return "?";
}

const char* to_string(ShardSteal steal) noexcept {
  switch (steal) {
    case ShardSteal::kOff:
      return "off";
    case ShardSteal::kScan:
      return "scan";
    case ShardSteal::kMaxLoad:
      return "max_load";
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
    // A frame the per-shard pool cannot hold would be refused by every
    // shard for the same reason — and a ZC refusal on an exhausted pool
    // is not free (reservation + reset transition), so oversized frames
    // must not be probed at all.
    steal_probe_max_bytes_ = cfg_.shard.worker_pool_bytes;
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
  // One relaxed load per shard; the gauge is approximate by design (two
  // callers can pick the same minimum) — the cheapness is the point, and
  // the next call sees the corrected level.
  const auto n = static_cast<unsigned>(shards_.size());
  unsigned best = 0;
  std::uint64_t best_load = shards_[0]->stats().in_flight.load();
  for (unsigned i = 1; i < n && best_load > 0; ++i) {
    const std::uint64_t load = shards_[i]->stats().in_flight.load();
    if (load < best_load) {
      best = i;
      best_load = load;
    }
  }
  return best;
}

unsigned ZcShardedBackend::select_shard() noexcept {
  const auto n = static_cast<unsigned>(shards_.size());
  switch (cfg_.policy) {
    case ShardPolicy::kCallerAffinity:
      return static_cast<unsigned>(
          std::hash<std::thread::id>{}(std::this_thread::get_id()) % n);
    case ShardPolicy::kLeastLoaded:
      return least_loaded_shard();
    case ShardPolicy::kAffinityLoad: {
      // Affinity with a load escape hatch: warm-pool locality while the
      // home shard keeps up, least_loaded rerouting only beyond the
      // threshold (home keeps the call if it is still the minimum).
      const auto home = static_cast<unsigned>(
          std::hash<std::thread::id>{}(std::this_thread::get_id()) % n);
      if (shards_[home]->stats().in_flight.load() <= cfg_.load_threshold) {
        return home;
      }
      return least_loaded_shard();
    }
    case ShardPolicy::kRoundRobin:
      break;
  }
  return ticket_.fetch_add(1, std::memory_order_relaxed) % n;
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

// The probe half of routing: try the primary shard, then steal per the
// configured victim policy.  Never falls back; a true return means some
// shard served the call switchlessly (counted in steals when it was not
// the primary).
bool ZcShardedBackend::try_route_switchless(unsigned primary,
                                            const CallDesc& desc) {
  if (shards_[primary]->try_invoke_switchless(desc)) return true;
  if (cfg_.steal == ShardSteal::kOff) return false;
  // Bounded steal: probe every other shard once.  A frame no shard could
  // take (default zc inner: larger than the per-shard pool) is not
  // probed at all — each refusal would cost a reservation and a
  // reset-transition in every shard.
  if (frame_bytes(desc) > steal_probe_max_bytes_) return false;
  const auto n = static_cast<unsigned>(shards_.size());
  if (n < 2) return false;  // no victims: nothing to probe twice
  unsigned first_victim = 1;  // scan-order offset from the primary
  if (cfg_.steal == ShardSteal::kMaxLoad) {
    // Busiest victim first — the shard whose workers are provably awake
    // (an idle-looking shard may be parked by its scheduler, where the
    // probe fails anyway); the rest follow in scan order.  One relaxed
    // gauge load per shard, no allocation on the contention path; ties
    // resolve to scan order so an idle backend stays deterministic.
    std::uint64_t best_load = 0;
    for (unsigned i = 1; i < n; ++i) {
      const std::uint64_t load =
          shards_[(primary + i) % n]->stats().in_flight.load();
      if (load > best_load) {
        best_load = load;
        first_victim = i;
      }
    }
    if (shards_[(primary + first_victim) % n]->try_invoke_switchless(desc)) {
      stats_.steals.add();
      return true;
    }
  }
  for (unsigned i = 1; i < n; ++i) {
    if (cfg_.steal == ShardSteal::kMaxLoad && i == first_victim) continue;
    if (shards_[(primary + i) % n]->try_invoke_switchless(desc)) {
      stats_.steals.add();
      return true;
    }
  }
  return false;
}

CallPath ZcShardedBackend::invoke(const CallDesc& desc) {
  const unsigned primary = select_shard();
  // The router's own gauge (what an outer router's selectors read) spans
  // the whole routed call — including fallback execution, which the
  // router cannot rule out up front and which still occupies the shard.
  stats_.in_flight.add();
  CallPath path;
  if (cfg_.steal == ShardSteal::kOff) {
    // Strict isolation: the shard's own invoke decides switchless vs
    // fallback, so its scheduler sees refusals as unmet demand (F_i).
    path = shards_[primary]->invoke(desc);
  } else if (try_route_switchless(primary, desc)) {
    path = CallPath::kSwitchless;
  } else {
    // No shard accepted: fall back through the primary shard so its
    // feedback scheduler still observes the unmet demand as F_i.
    path = shards_[primary]->invoke(desc);
  }
  stats_.in_flight.sub();
  return record(path);
}

bool ZcShardedBackend::try_invoke_switchless(const CallDesc& desc) {
  stats_.in_flight.add();
  const bool served = try_route_switchless(select_shard(), desc);
  stats_.in_flight.sub();
  if (served) stats_.switchless_calls.add();
  return served;
}

std::unique_ptr<ZcShardedBackend> make_zc_sharded_backend(Enclave& enclave,
                                                          ZcShardedConfig cfg) {
  return std::make_unique<ZcShardedBackend>(enclave, std::move(cfg));
}

}  // namespace zc
