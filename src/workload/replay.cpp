#include "workload/replay.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/cpu_meter.hpp"  // wall_ns
#include "common/cycles.hpp"
#include "common/stats.hpp"
#include "core/backend_registry.hpp"
#include "sgx/enclave.hpp"

namespace zc::workload {

namespace {

// Argument block carried by every replayed call.  The recorded args_size is
// not reproduced — replay needs its own slots for the deterministic
// transform — but payload sizes, work hints and caller structure are.
struct ReplayArgs {
  std::uint64_t seq = 0;          ///< record index (provenance)
  std::uint64_t value = 0;        ///< per-record stream seed
  std::uint64_t work_pauses = 0;  ///< in-call work for the handler
  std::uint64_t in_size = 0;      ///< valid [in] bytes in the payload
  std::uint64_t echoed = 0;       ///< handler: value * K + 1
  std::uint64_t in_sum = 0;       ///< handler: FNV over the [in] bytes
};
static_assert(std::is_standard_layout_v<ReplayArgs>);

constexpr std::uint64_t kInSalt = 0x1c5f'0d1e'5eed'0001ull;
constexpr std::uint64_t kOutSalt = 0x1c5f'0d1e'5eed'0002ull;

/// Bounds per-call in-handler work so a corrupt work_ns field (or an
/// extreme work_scale) degrades into a slow run, not a wedged test.
constexpr std::uint64_t kMaxWorkPausesPerCall = 1'000'000;

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Fills `n` bytes from the splitmix64 stream seeded with `seed`.  Content
/// depends only on the seed, so both sides of a call can predict it.
void fill_stream(void* dst, std::size_t n, std::uint64_t seed) noexcept {
  auto* out = static_cast<std::uint8_t*>(dst);
  std::uint64_t state = seed;
  std::size_t i = 0;
  while (i < n) {
    const std::uint64_t word = splitmix64(state);
    for (unsigned b = 0; b < 8 && i < n; ++b, ++i) {
      out[i] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
}

/// The one untrusted/trusted handler every trace name maps to.  Pure in
/// (args, [in] payload): reads the valid [in] bytes, burns the work hint,
/// then overwrites the whole payload from a stream keyed by args->value —
/// so the [out] bytes the caller gets back are deterministic even though
/// the frame's tail bytes (between in_size and capacity) are garbage.
void replay_handler(MarshalledCall& call) {
  auto* args = static_cast<ReplayArgs*>(call.args);
  const std::size_t in_n =
      std::min<std::size_t>(args->in_size, call.payload_size);
  args->in_sum = trace_fnv1a(call.payload, in_n);
  args->echoed = args->value * 2654435761ull + 1;
  if (args->work_pauses != 0) pause_n(args->work_pauses);
  fill_stream(call.payload, call.payload_size, args->value ^ kOutSalt);
}

/// Issues record `idx` and returns its digest contribution.  The scratch
/// buffers are caller-owned so a replay thread reuses one pair across its
/// whole schedule.
std::uint64_t issue_record(Enclave& enclave, CallDirection direction,
                           std::uint32_t fn_id, const TraceRecord& rec,
                           std::uint64_t seed, std::uint64_t idx,
                           std::uint64_t work_pauses,
                           std::vector<std::uint8_t>& in_buf,
                           std::vector<std::uint8_t>& out_buf) {
  ReplayArgs args;
  args.seq = idx;
  std::uint64_t state = seed ^ (idx + 1) * 0xA076'1D64'78BD'642Full;
  args.value = splitmix64(state);
  args.in_size = rec.in_size;
  args.work_pauses = work_pauses;

  in_buf.resize(rec.in_size);
  if (rec.in_size != 0) {
    fill_stream(in_buf.data(), in_buf.size(), args.value ^ kInSalt);
  }
  out_buf.assign(rec.out_size, 0);

  CallDesc desc;
  desc.fn_id = fn_id;
  desc.args = &args;
  desc.args_size = sizeof(args);
  if (rec.in_size != 0) {
    desc.in_payload = in_buf.data();
    desc.in_size = rec.in_size;
  }
  if (rec.out_size != 0) {
    desc.out_payload = out_buf.data();
    desc.out_size = rec.out_size;
  }
  if (direction == CallDirection::kEcall) {
    enclave.ecall_fn(desc);
  } else {
    enclave.ocall(desc);
  }

  // Order-independent: each record's chain is summed, never chained across
  // records, so any thread interleaving yields the same total.
  std::uint64_t h = trace_fnv1a(&args.echoed, sizeof(args.echoed));
  h = trace_fnv1a(&args.in_sum, sizeof(args.in_sum), h);
  h = trace_fnv1a(out_buf.data(), out_buf.size(), h);
  return h;
}

void append_u64(std::string& out, const char* key, std::uint64_t v) {
  out += ",\"";
  out += key;
  out += "\":";
  out += std::to_string(v);
}

void append_double(std::string& out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += ",\"";
  out += key;
  out += "\":";
  out += buf;
}

}  // namespace

const char* to_string(ReplayMode mode) noexcept {
  return mode == ReplayMode::kOpenLoop ? "open_loop" : "closed_loop";
}

std::string ReplayResult::deterministic_json() const {
  std::string out = "{\"figure\":\"replay\",\"backend\":\"" + spec +
                    "\",\"mode\":\"" + mode + "\"";
  append_u64(out, "seed", seed);
  append_double(out, "work_scale", work_scale);
  append_double(out, "time_scale", time_scale);
  append_u64(out, "callers", callers);
  append_u64(out, "threads", threads);
  append_u64(out, "calls", calls);
  append_u64(out, "bytes_in", bytes_in);
  append_u64(out, "bytes_out", bytes_out);
  append_u64(out, "trace_digest", trace_digest);
  append_u64(out, "result_digest", result_digest);
  out += "}";
  return out;
}

std::string ReplayResult::json() const {
  std::string out = deterministic_json();
  out.pop_back();  // strip the closing brace, append the wall-clock fields
  append_double(out, "seconds", seconds);
  append_double(out, "p50_us", p50_us);
  append_double(out, "p99_us", p99_us);
  append_double(out, "p999_us", p999_us);
  append_u64(out, "late_calls", late_calls);
  append_double(out, "max_late_us", max_late_us);
  append_u64(out, "switchless", switchless);
  append_u64(out, "fallbacks", fallbacks);
  append_u64(out, "regular", regular);
  append_u64(out, "wake_batches", wake_batches);
  out += "}";
  return out;
}

ReplayResult replay_trace(const Trace& trace, const ReplayConfig& cfg) {
  if (trace.records.empty()) {
    throw TraceError("cannot replay an empty trace (no records)");
  }
  const BackendSpec spec = BackendSpec::parse(cfg.backend_spec);
  BackendRegistry::instance().validate(cfg.backend_spec);
  const CallDirection direction = spec_direction(spec);

  std::unique_ptr<Enclave> enclave = Enclave::create(cfg.sim);
  OcallTable& table = direction == CallDirection::kOcall ? enclave->ocalls()
                                                         : enclave->ecalls();
  std::vector<std::uint32_t> fn_ids;
  fn_ids.reserve(trace.names.size());
  for (const std::string& name : trace.names) {
    fn_ids.push_back(table.register_fn(name, replay_handler));
  }
  // Register before installing: name-resolving specs (intel sl=...) look
  // the functions up at build time.
  install_backend_spec(*enclave, cfg.backend_spec);
  CallBackend& backend = direction == CallDirection::kOcall
                             ? enclave->backend()
                             : enclave->ecall_backend();

  const std::size_t n = trace.records.size();

  // Dense caller ranks in first-appearance order (recorder ids are already
  // dense, but synthesized/hand-built traces need not be).
  std::unordered_map<std::uint32_t, std::uint32_t> caller_rank;
  caller_rank.reserve(64);
  std::vector<std::uint32_t> rank_of(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto [it, inserted] = caller_rank.try_emplace(
        trace.records[i].caller, static_cast<std::uint32_t>(caller_rank.size()));
    rank_of[i] = it->second;
  }
  const unsigned callers = static_cast<unsigned>(caller_rank.size());

  unsigned threads = cfg.threads;
  if (threads == 0) {
    threads = cfg.mode == ReplayMode::kOpenLoop
                  ? std::min(8u, std::max(2u, callers))
                  : std::min(8u, callers);
  }
  threads = std::clamp(threads, 1u, 256u);

  // Per-record in-call work, converted from the recorded wall hint to the
  // paper's pause-instruction unit once up front.
  const double pause_ns =
      std::max(1.0, cycles_to_ns(measured_pause_cycles()));
  std::vector<std::uint64_t> work_pauses(n, 0);
  if (cfg.work_scale > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      const double p = static_cast<double>(trace.records[i].work_ns) *
                       cfg.work_scale / pause_ns;
      work_pauses[i] = p >= static_cast<double>(kMaxWorkPausesPerCall)
                           ? kMaxWorkPausesPerCall
                           : static_cast<std::uint64_t>(p);
    }
  }

  // Schedule: record indices sorted by (vtime, index).  Closed loop
  // partitions it by caller rank; open loop consumes it as one shared
  // arrival queue.
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return trace.records[a].vtime_ns <
                            trace.records[b].vtime_ns;
                   });

  ReplayResult result;
  result.spec = spec.to_string();
  result.mode = to_string(cfg.mode);
  result.seed = cfg.seed;
  result.work_scale = cfg.work_scale;
  result.time_scale = cfg.time_scale;
  result.callers = callers;
  result.threads = threads;
  result.calls = n;
  result.trace_digest = trace.digest();
  for (const TraceRecord& r : trace.records) {
    result.bytes_in += r.in_size;
    result.bytes_out += r.out_size;
  }

  const BackendStatsSnapshot before = backend.stats_snapshot();

  std::atomic<std::uint64_t> digest{0};
  std::atomic<std::uint64_t> late_calls{0};
  std::atomic<std::uint64_t> max_late_ns{0};
  std::vector<std::vector<double>> sojourn_us(threads);

  // Release gate: workers spin-wait for the epoch so thread spawn cost
  // doesn't show up as open-loop lateness.
  std::promise<std::uint64_t> epoch_promise;
  std::shared_future<std::uint64_t> epoch = epoch_promise.get_future().share();

  std::atomic<std::size_t> next{0};  // open-loop shared claim index
  std::vector<std::thread> pool;
  pool.reserve(threads);
  if (cfg.mode == ReplayMode::kClosedLoop) {
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        std::vector<std::uint8_t> in_buf, out_buf;
        std::vector<double>& samples = sojourn_us[t];
        std::uint64_t local_digest = 0;
        epoch.wait();
        for (const std::uint32_t idx : order) {
          const TraceRecord& rec = trace.records[idx];
          if (rank_of[idx] % threads != t) continue;
          const std::uint64_t t0 = wall_ns();
          local_digest += issue_record(*enclave, direction,
                                       fn_ids[rec.name_idx], rec, cfg.seed,
                                       idx, work_pauses[idx], in_buf, out_buf);
          samples.push_back(static_cast<double>(wall_ns() - t0) * 1e-3);
        }
        digest.fetch_add(local_digest, std::memory_order_relaxed);
      });
    }
  } else {
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        std::vector<std::uint8_t> in_buf, out_buf;
        std::vector<double>& samples = sojourn_us[t];
        std::uint64_t local_digest = 0;
        std::uint64_t local_late = 0;
        std::uint64_t local_max_late = 0;
        const std::uint64_t t_base = epoch.get();
        while (true) {
          const std::size_t slot =
              next.fetch_add(1, std::memory_order_relaxed);
          if (slot >= n) break;
          const std::uint32_t idx = order[slot];
          const TraceRecord& rec = trace.records[idx];
          const std::uint64_t target =
              t_base + static_cast<std::uint64_t>(
                           static_cast<double>(rec.vtime_ns) * cfg.time_scale);
          // Sleep to within timer-slack distance of the release time, then
          // spin the rest: lateness must measure backend backlog, not the
          // kernel's ~50 us sleep overshoot.
          constexpr std::uint64_t kSpinWindowNs = 50'000;
          std::uint64_t now = wall_ns();
          if (now + kSpinWindowNs < target) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(target - now - kSpinWindowNs));
            now = wall_ns();
          }
          while (now < target) {
            cpu_pause();
            now = wall_ns();
          }
          const std::uint64_t late = now > target ? now - target : 0;
          if (late > 100'000) ++local_late;  // >100 us past schedule
          local_max_late = std::max(local_max_late, late);
          local_digest += issue_record(*enclave, direction,
                                       fn_ids[rec.name_idx], rec, cfg.seed,
                                       idx, work_pauses[idx], in_buf, out_buf);
          // Sojourn is anchored at the *scheduled* arrival: queueing delay
          // (including a backed-up dispatcher pool) counts against the
          // backend, which is the point of the open loop.
          samples.push_back(static_cast<double>(wall_ns() - target) * 1e-3);
        }
        digest.fetch_add(local_digest, std::memory_order_relaxed);
        late_calls.fetch_add(local_late, std::memory_order_relaxed);
        std::uint64_t seen = max_late_ns.load(std::memory_order_relaxed);
        while (seen < local_max_late &&
               !max_late_ns.compare_exchange_weak(seen, local_max_late,
                                                  std::memory_order_relaxed)) {
        }
      });
    }
  }

  const std::uint64_t t_start = wall_ns();
  epoch_promise.set_value(t_start);
  for (std::thread& th : pool) th.join();
  result.seconds = static_cast<double>(wall_ns() - t_start) * 1e-9;

  result.result_digest = digest.load();
  result.late_calls = late_calls.load();
  result.max_late_us = static_cast<double>(max_late_ns.load()) * 1e-3;

  SampleSeries merged;
  for (const std::vector<double>& s : sojourn_us) {
    for (const double v : s) merged.add(v);
  }
  if (!merged.empty()) {
    result.p50_us = merged.percentile(50.0);
    result.p99_us = merged.percentile(99.0);
    result.p999_us = merged.percentile(99.9);
  }

  const BackendStatsSnapshot after = backend.stats_snapshot();
  result.switchless = after.switchless_calls - before.switchless_calls;
  result.fallbacks = after.fallback_calls - before.fallback_calls;
  result.regular = after.regular_calls - before.regular_calls;
  result.wake_batches = after.wake_batches - before.wake_batches;
  return result;
}

}  // namespace zc::workload
