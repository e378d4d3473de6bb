// Micro-benchmarks (google-benchmark) for the raw call paths and the
// marshalling/memcpy layers: regular ocall vs ZC switchless vs ZC fallback
// vs Intel switchless, the batched caller's yield-vs-spin wait policies,
// the CompletionGate blocked-caller policies head to head (BM_GatePolicy:
// spin vs yield vs futex vs condvar; JSONL rows keyed lane=gate_policy),
// pipelined concurrent callers through the batched plane
// (BM_BatchedPipelined: p50/p99; lane=batched_pipelined), and the two
// tlibc memcpy implementations.
//
// Additionally, every --backend=SPEC argument registers one dynamic
// benchmark that drives a no-op call through that registry spec —
// direction-aware (direction=ecall specs exercise the trusted-function
// plane) — so new backends are measurable here without code changes:
//
//   bench_micro_callpath --backend=zc:workers=4 ...
//                        --backend=zc_batched:batch=8,flush_us=50
//
// --pipeline=D drives the spec lane through the async call plane with D
// in-flight calls per iteration window (requires a slotted-plane spec:
// zc_async or zc_batched).  --skew=zipf switches the spec lane from the
// single-caller no-op loop to the synthetic f/g workload with as many
// caller threads as a 2-worker spec has workers (kSkewCallers), whose g
// durations are zipf-ranked (a seeded caller heaviest): one caller's long
// calls keep a worker busy while the other's short calls look for one.
// --json=FILE persists one JSONL row per spec-lane benchmark, keyed by
// the canonical spec, like the figure sweeps.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "common/completion_gate.hpp"
#include "common/cycles.hpp"
#include "core/backend_registry.hpp"
#include "core/zc_async.hpp"
#include "sgx/enclave.hpp"
#include "tlibc/memcpy.hpp"
#include "workload/harness.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace zc;

// --json=FILE sink: the spec-lane benchmarks record one row per spec
// (last calibration pass wins), flushed from main() after the run.
struct SpecRow {
  std::string backend;
  unsigned pipeline = 1;
  std::string skew = "uniform";
  std::uint64_t tes = 13'500;
  std::uint64_t iterations = 0;
  std::uint64_t calls = 0;  ///< issued calls (== iterations in nop mode)
  double seconds = 0;
  std::uint64_t switchless = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t seed = 0;  ///< effective run seed (zipf caller placement)
};
std::map<std::string, SpecRow>& spec_rows() {
  static std::map<std::string, SpecRow> rows;
  return rows;
}

// --json rows of the BM_GatePolicy lane: blocked-caller wake latency per
// CompletionGate policy (futex vs condvar vs spin head to head).
struct GateRow {
  std::string policy;
  std::uint64_t iterations = 0;
  double seconds = 0;
  std::uint64_t sleeps = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t yields = 0;
};
std::map<std::string, GateRow>& gate_rows() {
  static std::map<std::string, GateRow> rows;
  return rows;
}
// --json row of the BM_BatchedPipelined lane: concurrent callers through
// zc_batched wait=futex (last calibration pass wins).
struct PipelinedRow {
  unsigned callers = 0;
  std::uint64_t calls = 0;
  double p50_ns = 0;
  double p99_ns = 0;
  std::uint64_t caller_wakeups = 0;
  std::uint64_t batch_flushes = 0;
  double batch_fill = 0;  ///< switchless calls per flush
};
std::optional<PipelinedRow>& pipelined_row() {
  static std::optional<PipelinedRow> row;
  return row;
}

unsigned g_pipeline = 1;
workload::CallerSkew g_skew = workload::CallerSkew::kUniform;
std::uint64_t g_seed = 0;  ///< --seed=N; 0 draws fresh (reported per row)

// The --skew lane's regime (see BM_BackendSpec): callers at 2-worker
// capacity, g durations that keep a worker busy for several
// hand-off periods, and a transition cost safely above the measured
// hand-off cost of narrow CI hosts so the simulated economics
// (fallback transition >> switchless hand-off) hold everywhere.
constexpr std::uint64_t kSkewCallsPerBatch = 2'000;
constexpr unsigned kSkewCallers = 2;
constexpr std::uint64_t kSkewGPauses = 100'000;
constexpr std::uint64_t kSkewTes = 2'000'000;

struct NopArgs {
  int x = 0;
};

struct Fixture {
  std::unique_ptr<Enclave> enclave;
  std::uint32_t nop_id = 0;
  std::uint32_t tnop_id = 0;  ///< trusted twin, for direction=ecall specs

  explicit Fixture(std::uint64_t tes = 13'500) {
    SimConfig cfg;
    cfg.tes_cycles = tes;
    cfg.logical_cpus = 8;
    enclave = Enclave::create(cfg);
    nop_id = enclave->ocalls().register_fn("nop", [](MarshalledCall&) {});
    tnop_id = enclave->ecalls().register_fn("nop", [](MarshalledCall&) {});
  }
};

void BM_RegularOcall(benchmark::State& state) {
  Fixture f(static_cast<std::uint64_t>(state.range(0)));
  NopArgs args;
  for (auto _ : state) {
    f.enclave->ocall(f.nop_id, args);
  }
  state.SetLabel("tes=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_RegularOcall)->Arg(0)->Arg(13'500);

void BM_ZcSwitchless(benchmark::State& state) {
  Fixture f;
  install_backend_spec(*f.enclave, "zc:scheduler=off,workers=1");
  NopArgs args;
  for (auto _ : state) {
    f.enclave->ocall(f.nop_id, args);
  }
}
BENCHMARK(BM_ZcSwitchless);

void BM_ZcImmediateFallback(benchmark::State& state) {
  Fixture f;
  // No workers: every call falls back.
  install_backend_spec(*f.enclave, "zc:scheduler=off,workers=0");
  NopArgs args;
  for (auto _ : state) {
    f.enclave->ocall(f.nop_id, args);
  }
}
BENCHMARK(BM_ZcImmediateFallback);

void BM_IntelSwitchless(benchmark::State& state) {
  Fixture f;
  install_backend_spec(*f.enclave, "intel:sl=nop;workers=1");
  NopArgs args;
  for (auto _ : state) {
    f.enclave->ocall(f.nop_id, args);
  }
}
BENCHMARK(BM_IntelSwitchless);

void BM_OcallWithPayload(benchmark::State& state) {
  Fixture f(13'500);
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  std::vector<char> buf(size, 'x');
  NopArgs args;
  for (auto _ : state) {
    f.enclave->ocall_in(f.nop_id, args, buf.data(), buf.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_OcallWithPayload)->Arg(512)->Arg(4096)->Arg(32768);

void BM_Memcpy(benchmark::State& state) {
  const bool use_zc = state.range(0) != 0;
  const std::size_t size = static_cast<std::size_t>(state.range(1));
  const std::size_t misalign = static_cast<std::size_t>(state.range(2));
  std::vector<std::uint8_t> src(size + 8, 1);
  std::vector<std::uint8_t> dst(size + 8, 0);
  for (auto _ : state) {
    if (use_zc) {
      tlibc::zc_memcpy(dst.data(), src.data() + misalign, size);
    } else {
      tlibc::intel_memcpy(dst.data(), src.data() + misalign, size);
    }
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
  state.SetLabel(std::string(use_zc ? "zc" : "intel") +
                 (misalign ? "/unaligned" : "/aligned"));
}
BENCHMARK(BM_Memcpy)
    ->Args({0, 512, 0})
    ->Args({0, 512, 1})
    ->Args({0, 32768, 0})
    ->Args({0, 32768, 1})
    ->Args({1, 512, 0})
    ->Args({1, 512, 1})
    ->Args({1, 32768, 0})
    ->Args({1, 32768, 1});

// The batched caller's wait policy head to head: spin_us=0 yields between
// every poll; a large budget approximates hotcalls-style pure spinning.
// This quantifies the multi-core latency cost of the yield (ROADMAP item).
void BM_BatchedWaitPolicy(benchmark::State& state) {
  Fixture f;
  const std::uint64_t spin_us = static_cast<std::uint64_t>(state.range(0));
  install_backend_spec(*f.enclave,
                       "zc_batched:workers=1;scheduler=off;batch=1;spin_us=" +
                           std::to_string(spin_us));
  NopArgs args;
  for (auto _ : state) {
    f.enclave->ocall(f.nop_id, args);
  }
  state.SetLabel(spin_us == 0 ? "yield-immediately"
                              : "spin_us=" + std::to_string(spin_us));
  state.counters["yields_per_call"] = benchmark::Counter(
      static_cast<double>(f.enclave->backend().stats().caller_yields.load()),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BatchedWaitPolicy)->Arg(0)->Arg(200);

// The CompletionGate wait policies head to head on the cost this repo's
// ISSUE cares about: the *blocked* caller — spin budget 0, so every wait
// takes the policy's slow path.  A responder thread answers each request
// through a second gate; one iteration is one full hand-off round trip
// (publish request, block, be woken).  On a host with spare cores the
// spin policy wins (no syscalls); on a saturated or 1-CPU host it burns
// whole scheduler timeslices per hand-off, which is exactly the blocked-
// caller cost futex/condvar avoid — and the futex gate wakes in one
// syscall where the condvar pays the mutex handshake on top.
void BM_GatePolicy(benchmark::State& state) {
  const auto policy = static_cast<GateWaitPolicy>(state.range(0));
  std::atomic<std::uint32_t> request{0};
  std::atomic<std::uint32_t> response{0};
  CompletionGate request_gate;
  CompletionGate response_gate;
  BackendStats stats;
  const GateCounters counters{&stats.caller_yields, &stats.caller_sleeps,
                              &stats.caller_wakeups};
  constexpr std::uint32_t kStop = ~std::uint32_t{0};
  std::jthread responder([&] {
    std::uint32_t seq = 0;
    for (;;) {
      const std::uint32_t target = seq + 1;
      // The responder yields while idle so the measured side is the only
      // one whose wait policy varies.
      request_gate.await(
          request, [&](std::uint32_t v) { return v >= target; },
          GateWaitPolicy::kYield, std::chrono::microseconds{0},
          GateCounters{});
      if (request.load(std::memory_order_seq_cst) == kStop) return;
      seq = target;
      response.store(seq, std::memory_order_seq_cst);
      if (gate_can_sleep(policy)) response_gate.notify(response);
    }
  });
  std::uint32_t seq = 0;
  const std::uint64_t t0 = wall_ns();
  for (auto _ : state) {
    ++seq;
    request.store(seq, std::memory_order_seq_cst);
    response_gate.await(
        response, [&](std::uint32_t v) { return v >= seq; }, policy,
        std::chrono::microseconds{0}, counters);
  }
  const double seconds = static_cast<double>(wall_ns() - t0) * 1e-9;
  request.store(kStop, std::memory_order_seq_cst);
  state.SetLabel(std::string("wait=") + to_string(policy));
  state.counters["sleeps_per_wake"] = benchmark::Counter(
      static_cast<double>(stats.caller_sleeps.load()),
      benchmark::Counter::kAvgIterations);
  GateRow row;
  row.policy = to_string(policy);
  row.iterations = static_cast<std::uint64_t>(state.iterations());
  row.seconds = seconds;
  row.sleeps = stats.caller_sleeps.load();
  row.wakeups = stats.caller_wakeups.load();
  row.yields = stats.caller_yields.load();
  gate_rows()[row.policy] = row;
}
BENCHMARK(BM_GatePolicy)
    ->Arg(static_cast<int>(GateWaitPolicy::kSpin))
    ->Arg(static_cast<int>(GateWaitPolicy::kYield))
    ->Arg(static_cast<int>(GateWaitPolicy::kFutex))
    ->Arg(static_cast<int>(GateWaitPolicy::kCondvar));

// Many concurrent callers pipelined into one zc_batched worker (batch ==
// callers == 16, wait=futex, spin_us=0 so every caller sleeps), flushes
// releasing whole batches through per-slot gate notifies.  Each call
// carries ~2 µs of handler work, the regime batching exists for: a
// flush's execution phase is long enough that each mid-flush wake can
// hand the CPU to a freshly woken caller, stretching the tail of the
// batch.  Per-call latencies are collected and reduced to p50/p99 after
// the run — the pipelined p99 is a tail-latency effect.  JSONL rows:
// lane=batched_pipelined.
void BM_BatchedPipelined(benchmark::State& state) {
  constexpr unsigned kCallers = 16;
  constexpr std::uint64_t kCallsPerIter = 64;
  Fixture f;
  const std::uint32_t busy_id = f.enclave->ocalls().register_fn(
      "busy2us", [](MarshalledCall&) {
        const std::uint64_t t0 = wall_ns();
        while (wall_ns() - t0 < 2'000) {
          cpu_pause();
        }
      });
  install_backend_spec(*f.enclave,
                       "zc_batched:workers=1;scheduler=off;batch=16;"
                       "flush_us=50;wait=futex;spin_us=0");
  std::vector<std::vector<std::uint64_t>> lat(kCallers);
  std::barrier sync(kCallers + 1);
  std::atomic<bool> stop{false};
  std::vector<std::jthread> callers;
  for (unsigned t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      NopArgs args;
      for (;;) {
        sync.arrive_and_wait();  // iteration start
        if (stop.load(std::memory_order_seq_cst)) return;
        for (std::uint64_t i = 0; i < kCallsPerIter; ++i) {
          const std::uint64_t c0 = wall_ns();
          f.enclave->ocall(busy_id, args);
          lat[t].push_back(wall_ns() - c0);
        }
        sync.arrive_and_wait();  // iteration end
      }
    });
  }
  for (auto _ : state) {
    sync.arrive_and_wait();  // release the callers
    sync.arrive_and_wait();  // wait for their batches
  }
  stop.store(true, std::memory_order_seq_cst);
  sync.arrive_and_wait();
  callers.clear();
  std::vector<std::uint64_t> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  const auto pct = [&](double q) {
    if (all.empty()) return 0.0;
    const std::size_t i = static_cast<std::size_t>(
        q * static_cast<double>(all.size() - 1));
    return static_cast<double>(all[i]);
  };
  state.counters["p99_ns"] = benchmark::Counter(pct(0.99));
  const BackendStatsSnapshot snap = f.enclave->backend().stats_snapshot();
  PipelinedRow row;
  row.callers = kCallers;
  row.calls = all.size();
  row.p50_ns = pct(0.50);
  row.p99_ns = pct(0.99);
  row.caller_wakeups = snap.caller_wakeups;
  row.batch_flushes = snap.batch_flushes;
  if (snap.batch_flushes != 0) {
    row.batch_fill = static_cast<double>(snap.switchless_calls) /
                     static_cast<double>(snap.batch_flushes);
  }
  pipelined_row() = row;
}
BENCHMARK(BM_BatchedPipelined)->Unit(benchmark::kMicrosecond);

// One call per iteration through an arbitrary registry spec; with a
// pipeline depth D > 1 the spec's async plane keeps D calls in flight and
// each iteration retires (waits) exactly one.
void BM_BackendSpec(benchmark::State& state, const std::string& spec_text,
                    unsigned pipeline) {
  try {
    const bool skewed = g_skew != workload::CallerSkew::kUniform;
    Fixture f(skewed ? kSkewTes : 13'500);
    const BackendSpec spec = BackendSpec::parse(spec_text);
    const CallDirection direction = spec_direction(spec);
    const bool ecall = direction == CallDirection::kEcall;
    const std::uint32_t fn_id = ecall ? f.tnop_id : f.nop_id;
    workload::SyntheticOcalls syn_ids;
    if (skewed) {
      if (ecall) {
        state.SkipWithError(("--skew drives the ocall-plane f/g workload; '" +
                             spec_text + "' is direction=ecall")
                                .c_str());
        return;
      }
      // Before install: intel sl= name resolution needs the table final.
      syn_ids = workload::register_synthetic_ocalls(f.enclave->ocalls());
    }
    install_backend_spec(*f.enclave, spec_text);
    if (skewed) {
      // Zipf-skewed multi-caller lane: each iteration runs one batch of
      // the synthetic f/g workload (f,f,f,g per caller; g durations
      // zipf-ranked through a seeded caller permutation), timed between
      // the run barriers.  The regime is the one the paper's premise
      // (transition >> hand-off) needs to hold even on 1-2 core CI
      // hosts, where an inflated per-hand-off cost would otherwise
      // drown the worker-selection signal: heavy in-call durations and a
      // high simulated Tes (see kSkew* below; both are recorded in the JSONL
      // row).  Demand sits at worker capacity — pair it with 2-worker
      // specs like zc:workers=2;scheduler=off — so a caller that finds
      // the zipf-stalled worker busy must find the other or fall back.
      workload::SyntheticRunConfig run;
      run.total_calls = kSkewCallsPerBatch;
      run.enclave_threads = kSkewCallers;
      run.g_pauses = kSkewGPauses;
      run.skew = g_skew;
      run.config = workload::SynthConfig::kC1;
      run.pipeline = pipeline;
      run.seed = g_seed;
      const BackendStats& bs = f.enclave->backend().stats();
      const std::uint64_t sl0 = bs.switchless_calls.load();
      const std::uint64_t fb0 = bs.fallback_calls.load();
      double seconds = 0;
      std::uint64_t calls = 0;
      std::uint64_t seed = 0;
      for (auto _ : state) {
        const workload::SyntheticResult r =
            run_synthetic(*f.enclave, syn_ids, run);
        seconds += r.seconds;
        calls += r.f_calls + r.g_calls;
        seed = r.seed;
      }
      state.SetItemsProcessed(static_cast<std::int64_t>(calls));
      state.SetLabel(spec.to_string() + "/skew=" + to_string(g_skew));
      SpecRow row;
      row.backend = spec.to_string();
      row.pipeline = pipeline;
      row.skew = to_string(g_skew);
      row.tes = kSkewTes;
      row.iterations = static_cast<std::uint64_t>(state.iterations());
      row.calls = calls;
      row.seconds = seconds;
      row.switchless = bs.switchless_calls.load() - sl0;
      row.fallbacks = bs.fallback_calls.load() - fb0;
      row.seed = seed;
      spec_rows()[row.backend] = row;
      return;
    }
    ZcAsyncBackend* async = pipeline > 1
                                ? workload::async_plane(*f.enclave, direction)
                                : nullptr;
    if (pipeline > 1 && async == nullptr) {
      state.SkipWithError(("--pipeline=" + std::to_string(pipeline) +
                           " needs a slotted-plane backend (zc_async or zc_batched); '" +
                           spec_text + "' is synchronous")
                              .c_str());
      return;
    }
    const std::uint64_t t0 = wall_ns();
    if (async == nullptr) {
      NopArgs args;
      for (auto _ : state) {
        if (ecall) {
          f.enclave->ecall_fn(fn_id, args);
        } else {
          f.enclave->ocall(fn_id, args);
        }
      }
    } else {
      struct InFlight {
        NopArgs args;
        CallFuture future;
      };
      std::vector<InFlight> window(pipeline);
      std::uint64_t k = 0;
      for (auto _ : state) {
        InFlight& ring = window[k++ % pipeline];
        ring.future.wait();  // no-op on a fresh future
        CallDesc desc;
        desc.fn_id = fn_id;
        desc.args = &ring.args;
        desc.args_size = sizeof(ring.args);
        ring.future = async->submit(desc);
      }
      for (InFlight& ring : window) ring.future.wait();
    }
    const double seconds = static_cast<double>(wall_ns() - t0) * 1e-9;
    state.SetLabel(spec.to_string() +
                   (pipeline > 1 ? "/pipeline=" + std::to_string(pipeline)
                                 : ""));
    SpecRow row;
    row.backend = spec.to_string();
    row.pipeline = pipeline;
    row.iterations = static_cast<std::uint64_t>(state.iterations());
    row.calls = row.iterations;
    row.seconds = seconds;
    const BackendStats& bs = ecall ? f.enclave->ecall_backend().stats()
                                   : f.enclave->backend().stats();
    row.switchless = bs.switchless_calls.load();
    row.fallbacks = bs.fallback_calls.load();
    spec_rows()[row.backend] = row;
  } catch (const BackendSpecError& e) {
    state.SkipWithError(e.what());
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Split our --backend/--pipeline/--json flags from google-benchmark's own
  // arguments, and swallow the shared BenchArgs flags so smoke scripts can
  // pass a uniform flag set to every bench binary.
  std::vector<std::string> specs;
  std::string json_path;
  std::vector<char*> bench_argv{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--backend=", 10) == 0) {
      specs.emplace_back(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--pipeline=", 11) == 0) {
      g_pipeline = static_cast<unsigned>(std::atoi(argv[i] + 11));
      if (g_pipeline == 0) g_pipeline = 1;
    } else if (std::strncmp(argv[i], "--skew=", 7) == 0) {
      const std::string value = argv[i] + 7;
      if (value == "uniform") {
        g_skew = zc::workload::CallerSkew::kUniform;
      } else if (value == "zipf") {
        g_skew = zc::workload::CallerSkew::kZipf;
      } else {
        std::fprintf(stderr, "bad --skew value '%s' (expected uniform/zipf)\n",
                     value.c_str());
        return 2;
      }
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      g_seed = std::strtoull(argv[i] + 7, nullptr, 0);
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--smoke") == 0 ||
               std::strcmp(argv[i], "--full") == 0 ||
               std::strcmp(argv[i], "--no-pin") == 0 ||
               std::strncmp(argv[i], "--reps=", 7) == 0) {
      // BenchArgs flags without a google-benchmark meaning: ignored here.
    } else {
      bench_argv.push_back(argv[i]);
    }
  }
  for (const std::string& spec : specs) {
    try {
      zc::BackendRegistry::instance().validate(spec);
      if (g_pipeline > 1) {
        // Pipelining needs the async call plane; reject synchronous specs
        // up front (exit 2, like every figure driver) instead of letting
        // the benchmark skip and the binary exit 0 with an empty JSON
        // file.  The probe backend is never started.
        Fixture probe;
        auto backend =
            zc::BackendRegistry::instance().create(*probe.enclave, spec);
        if (dynamic_cast<zc::ZcAsyncBackend*>(backend.get()) == nullptr) {
          std::fprintf(stderr,
                       "--pipeline=%u needs a slotted-plane backend "
                       "(zc_async or zc_batched); '%s' is synchronous\n",
                       g_pipeline, spec.c_str());
          return 2;
        }
      }
    } catch (const zc::BackendSpecError& e) {
      std::fprintf(stderr, "bad --backend spec: %s\n", e.what());
      return 2;
    }
    benchmark::RegisterBenchmark(("BM_BackendSpec/" + spec).c_str(),
                                 BM_BackendSpec, spec, g_pipeline);
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot open --json file '%s'\n",
                   json_path.c_str());
      return 2;
    }
    for (const auto& [key, row] : spec_rows()) {
      const double per_call =
          row.calls > 0 ? row.seconds / static_cast<double>(row.calls) : 0.0;
      out << zc::bench::JsonRow()
                 .set("figure", "micro_callpath")
                 .set("backend", row.backend)
                 .set("pipeline", static_cast<std::uint64_t>(row.pipeline))
                 .set("skew", row.skew)
                 .set("seed", row.seed)
                 .set("tes", row.tes)
                 .set("iterations", row.iterations)
                 .set("calls", row.calls)
                 .set("seconds", row.seconds)
                 .set("ns_per_call", per_call * 1e9)
                 .set("switchless", row.switchless)
                 .set("fallbacks", row.fallbacks)
                 .str()
          << '\n';
    }
    for (const auto& [key, row] : gate_rows()) {
      const double per_wake =
          row.iterations > 0
              ? row.seconds / static_cast<double>(row.iterations)
              : 0.0;
      out << zc::bench::JsonRow()
                 .set("figure", "micro_callpath")
                 .set("lane", "gate_policy")
                 .set("policy", row.policy)
                 .set("iterations", row.iterations)
                 .set("seconds", row.seconds)
                 .set("ns_per_wake", per_wake * 1e9)
                 .set("sleeps", row.sleeps)
                 .set("wakeups", row.wakeups)
                 .set("yields", row.yields)
                 .str()
          << '\n';
    }
    if (const auto& row = pipelined_row()) {
      out << zc::bench::JsonRow()
                 .set("figure", "micro_callpath")
                 .set("lane", "batched_pipelined")
                 .set("callers", static_cast<std::uint64_t>(row->callers))
                 .set("calls", row->calls)
                 .set("p50_ns", row->p50_ns)
                 .set("p99_ns", row->p99_ns)
                 .set("caller_wakeups", row->caller_wakeups)
                 .set("batch_flushes", row->batch_flushes)
                 .set("batch_fill", row->batch_fill)
                 .str()
          << '\n';
    }
  }
  return 0;
}
