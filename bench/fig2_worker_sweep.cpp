// Fig. 2 — Runtime for 75,000 switchless-candidate ocalls to f and 25,000
// ocalls to g (α = 3β) under Intel switchless configurations C1–C5, as the
// worker-thread count sweeps 0..8, with 8 in-enclave threads.
//
// Paper shape: C1 (f switchless, g regular) fastest (~0.9 s, best with few
// workers); C2 (g switchless) worst (~1.6 s, ≈1.8x C1); C3/C4 in between;
// C5 (all regular) ~1.0 s and flat in the worker count.
//
// With --backend=SPEC (repeatable) the bench instead runs the same f/g
// workload through each given registry spec — the sweep dimension then
// lives in the spec itself (e.g. zc:workers=4), so every
// registered backend is reachable from this figure driver.  Spec mode
// additionally accepts --pipeline=D to drive a slotted-plane backend
// (zc_async or zc_batched) with D in-flight calls per enclave thread.
#include <iostream>
#include <vector>

#include "bench/bench_common.hpp"
#include "common/table.hpp"
#include "workload/harness.hpp"
#include "workload/synthetic.hpp"

using namespace zc;
using namespace zc::workload;

namespace {

// One f/g run against the installed backend; reps keeps the best wall time.
SyntheticResult best_run(Enclave& enclave, const SyntheticOcalls& ids,
                         const SyntheticRunConfig& run, unsigned reps) {
  SyntheticResult best;
  best.seconds = 1e99;
  for (unsigned rep = 0; rep < reps; ++rep) {
    const SyntheticResult r = run_synthetic(enclave, ids, run);
    if (r.seconds < best.seconds) best = r;
  }
  return best;
}

int run_spec_mode(const zc::bench::BenchArgs& args, std::uint64_t total_calls,
                  std::uint64_t g_pauses, zc::bench::JsonRows& json) {
  zc::bench::print_header(
      "Fig. 2", "synthetic f/g runtime per --backend spec", args);
  std::cout << "# " << total_calls << " ocalls (" << total_calls * 3 / 4
            << " f + " << total_calls / 4 << " g), 8 enclave threads, g = "
            << g_pauses << " pauses, skew = " << to_string(args.skew);
  if (args.pipeline > 1) {
    std::cout << ", pipeline depth " << args.pipeline;
  }
  std::cout << "\n";

  Table table({"backend", "time[s]", "switchless", "fallback", "regular"});
  for (const ModeSpec& mode : zc::bench::select_modes(args, {})) {
    auto enclave = Enclave::create(zc::bench::paper_machine(args));
    const auto ids = register_synthetic_ocalls(enclave->ocalls());
    install_backend(*enclave, mode);
    if (args.pipeline > 1 && async_plane(*enclave) == nullptr) {
      std::cerr << "--pipeline=" << args.pipeline
                << " needs a slotted-plane backend (zc_async or zc_batched); '"
                << mode.spec << "' is synchronous\n";
      return 2;
    }

    SyntheticRunConfig run;
    run.total_calls = total_calls;
    run.enclave_threads = 8;
    run.g_pauses = g_pauses;
    run.skew = args.skew;
    run.config = SynthConfig::kC1;
    run.pipeline = args.pipeline;
    run.seed = args.seed;

    const SyntheticResult r =
        best_run(*enclave, ids, run, args.repetitions);
    table.add_row({mode.label, Table::num(r.seconds, 3),
                   std::to_string(r.switchless), std::to_string(r.fallbacks),
                   std::to_string(r.regular)});
    json.add(zc::bench::JsonRow()
                 .set("figure", "fig2")
                 .set("backend", zc::bench::canonical_spec(mode.spec))
                 .set("pipeline", static_cast<std::uint64_t>(args.pipeline))
                 .set("skew", to_string(args.skew))
                 .set("seed", r.seed)
                 .set("g_pauses", g_pauses)
                 .set("total_calls", total_calls)
                 .set("seconds", r.seconds)
                 .set("switchless", r.switchless)
                 .set("fallbacks", r.fallbacks)
                 .set("regular", r.regular));
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const auto args = zc::bench::BenchArgs::parse(argc, argv);
  const std::uint64_t total_calls =
      args.scaled<std::uint64_t>(100'000, 40'000, 4'000);
  // The paper does not state Fig. 2's g duration; §III-B discusses worker
  // sizing in the regime where g clearly dominates a transition, and the
  // Fig. 3 sweep shows the C1/C2 separation emerging past ~300 pauses.
  const std::uint64_t g_pauses = 400;
  zc::bench::JsonRows json(args);

  if (!args.backends.empty()) {
    return run_spec_mode(args, total_calls, g_pauses, json);
  }
  zc::bench::reject_pipeline_flag(args);  // C1..C5 sweep is synchronous
  // The C1..C5 sweep reproduces the paper's homogeneous mix; a skewed mix
  // only makes sense against load-aware backends in spec mode.
  zc::bench::reject_skew_flag(args);

  zc::bench::print_header(
      "Fig. 2", "synthetic f/g runtime vs Intel worker count (C1..C5)", args);
  std::cout << "# " << total_calls << " ocalls (" << total_calls * 3 / 4
            << " f + " << total_calls / 4 << " g), 8 enclave threads, g = "
            << g_pauses << " pauses\n";

  const std::vector<SynthConfig> configs = {
      SynthConfig::kC1, SynthConfig::kC2, SynthConfig::kC3, SynthConfig::kC4,
      SynthConfig::kC5};
  const std::vector<unsigned> worker_counts =
      args.smoke ? std::vector<unsigned>{0, 4, 8}
                 : std::vector<unsigned>{0, 1, 2, 3, 4, 5, 6, 7, 8};

  Table table({"workers", "C1[s]", "C2[s]", "C3[s]", "C4[s]", "C5[s]"});
  for (const unsigned workers : worker_counts) {
    std::vector<std::string> row{std::to_string(workers)};
    for (const SynthConfig config : configs) {
      auto enclave = Enclave::create(zc::bench::paper_machine(args));
      const auto ids = register_synthetic_ocalls(enclave->ocalls());
      const std::string spec = intel_mode_spec(config, workers);
      install_backend(*enclave, ModeSpec::parse(spec));

      SyntheticRunConfig run;
      run.total_calls = total_calls;
      run.enclave_threads = 8;
      run.g_pauses = g_pauses;
      run.config = config;

      const SyntheticResult best =
          best_run(*enclave, ids, run, args.repetitions);
      row.push_back(Table::num(best.seconds, 3));
      json.add(zc::bench::JsonRow()
                   .set("figure", "fig2")
                   .set("backend", zc::bench::canonical_spec(spec))
                   .set("config", to_string(config))
                   .set("workers", static_cast<std::uint64_t>(workers))
                   .set("g_pauses", g_pauses)
                   .set("total_calls", total_calls)
                   .set("seconds", best.seconds));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  return 0;
} catch (const zc::BackendSpecError& e) {
  // A --backend value or sl name that only fails when the backend
  // is built against the run's enclave.
  return zc::bench::backend_spec_exit(e);
}
