// A/B replay bench: one trace, many backend specs.
//
// Loads a trace (recorded live via the `record:` family, or synthesized on
// the spot with --synth=...) and replays it against every --backend=SPEC in
// closed-loop and/or open-loop mode, printing one comparison line per
// (spec, mode) and emitting the full ReplayResult JSONL rows with --json.
// Because every replay of the same (trace, seed) must produce the same
// result digest, the bench double-checks the digests agree across specs and
// exits non-zero on a mismatch — an A/B run is also a differential test.
//
//   bench_replay_ab --synth=burst --backend=no_sl --backend="zc:workers=2"
//   bench_replay_ab --trace=/tmp/fig8.trace --mode=open --time-scale=0.5
//       --backend="zc_async:workers=2" --json=replay.jsonl
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "workload/phased.hpp"
#include "workload/replay.hpp"
#include "workload/trace.hpp"

namespace {

using zc::bench::BenchArgs;
using zc::workload::ReplayConfig;
using zc::workload::ReplayMode;
using zc::workload::ReplayResult;
using zc::workload::SynthesizerConfig;
using zc::workload::Trace;

struct ReplayAbArgs {
  std::string trace_path;          ///< --trace=FILE (wins over --synth)
  std::string synth = "burst";     ///< diurnal | burst | churn | phased
  std::string save_trace;          ///< --save-trace=FILE for synth output
  std::string mode = "both";       ///< closed | open | both
  double time_scale = 1.0;
  double work_scale = 1.0;
  unsigned threads = 0;
};

ReplayAbArgs parse_extra(int argc, char** argv) {
  ReplayAbArgs extra;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      extra.trace_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--synth=", 8) == 0) {
      extra.synth = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--save-trace=", 13) == 0) {
      extra.save_trace = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--mode=", 7) == 0) {
      extra.mode = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--time-scale=", 13) == 0) {
      extra.time_scale = std::atof(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--work-scale=", 13) == 0) {
      extra.work_scale = std::atof(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      extra.threads = static_cast<unsigned>(std::atoi(argv[i] + 10));
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::cout
          << "replay A/B flags (on top of the shared bench flags):\n"
          << "  --trace=FILE        replay a recorded trace\n"
          << "  --synth=KIND        synthesize one: diurnal|burst|churn|"
             "phased (default burst)\n"
          << "  --save-trace=FILE   write the synthesized trace out\n"
          << "  --mode=M            closed|open|both (default both)\n"
          << "  --time-scale=X      open loop: wall ns per virtual ns\n"
          << "  --work-scale=X      scale the per-call work hint (0 = off)\n"
          << "  --threads=N         replay threads (0 = auto)\n";
      std::exit(0);
    }
  }
  if (extra.mode != "closed" && extra.mode != "open" && extra.mode != "both") {
    std::cerr << "bad --mode value '" << extra.mode
              << "' (expected closed/open/both)\n";
    std::exit(2);
  }
  return extra;
}

Trace make_trace(const BenchArgs& args, const ReplayAbArgs& extra) {
  if (!extra.trace_path.empty()) return Trace::load(extra.trace_path);
  SynthesizerConfig cfg;
  cfg.seed = args.seed != 0 ? args.seed : 0x2e657361626572ull;
  cfg.duration_ms = args.scaled(500.0, 100.0, 20.0);
  cfg.base_rate_hz = args.scaled(40'000.0, 20'000.0, 10'000.0);
  cfg.callers = 8;
  if (extra.synth == "diurnal") return synthesize_diurnal(cfg);
  if (extra.synth == "burst") return synthesize_burst_storm(cfg);
  if (extra.synth == "churn") return synthesize_caller_churn(cfg);
  if (extra.synth == "phased") {
    zc::workload::PhasedPlan plan;
    plan.tau_seconds = cfg.duration_ms * 1e-3 / 12;
    plan.total_seconds = cfg.duration_ms * 1e-3;
    plan.initial_ops = 64;
    return synthesize_phased(plan, cfg);
  }
  std::cerr << "bad --synth value '" << extra.synth
            << "' (expected diurnal/burst/churn/phased)\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) try {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  const ReplayAbArgs extra = parse_extra(argc, argv);
  zc::bench::reject_pipeline_flag(args);
  zc::bench::reject_skew_flag(args);

  const Trace trace = make_trace(args, extra);
  if (!extra.save_trace.empty()) trace.save(extra.save_trace);

  std::vector<std::string> specs = args.backends;
  if (specs.empty()) specs = {"no_sl", "zc:workers=2"};
  std::vector<ReplayMode> modes;
  if (extra.mode != "open") modes.push_back(ReplayMode::kClosedLoop);
  if (extra.mode != "closed") modes.push_back(ReplayMode::kOpenLoop);

  std::cout << "# replay A/B — " << trace.records.size() << " calls, "
            << trace.caller_count() << " callers, "
            << trace.duration_ns() / 1'000'000 << " ms virtual, digest "
            << trace.digest() << "\n";
  std::printf("# %-40s %-11s %10s %9s %9s %9s %7s\n", "backend", "mode",
              "calls/s", "p50_us", "p99_us", "p999_us", "late");

  std::ofstream json;
  if (!args.json_path.empty()) {
    json.open(args.json_path, std::ios::trunc);
    if (!json) {
      std::cerr << "cannot open --json file '" << args.json_path << "'\n";
      return 2;
    }
  }

  bool digests_agree = true;
  std::uint64_t first_digest = 0;
  bool have_digest = false;
  for (const std::string& spec : specs) {
    for (const ReplayMode mode : modes) {
      ReplayConfig cfg;
      cfg.backend_spec = spec;
      cfg.mode = mode;
      cfg.time_scale = extra.time_scale;
      cfg.work_scale = extra.work_scale;
      cfg.threads = extra.threads;
      cfg.seed = args.seed != 0 ? args.seed : 0x5EEDull;
      cfg.sim = zc::bench::paper_machine(args);
      const ReplayResult r = zc::workload::replay_trace(trace, cfg);
      std::printf("  %-40s %-11s %10.0f %9.1f %9.1f %9.1f %7llu\n",
                  r.spec.c_str(), r.mode.c_str(),
                  static_cast<double>(r.calls) / (r.seconds > 0 ? r.seconds : 1),
                  r.p50_us, r.p99_us, r.p999_us,
                  static_cast<unsigned long long>(r.late_calls));
      if (json.is_open()) json << r.json() << '\n';
      if (!have_digest) {
        first_digest = r.result_digest;
        have_digest = true;
      } else if (r.result_digest != first_digest) {
        digests_agree = false;
        std::cerr << "DIGEST MISMATCH: " << r.spec << " (" << r.mode
                  << ") produced " << r.result_digest << ", expected "
                  << first_digest << "\n";
      }
    }
  }
  if (!digests_agree) return 1;
  std::cout << "# result digest " << first_digest
            << " identical across all replays\n";
  return 0;
} catch (const zc::BackendSpecError& e) {
  return zc::bench::backend_spec_exit(e);
} catch (const zc::workload::TraceError& e) {
  std::cerr << "trace error: " << e.what() << "\n";
  return 2;
}
