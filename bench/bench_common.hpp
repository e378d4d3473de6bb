// Shared plumbing for the figure-reproduction benches.
//
// Every binary prints the rows/series of one paper figure.  Default
// parameters are scaled down so the whole bench suite completes in minutes;
// pass --full for paper-scale runs (100k ocalls, 60 s dynamic runs, ...).
// Every bench also accepts --backend=SPEC (repeatable) to replace its
// default mode list with registry spec strings — see
// core/backend_registry.hpp for the grammar.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/backend_registry.hpp"
#include "sgx/sim_config.hpp"
#include "workload/harness.hpp"
#include "workload/synthetic.hpp"

namespace zc::bench {

struct BenchArgs {
  bool full = false;      ///< paper-scale parameters
  bool smoke = false;     ///< CI smoke lane: tiniest parameters/sweeps
  bool pin = true;        ///< confine to an 8-cpu window (paper machine)
  unsigned repetitions = 1;
  unsigned pipeline = 1;  ///< --pipeline=D: in-flight calls per caller
  /// --skew=zipf: zipf-ranked per-caller g durations (f/g drivers only).
  workload::CallerSkew skew = workload::CallerSkew::kUniform;
  /// --seed=N: pins every randomized choice a bench makes (zipf rank
  /// assignment, trace synthesis).  0 keeps the default randomized
  /// behaviour; the effective seed lands in the JSONL rows either way.
  std::uint64_t seed = 0;
  std::vector<std::string> backends;  ///< --backend=SPEC overrides
  std::string json_path;              ///< --json=FILE: JSONL result rows

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--full") == 0) {
        args.full = true;
      } else if (std::strcmp(argv[i], "--smoke") == 0) {
        args.smoke = true;
      } else if (std::strcmp(argv[i], "--no-pin") == 0) {
        args.pin = false;
      } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
        args.repetitions = static_cast<unsigned>(std::atoi(argv[i] + 7));
      } else if (std::strncmp(argv[i], "--pipeline=", 11) == 0) {
        args.pipeline = static_cast<unsigned>(std::atoi(argv[i] + 11));
        if (args.pipeline == 0) args.pipeline = 1;
      } else if (std::strncmp(argv[i], "--skew=", 7) == 0) {
        const std::string value = argv[i] + 7;
        if (value == "uniform") {
          args.skew = workload::CallerSkew::kUniform;
        } else if (value == "zipf") {
          args.skew = workload::CallerSkew::kZipf;
        } else {
          std::cerr << "bad --skew value '" << value
                    << "' (expected uniform/zipf)\n";
          std::exit(2);
        }
      } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
        args.seed = std::strtoull(argv[i] + 7, nullptr, 10);
      } else if (std::strncmp(argv[i], "--backend=", 10) == 0) {
        args.backends.emplace_back(argv[i] + 10);
      } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
        args.json_path = argv[i] + 7;
      } else if (std::strcmp(argv[i], "--help") == 0) {
        std::cout << "flags: --full (paper-scale) --smoke (CI lane)"
                  << " --no-pin --reps=N --pipeline=D (async backends)"
                  << " --skew=uniform|zipf (f/g caller mix)"
                  << " --seed=N (pin randomized choices; 0 = randomize)"
                  << " --backend=SPEC (repeatable) --json=FILE\n\n"
                  << BackendRegistry::instance().help();
        std::exit(0);
      }
    }
    return args;
  }

  /// Scale selector shorthand: paper / default-reduced / smoke values.
  template <typename T>
  T scaled(T full_v, T reduced_v, T smoke_v) const {
    if (smoke) return smoke_v;
    return full ? full_v : reduced_v;
  }
};

// --- Machine-readable result rows -------------------------------------------
//
// Benches persist one JSON object per measurement (JSONL) when --json=FILE
// is given, keyed by the *canonical* backend spec (BackendSpec::to_string)
// so cross-run comparisons join on a stable key instead of scraping stdout.

/// Canonical form of a registry spec string (parse + to_string).
inline std::string canonical_spec(const std::string& spec_text) {
  return BackendSpec::parse(spec_text).to_string();
}

/// One JSON object, assembled field by field.  Only the value types the
/// benches need: strings, unsigned integers and doubles.
class JsonRow {
 public:
  JsonRow& set(std::string_view key, std::string_view value) {
    std::string escaped;
    escaped.reserve(value.size() + 2);
    escaped += '"';
    for (const char c : value) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    escaped += '"';
    fields_.emplace_back(std::string(key), std::move(escaped));
    return *this;
  }
  JsonRow& set(std::string_view key, const char* value) {
    return set(key, std::string_view(value));
  }
  JsonRow& set(std::string_view key, std::uint64_t value) {
    fields_.emplace_back(std::string(key), std::to_string(value));
    return *this;
  }
  JsonRow& set(std::string_view key, double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    fields_.emplace_back(std::string(key), buf);
    return *this;
  }

  std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i != 0) out += ',';
      out += '"' + fields_[i].first + "\":" + fields_[i].second;
    }
    out += '}';
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// JSONL sink bound to --json=FILE; add() is a no-op when the flag is
/// absent, so benches emit rows unconditionally.
class JsonRows {
 public:
  explicit JsonRows(const BenchArgs& args) {
    if (!args.json_path.empty()) {
      out_.open(args.json_path, std::ios::trunc);
      if (!out_) {
        std::cerr << "cannot open --json file '" << args.json_path << "'\n";
        std::exit(2);
      }
    }
  }

  bool enabled() const { return out_.is_open(); }

  void add(const JsonRow& row) {
    if (out_.is_open()) out_ << row.str() << '\n';
  }

 private:
  std::ofstream out_;
};

/// The bench's mode list: the --backend=SPEC overrides when given (exiting
/// with a clear message on a bad key or option name), else `defaults`.
/// Option *values* and `sl` ocall names are only checked when the backend
/// is built against a concrete enclave — bench mains catch those late
/// BackendSpecErrors with backend_spec_exit() (function-try-block).
inline std::vector<workload::ModeSpec> select_modes(
    const BenchArgs& args, std::vector<workload::ModeSpec> defaults) {
  if (args.backends.empty()) return defaults;
  std::vector<workload::ModeSpec> modes;
  for (const std::string& spec : args.backends) {
    try {
      // These benches drive *ocall* workloads; an ecall-direction backend
      // would install on the other plane and the bench would silently
      // measure the default no_sl backend under the requested label.
      if (spec_direction(BackendSpec::parse(spec)) == CallDirection::kEcall) {
        std::cerr << "--backend spec '" << spec
                  << "': direction=ecall backends serve the trusted-"
                     "function plane; this bench drives ocalls (use "
                     "bench_micro_callpath for ecall specs)\n";
        std::exit(2);
      }
      modes.push_back(workload::ModeSpec::parse(spec));
    } catch (const BackendSpecError& e) {
      std::cerr << "bad --backend spec: " << e.what() << "\n\n"
                << BackendRegistry::instance().help();
      std::exit(2);
    }
  }
  return modes;
}

/// Smoke lane shrinks a sweep dimension to its first point.
template <typename T>
std::vector<T> smoke_first(const BenchArgs& args, std::vector<T> sweep) {
  if (args.smoke && sweep.size() > 1) sweep.resize(1);
  return sweep;
}

/// Benches whose workload cannot pipeline (or that never install an async
/// backend) call this so --pipeline fails loudly instead of silently
/// measuring the synchronous path under a pipelined label.
inline void reject_pipeline_flag(const BenchArgs& args) {
  if (args.pipeline > 1) {
    std::cerr << "--pipeline is only supported by benches that drive the "
                 "async call plane (bench_fig2_worker_sweep spec mode, "
                 "bench_micro_callpath) with a slotted-plane backend "
                 "(zc_async or zc_batched)\n";
    std::exit(2);
  }
}

/// Benches whose workload has no f/g caller mix (or whose sweep semantics
/// a skewed mix would invalidate) call this so --skew fails loudly instead
/// of silently measuring the uniform mix under a skewed label.
inline void reject_skew_flag(const BenchArgs& args) {
  if (args.skew != workload::CallerSkew::kUniform) {
    std::cerr << "--skew is only supported by benches that drive the "
                 "synthetic f/g caller mix (bench_fig2_worker_sweep spec "
                 "mode, bench_micro_callpath)\n";
    std::exit(2);
  }
}

/// Shared exit path for spec errors thrown mid-run while building a
/// backend (bad option value, unresolvable sl name): report and exit 2
/// instead of letting the exception reach std::terminate.
inline int backend_spec_exit(const BackendSpecError& e) {
  std::cerr << "bad backend spec: " << e.what() << "\n\n"
            << BackendRegistry::instance().help();
  return 2;
}

/// The paper's simulated machine: 8 logical CPUs, Tes = 13,500 cycles.
inline SimConfig paper_machine(const BenchArgs& args) {
  SimConfig cfg;
  cfg.tes_cycles = 13'500;
  cfg.logical_cpus = 8;
  cfg.pin_threads = args.pin;
  cfg.pin_base_cpu = 0;
  return cfg;
}

inline void print_header(const std::string& figure, const std::string& what,
                         const BenchArgs& args) {
  std::cout << "# " << figure << " — " << what << "\n"
            << "# scale: "
            << (args.smoke ? "smoke (CI)"
                           : args.full ? "full (paper)" : "reduced")
            << ", pinned: " << (args.pin ? "yes" : "no") << "\n";
}

}  // namespace zc::bench
