// Unified call-backend registry: the spec-string call plane.
//
// Every experiment in the paper is a matrix of call backends × workloads.
// The registry makes backend selection data, not code: a spec string names
// a backend key plus typed options, and the registry builds a started-ready
// CallBackend from it.  All benches, examples and the workload harness
// select backends exclusively through this seam, so new backends (sharded,
// batched, remote, ...) become reachable from every experiment by
// registering one builder.
//
// Spec grammar (see also BackendRegistry::help()):
//
//   spec    := key [ ":" option { ( ";" | "," ) option } ]
//   option  := name "=" value | value        // bare value extends the
//                                            // previous option's list
//   value   := "(" text ")" | text           // parens quote separators,
//                                            // how inner= nests a spec
//   key     := [a-z0-9_-]+
//
// Examples:
//   "no_sl"
//   "zc"
//   "zc:workers=4,quantum_us=10000"
//   "intel:sl=read,write;workers=2;rbf=20000"
//   "hotcalls:workers=2"
//   "zc_sharded:shards=4;policy=least_loaded;workers=1"
//   "zc_sharded:shards=4;inner=(zc_batched:batch=8;flush_us=50)"
//   "zc_batched:workers=2;batch=8;flush_us=100;spin_us=0"
//   "zc:wait=futex;spin_us=0"           (blocked callers futex-sleep)
//   "zc_async:workers=2;queue=16"       (submit()/wait() futures, no spin)
//   "zc:direction=ecall;workers=2"      (trusted workers serving ecalls)
//
// `sl=read,write` parses as one option with the value list {read, write}:
// a comma-separated segment without '=' appends to the preceding option.
// A parenthesised value keeps its ';'/','/':' intact — that is how
// `zc_sharded:inner=(...)` carries a whole nested spec, which the sharded
// builder feeds back through the registry to build each shard (a shard is
// a leaf: its spec is no zc_sharded and carries no inner= of its own; the
// parens round-trip through to_string()).
//
// Backends that can serve the trusted-function plane accept
// `direction=ecall`; install_backend_spec() then installs them via
// Enclave::set_ecall_backend instead of set_backend, making the call
// direction a first-class spec dimension.  A nested inner spec inherits
// the outer direction and must not spell its own.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/cpu_meter.hpp"
#include "sgx/backend.hpp"

namespace zc {

class Enclave;

/// Thrown for malformed spec strings, unknown keys/options and bad values.
class BackendSpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A parsed spec string: backend key plus an ordered option list.
struct BackendSpec {
  struct Option {
    std::string name;
    std::vector<std::string> values;  ///< never empty
  };

  std::string key;
  std::vector<Option> options;

  /// Parses `text`; throws BackendSpecError on grammar violations.  Does
  /// not validate the key or option names — that happens at create() time
  /// against the registry entry.
  static BackendSpec parse(std::string_view text);

  /// Canonical spec string; parse(to_string()) round-trips.
  std::string to_string() const;

  const Option* find(std::string_view name) const noexcept;
  bool has(std::string_view name) const noexcept { return find(name) != nullptr; }

  // Typed accessors.  Scalar getters reject list values; all throw
  // BackendSpecError on malformed values, mentioning the option name.
  std::string get_string(std::string_view name, std::string fallback) const;
  std::uint64_t get_u64(std::string_view name, std::uint64_t fallback) const;
  unsigned get_unsigned(std::string_view name, unsigned fallback) const;
  double get_double(std::string_view name, double fallback) const;
  bool get_bool(std::string_view name, bool fallback) const;
  /// The full value list of `name` (empty when absent).
  std::vector<std::string> get_list(std::string_view name) const;
};

/// Maps backend keys to builders.  Process-wide; the four paper backends
/// (no_sl, intel, hotcalls, zc) are pre-registered on first use.
class BackendRegistry {
 public:
  /// Builds a configured (not yet started) backend.  `meter`, when given,
  /// must be wired into the backend's worker/scheduler threads.
  using Builder = std::function<std::unique_ptr<CallBackend>(
      Enclave& enclave, const BackendSpec& spec, CpuUsageMeter* meter)>;

  struct Entry {
    std::string key;
    std::string summary;  ///< one line for help()
    /// Accepted option names; anything else in a spec is rejected.
    std::vector<std::string> option_names;
    Builder builder;
  };

  /// The process-wide registry with the built-in backends registered.
  static BackendRegistry& instance();

  /// Registers a backend; throws BackendSpecError on a duplicate key.
  void register_backend(Entry entry);

  bool contains(std::string_view key) const;
  /// Registered keys, in registration order.
  std::vector<std::string> keys() const;

  /// Parses and builds.  Throws BackendSpecError for unknown keys, unknown
  /// option names, and option values the builder rejects.
  std::unique_ptr<CallBackend> create(Enclave& enclave,
                                      std::string_view spec_text,
                                      CpuUsageMeter* meter = nullptr) const;
  std::unique_ptr<CallBackend> create(Enclave& enclave,
                                      const BackendSpec& spec,
                                      CpuUsageMeter* meter = nullptr) const;

  /// Validates that `spec_text` parses and names a known backend and known
  /// options (no enclave needed; value errors surface at create()).
  void validate(std::string_view spec_text) const;

  /// Human-readable grammar + per-backend option reference.
  std::string help() const;

 private:
  BackendRegistry() = default;
  const Entry& entry_for(const BackendSpec& spec) const;

  std::vector<Entry> entries_;
};

/// The boundary direction a spec's backend will serve: kEcall iff the spec
/// carries `direction=ecall`.  Throws BackendSpecError on other values.
CallDirection spec_direction(const BackendSpec& spec);

/// Parses `spec_text`, builds the backend (wiring `meter`) and installs it
/// on `enclave` — the one-call path used by examples and tools.  Specs with
/// `direction=ecall` install as the enclave's *ecall* backend (trusted
/// workers); all others replace the ocall backend.
void install_backend_spec(Enclave& enclave, std::string_view spec_text,
                          CpuUsageMeter* meter = nullptr);

}  // namespace zc
