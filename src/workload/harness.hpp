// Benchmark-mode harness shared by every macro experiment.
//
// The paper runs every application as a matrix of call backends ×
// workloads: `no_sl` (regular ocalls), `i-<fns>-<workers>` (Intel
// switchless with a static call set and worker count), `hotcalls`
// (always-hot responders) and `zc` (ZC-Switchless).  A ModeSpec is one
// mode: a display label plus a registry spec string (see
// core/backend_registry.hpp for the grammar), and `install_backend`
// applies it to an enclave, wiring the CPU meter into the backend's
// threads.  Any backend registered with the BackendRegistry — including
// ones added by later experiments — is reachable through a ModeSpec, so
// every bench accepts backend selection from the command line.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cpu_meter.hpp"
#include "common/cycles.hpp"
#include "core/backend_registry.hpp"
#include "sgx/enclave.hpp"

namespace zc {
class ZcAsyncBackend;
}

namespace zc::workload {

struct ModeSpec {
  std::string label = "no_sl";  ///< table-header name, defaults to the spec
  std::string spec = "no_sl";   ///< registry spec string

  /// Wraps a raw registry spec string, validating it against the registry
  /// (throws BackendSpecError early rather than deep inside a run).  The
  /// label defaults to the spec text itself.
  static ModeSpec parse(std::string spec_text, std::string label = "");

  static ModeSpec no_sl() { return ModeSpec{}; }

  /// Paper notation `i-<fns>-<workers>`: a static switchless set given as
  /// ocall names (or numeric ids / "all") and a fixed worker count.  The
  /// SDK rbf/rbs defaults apply; use parse() to override them.
  static ModeSpec intel(std::string label,
                        const std::vector<std::string>& switchless,
                        unsigned workers);

  static ModeSpec zc_mode(std::string options = {});

  static ModeSpec hotcalls(unsigned workers = 2);
};

/// Installs (and starts) the backend described by `spec` on `enclave`.
/// `meter`, when given, receives the backend's worker/scheduler threads.
void install_backend(Enclave& enclave, const ModeSpec& spec,
                     CpuUsageMeter* meter = nullptr);

/// The installed backend's asynchronous call plane (submit()/wait()
/// futures), or nullptr when the backend on that direction does not
/// support futures.  Pipelined drivers (`--pipeline=D`) require a
/// non-null plane: a `zc_async:` or `zc_batched:` spec.
ZcAsyncBackend* async_plane(Enclave& enclave,
                            CallDirection direction = CallDirection::kOcall);

/// RAII helper for simulated-machine caller threads: pins to the machine's
/// CPU window and registers with the meter; checkpoints on destruction.
class SimThreadScope {
 public:
  SimThreadScope(const Enclave& enclave, CpuUsageMeter* meter);
  ~SimThreadScope();
  SimThreadScope(const SimThreadScope&) = delete;
  SimThreadScope& operator=(const SimThreadScope&) = delete;

  /// Publishes the thread's CPU time (call periodically in long loops).
  void checkpoint() noexcept;

 private:
  CpuUsageMeter* meter_;
  std::size_t slot_ = 0;
};

/// One measured run: wall seconds plus simulated-machine CPU usage.
struct Measured {
  double seconds = 0;
  double cpu_percent = 0;
};

/// Runs `body` between meter-window boundaries and reports wall + CPU.
template <typename Fn>
Measured measure(CpuUsageMeter& meter, Fn&& body) {
  meter.begin_window();
  const std::uint64_t t0 = wall_ns();
  body();
  const std::uint64_t t1 = wall_ns();
  Measured m;
  m.seconds = static_cast<double>(t1 - t0) * 1e-9;
  m.cpu_percent = meter.window_usage_percent();
  return m;
}

}  // namespace zc::workload
