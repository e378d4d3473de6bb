// Trace-recording call-backend decorator: the live tap behind the
// `record:` registry family.
//
// A RecordingBackend wraps any CallBackend (built from a nested `inner=`
// spec, default no_sl) and forwards every call unchanged while appending
// one workload::TraceRecord per invoke: call name (resolved against the
// enclave's ocall/ecall table), direction, caller id (dense, first-seen
// thread order), virtual timestamp (wall time since the recorder started)
// and the observed invoke duration as the work hint.  Because it is a
// registry family, every bench/example/test can record its traffic by
// wrapping its spec:
//
//   record:file=/tmp/run.trace;inner=(zc:workers=2)
//
// and replay it later against any other spec (workload/replay.hpp).  The
// trace is written to `file` (binary) and/or `jsonl` (text export) when
// the backend stops; with neither option the trace stays in memory,
// reachable through trace_snapshot().
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sgx/backend.hpp"
#include "workload/trace.hpp"

namespace zc {

class Enclave;

class RecordingBackend final : public CallBackend {
 public:
  struct Options {
    std::string file;   ///< binary trace path written at stop() ("" = none)
    std::string jsonl;  ///< JSONL export path written at stop() ("" = none)
  };

  RecordingBackend(Enclave& enclave, std::unique_ptr<CallBackend> inner,
                   CallDirection direction, Options options);
  ~RecordingBackend() override;

  void start() override;
  void stop() override;
  CallPath invoke(const CallDesc& desc) override;
  const char* name() const noexcept override { return name_.c_str(); }
  BackendStatsSnapshot stats_snapshot() const override {
    return inner_->stats_snapshot();
  }
  unsigned active_workers() const noexcept override {
    return inner_->active_workers();
  }
  void set_active_workers(unsigned m) override {
    inner_->set_active_workers(m);
  }

  /// The wrapped backend (tests and diagnostics).
  CallBackend& inner() noexcept { return *inner_; }

  /// Point-in-time copy of the trace captured so far.
  workload::Trace trace_snapshot() const;

 private:
  void record(const CallDesc& desc, CallPath path, std::uint64_t t0_ns,
              std::uint64_t t1_ns);
  void write_outputs() noexcept;

  Enclave& enclave_;
  std::unique_ptr<CallBackend> inner_;
  CallDirection direction_;
  Options options_;
  std::string name_;
  std::uint64_t epoch_ns_ = 0;  ///< vtime origin (set at construction)

  mutable std::mutex mu_;
  workload::Trace trace_;
  /// fn_id -> interned name index, filled lazily (ids are table-dense).
  std::vector<std::uint32_t> name_idx_by_fn_;
  std::unordered_map<std::thread::id, std::uint32_t> caller_ids_;
  bool written_ = false;
};

std::unique_ptr<CallBackend> make_recording_backend(
    Enclave& enclave, std::unique_ptr<CallBackend> inner,
    CallDirection direction, RecordingBackend::Options options);

}  // namespace zc
