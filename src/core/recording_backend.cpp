#include "core/recording_backend.hpp"

#include <cstdio>
#include <fstream>
#include <limits>

#include "common/cpu_meter.hpp"  // wall_ns
#include "sgx/enclave.hpp"

namespace zc {

RecordingBackend::RecordingBackend(Enclave& enclave,
                                   std::unique_ptr<CallBackend> inner,
                                   CallDirection direction, Options options)
    : enclave_(enclave),
      inner_(std::move(inner)),
      direction_(direction),
      options_(std::move(options)),
      epoch_ns_(wall_ns()) {
  name_ = std::string("record[") + inner_->name() + "]";
  if (direction_ == CallDirection::kEcall) name_ += "-ecall";
}

RecordingBackend::~RecordingBackend() { write_outputs(); }

void RecordingBackend::start() {
  // The vtime origin resets on (re)start so a stop/start cycle does not
  // leave a dead gap at the front of the schedule.
  epoch_ns_ = wall_ns();
  inner_->start();
}

void RecordingBackend::stop() {
  inner_->stop();
  write_outputs();
}

CallPath RecordingBackend::invoke(const CallDesc& desc) {
  stats_.in_flight.add();
  const std::uint64_t t0 = wall_ns();
  const CallPath path = inner_->invoke(desc);
  const std::uint64_t t1 = wall_ns();
  stats_.in_flight.sub();
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
  record(desc, path, t0, t1);
  return path;
}

void RecordingBackend::record(const CallDesc& desc, CallPath /*path*/,
                              std::uint64_t t0_ns, std::uint64_t t1_ns) {
  workload::TraceRecord r;
  r.vtime_ns = t0_ns >= epoch_ns_ ? t0_ns - epoch_ns_ : 0;
  r.work_ns = t1_ns - t0_ns;
  r.args_size = desc.args_size;
  const auto clamp32 = [](std::size_t v) {
    return v > std::numeric_limits<std::uint32_t>::max()
               ? std::numeric_limits<std::uint32_t>::max()
               : static_cast<std::uint32_t>(v);
  };
  r.in_size = clamp32(desc.in_size);
  r.out_size = clamp32(desc.out_size);
  r.direction = direction_;

  std::lock_guard lock(mu_);
  if (desc.fn_id >= name_idx_by_fn_.size()) {
    name_idx_by_fn_.resize(desc.fn_id + 1,
                           std::numeric_limits<std::uint32_t>::max());
  }
  if (name_idx_by_fn_[desc.fn_id] ==
      std::numeric_limits<std::uint32_t>::max()) {
    const OcallTable& table = direction_ == CallDirection::kOcall
                                  ? enclave_.ocalls()
                                  : enclave_.ecalls();
    name_idx_by_fn_[desc.fn_id] = trace_.intern(table.name(desc.fn_id));
  }
  r.name_idx = name_idx_by_fn_[desc.fn_id];
  const auto [it, inserted] = caller_ids_.try_emplace(
      std::this_thread::get_id(),
      static_cast<std::uint32_t>(caller_ids_.size()));
  r.caller = it->second;
  trace_.records.push_back(r);
  written_ = false;  // new traffic re-arms the stop()-time dump
}

workload::Trace RecordingBackend::trace_snapshot() const {
  std::lock_guard lock(mu_);
  return trace_;
}

void RecordingBackend::write_outputs() noexcept {
  workload::Trace snapshot;
  {
    std::lock_guard lock(mu_);
    if (written_ || (options_.file.empty() && options_.jsonl.empty())) return;
    written_ = true;
    snapshot = trace_;
  }
  try {
    if (!options_.file.empty()) snapshot.save(options_.file);
    if (!options_.jsonl.empty()) {
      std::ofstream out(options_.jsonl, std::ios::trunc);
      if (!out) {
        throw workload::TraceError("cannot open trace JSONL file '" +
                                   options_.jsonl + "'");
      }
      snapshot.export_jsonl(out);
    }
  } catch (const workload::TraceError& e) {
    // stop() and the destructor must not throw; a failed dump is loud on
    // stderr instead of fatal mid-teardown.
    std::fprintf(stderr, "record backend: %s\n", e.what());
  }
}

std::unique_ptr<CallBackend> make_recording_backend(
    Enclave& enclave, std::unique_ptr<CallBackend> inner,
    CallDirection direction, RecordingBackend::Options options) {
  return std::make_unique<RecordingBackend>(enclave, std::move(inner),
                                            direction, std::move(options));
}

}  // namespace zc
