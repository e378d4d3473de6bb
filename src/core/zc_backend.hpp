// ZC-Switchless call backend (paper §IV, Fig. 4).
//
// Any ocall is a switchless candidate: the caller scans the active workers
// for an UNUSED one, reserves it, copies its request into the worker's
// buffer and busy-waits for the result.  If no worker is idle the call
// "immediately falls back to a regular ocall without any busy waiting"
// (§IV-C) — the property that shields ZC from the Intel rbf pathology in
// the OpenSSL experiment (Fig. 10).
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "common/pool.hpp"
#include "core/scheduler.hpp"
#include "core/worker.hpp"
#include "core/zc_config.hpp"
#include "sgx/enclave.hpp"

namespace zc {

class ZcBackend final : public CallBackend, public WorkerSet {
 public:
  ZcBackend(Enclave& enclave, ZcConfig cfg);
  ~ZcBackend() override;

  void start() override;
  void stop() override;
  CallPath invoke(const CallDesc& desc) override;

  const char* name() const noexcept override {
    return cfg_.direction == CallDirection::kOcall ? "zc" : "zc-ecall";
  }

  unsigned active_workers() const noexcept override {
    return active_count_.load(std::memory_order_acquire);
  }

  // --- WorkerSet: what the scheduler drives -------------------------------
  unsigned max_workers() const noexcept override {
    return static_cast<unsigned>(workers_.size());
  }
  void command_worker(unsigned i, bool run) noexcept override;
  bool worker_parked(unsigned i) const noexcept override;
  std::atomic<unsigned>& active_count() noexcept override {
    return active_count_;
  }

  /// Manually applies a worker count (tests / scheduler-off ablations).
  void set_active_workers(unsigned m) override;

  const ZcConfig& config() const noexcept { return cfg_; }

  CopyMode copy_mode() const noexcept override { return cfg_.copy; }

  /// The shared frame slab when built with pool=slab (tests/diagnostics).
  SlabPool* slab() noexcept { return slab_.get(); }

  /// The feedback scheduler (valid between start() and stop()).
  ZcScheduler* scheduler() noexcept { return scheduler_.get(); }
  const ZcScheduler* scheduler() const noexcept { return scheduler_.get(); }

  /// Lifetime calls served per worker index (diagnostics).
  std::vector<std::uint64_t> per_worker_served() const;

 private:
  Refusal try_switchless(const CallDesc& desc);
  void execute_regular(const CallDesc& desc);
  CallPath fallback(const CallDesc& desc, Refusal why);

  Enclave& enclave_;
  ZcConfig cfg_;
  std::unique_ptr<SlabPool> slab_;  ///< frame slabs when pool=slab
  std::vector<std::unique_ptr<ZcWorker>> workers_;
  std::unique_ptr<ZcScheduler> scheduler_;
  std::atomic<unsigned> active_count_{0};
  std::atomic<bool> running_{false};
};

std::unique_ptr<ZcBackend> make_zc_backend(Enclave& enclave,
                                           ZcConfig cfg = {});

}  // namespace zc
