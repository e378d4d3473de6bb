#include "core/zc_backend.hpp"

#include <algorithm>

namespace zc {

namespace {
// The worker this thread last reserved.  A caller's scan starts there, so a
// sequential caller keeps reusing one worker whose lines stay warm, and
// concurrent callers settle on distinct workers instead of all probing
// worker 0 first.  Only a hint: shared by every ZcBackend the thread uses,
// reduced modulo the active count at each call.
thread_local unsigned t_last_worker = 0;
}  // namespace

ZcBackend::ZcBackend(Enclave& enclave, ZcConfig cfg)
    : enclave_(enclave), cfg_(std::move(cfg)) {
  if (cfg_.pool == FramePoolKind::kSlab) {
    slab_ = std::make_unique<SlabPool>();
    slab_->set_counters(SlabPool::Counters{
        &stats_.slab_hits, &stats_.slab_misses, &stats_.slab_grows});
  }
  const unsigned max =
      cfg_.resolved_max_workers(enclave_.config().logical_cpus);
  workers_.reserve(max);
  for (unsigned i = 0; i < max; ++i) {
    workers_.push_back(
        std::make_unique<ZcWorker>(enclave_, cfg_, stats_, i));
  }
  scheduler_ = std::make_unique<ZcScheduler>(enclave_, *this, stats_,
                                             cfg_.meter, cfg_.quantum, cfg_.mu);
}

ZcBackend::~ZcBackend() { stop(); }

void ZcBackend::start() {
  if (running_.exchange(true)) return;
  for (auto& w : workers_) w->start();
  scheduler_->set_active(
      cfg_.resolved_initial_workers(enclave_.config().logical_cpus));
  if (cfg_.scheduler_enabled) scheduler_->start();
}

void ZcBackend::stop() {
  if (!running_.exchange(false)) return;
  scheduler_->stop();
  // Program termination (§IV-B): the scheduler sets a value in the workers'
  // buffers; workers clean up and switch to EXIT.
  for (auto& w : workers_) w->shutdown();
  active_count_.store(0, std::memory_order_release);
}

void ZcBackend::set_active_workers(unsigned m) { scheduler_->set_active(m); }

void ZcBackend::command_worker(unsigned i, bool run) noexcept {
  workers_[i]->command(run ? SchedCmd::kRun : SchedCmd::kPause);
}

bool ZcBackend::worker_parked(unsigned i) const noexcept {
  return workers_[i]->state() == WorkerState::kPaused;
}

std::vector<std::uint64_t> ZcBackend::per_worker_served() const {
  std::vector<std::uint64_t> out;
  out.reserve(workers_.size());
  for (const auto& w : workers_) out.push_back(w->calls_served());
  return out;
}

void ZcBackend::execute_regular(const CallDesc& desc) {
  if (cfg_.direction == CallDirection::kOcall) {
    execute_regular_ocall(enclave_, desc);
  } else {
    execute_regular_ecall(enclave_, desc);
  }
}

CallPath ZcBackend::fallback(const CallDesc& desc, Refusal why) {
  execute_regular(desc);
  const std::uint64_t elided = copies_elided_by(desc);
  if (elided != 0) stats_.copies_elided.add(elided);
  stats_.count_fallback(why);
  return CallPath::kFallback;
}

bool ZcBackend::try_invoke_switchless(const CallDesc& desc) {
  return try_switchless(desc) == Refusal::kNone;
}

Refusal ZcBackend::try_switchless(const CallDesc& desc) {
  if (!running_.load(std::memory_order_relaxed)) return Refusal::kNoWorker;

  // Switchless-call selection (§IV-C): run switchlessly iff an idle worker
  // exists right now; otherwise refuse immediately (no busy waiting for
  // capacity).
  const unsigned m =
      std::min(active_count_.load(std::memory_order_acquire),
               static_cast<unsigned>(workers_.size()));
  if (m == 0) return Refusal::kNoWorker;
  ZcWorker* worker = nullptr;
  const unsigned start = t_last_worker % m;
  for (unsigned k = 0; k < m; ++k) {
    const unsigned i = start + k < m ? start + k : start + k - m;
    if (workers_[i]->try_reserve()) {
      worker = workers_[i].get();
      t_last_worker = i;
      break;
    }
  }
  if (worker == nullptr) return Refusal::kBusy;

  // The gauge covers reservation through collection: it counts calls
  // occupying a worker right now, which is what least_loaded routing
  // wants to balance (fallbacks run on the caller's own thread and do
  // not occupy this backend, so they are deliberately not counted).
  stats_.in_flight.add();
  // A frame small enough travels inline in the worker's hand-off lines,
  // whatever the pool kind; larger ones come from the slab or the bump
  // pool, whose oversize rule InlineFrame::fits keeps.
  const std::size_t bytes = frame_bytes(desc);
  const bool slab_frame =
      slab_ != nullptr && !InlineFrame::fits(bytes, cfg_.worker_pool_bytes);
  void* mem = slab_frame ? slab_->allocate(bytes) : worker->alloc_frame(bytes);
  if (mem == nullptr) {
    // Request larger than the whole pool: cannot go switchless.  (The
    // slab never refuses — that is the large-payload cliff it removes.)
    worker->cancel_reservation();
    stats_.in_flight.sub();
    return Refusal::kOversize;
  }

  MarshalledCall call = marshal_into(mem, desc);
  worker->submit(mem);
  worker->wait_done();
  unmarshal_from(call, desc);
  if (slab_frame) slab_->free(mem);
  // Every counter update comes before the release.  The releasing store
  // needs the status line back from the worker, which wrote it last; a
  // locked op after that store would drain the store buffer, and so wait
  // for the cross-core transfer.
  const std::uint64_t elided = copies_elided_by(desc);
  if (elided != 0) stats_.copies_elided.add(elided);
  stats_.in_flight.sub();
  stats_.switchless_calls.add();
  worker->release();
  return Refusal::kNone;
}

CallPath ZcBackend::invoke(const CallDesc& desc) {
  if (!running_.load(std::memory_order_relaxed)) {
    execute_regular(desc);
    const std::uint64_t elided = copies_elided_by(desc);
    if (elided != 0) stats_.copies_elided.add(elided);
    stats_.regular_calls.add();
    return CallPath::kRegular;
  }
  const Refusal why = try_switchless(desc);
  if (why == Refusal::kNone) return CallPath::kSwitchless;
  return fallback(desc, why);
}

std::unique_ptr<ZcBackend> make_zc_backend(Enclave& enclave, ZcConfig cfg) {
  return std::make_unique<ZcBackend>(enclave, std::move(cfg));
}

}  // namespace zc
