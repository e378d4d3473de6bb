// Thread-affinity helpers.  The paper's machine exposes 8 logical CPUs; to
// keep worker/caller interference realistic on wider hosts, benches pin the
// simulated machine's threads onto a contiguous window of host CPUs.
#pragma once

#include <optional>
#include <thread>

namespace zc {

/// Number of logical CPUs the host OS exposes.
unsigned host_logical_cpus() noexcept;

/// Number of CPUs the calling thread may run on (its affinity mask, which
/// `taskset` or a pin narrows); the host count where the mask is unknown.
unsigned allowed_cpus() noexcept;

/// Pins the calling thread to host CPU `cpu` (modulo the host CPU count).
/// Returns false if the affinity syscall failed (e.g. restricted cpuset).
bool pin_current_thread(unsigned cpu) noexcept;

/// Returns the host CPU the calling thread currently runs on, if known.
std::optional<unsigned> current_cpu() noexcept;

/// Pins the calling thread to the window of host CPUs
/// [base, base+width) (modulo the host CPU count).  The simulated machine
/// confines all of its threads (callers, workers, scheduler) to one such
/// window so that oversubscription effects match the paper's 8-thread Xeon
/// even on wider hosts.
bool pin_current_thread_to_window(unsigned base, unsigned width) noexcept;

}  // namespace zc
