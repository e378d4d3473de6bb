#include "common/pin.hpp"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace zc {

unsigned host_logical_cpus() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

unsigned allowed_cpus() noexcept {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
#endif
  return host_logical_cpus();
}

bool pin_current_thread(unsigned cpu) noexcept {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % host_logical_cpus(), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

bool pin_current_thread_to_window(unsigned base, unsigned width) noexcept {
#ifdef __linux__
  if (width == 0) return false;
  const unsigned n = host_logical_cpus();
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned i = 0; i < width && i < n; ++i) {
    CPU_SET((base + i) % n, &set);
  }
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)base;
  (void)width;
  return false;
#endif
}

std::optional<unsigned> current_cpu() noexcept {
#ifdef __linux__
  const int cpu = sched_getcpu();
  if (cpu < 0) return std::nullopt;
  return static_cast<unsigned>(cpu);
#else
  return std::nullopt;
#endif
}

}  // namespace zc
