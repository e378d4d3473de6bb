// Example: the composable call plane — nested `inner=` specs and the
// CompletionGate wait policies.
//
//   $ ./examples/composed_plane [calls] [callers]
//
// Drives the same echo workload through a ladder of spec strings: the
// plain ZC plane, its futex-sleeping variant (wait=futex;spin_us=0 — the
// blocked caller sleeps in the kernel instead of yield-polling), and the
// sharded router composed over batched and async inner backends
// (zc_sharded:inner=(...)).  For each spec it prints wall time, the
// call-path counters, and the rolled-up CompletionGate counters
// (caller_yields / caller_sleeps) from stats_snapshot() — the per-layer
// merge that composition keeps intact.
// Referenced from docs/architecture.md ("Composition: the backend
// lattice").
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu_meter.hpp"
#include "common/table.hpp"
#include "core/backend_registry.hpp"
#include "sgx/enclave.hpp"

using namespace zc;

namespace {

struct EchoArgs {
  std::uint64_t in = 0;
  std::uint64_t out = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t total_calls =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20'000;
  const unsigned callers =
      argc > 2 ? static_cast<unsigned>(std::strtoul(argv[2], nullptr, 10)) : 2;

  const std::vector<std::string> specs = {
      "zc:scheduler=off;workers=2",
      "zc:scheduler=off;workers=2;wait=futex;spin_us=0",
      "zc_sharded:shards=2;workers=1;scheduler=off",
      "zc_sharded:shards=2;inner=(zc_batched:workers=1;scheduler=off;batch=8)",
      "zc_sharded:shards=2;steal=on;"
      "inner=(zc_async:workers=1;scheduler=off;queue=8)",
  };

  std::cout << "# " << total_calls << " echo ocalls, " << callers
            << " callers per spec\n";
  Table table({"spec", "name()", "time[s]", "switchless", "fallback",
               "yields", "sleeps"});
  for (const std::string& spec : specs) {
    SimConfig sim;
    sim.logical_cpus = 8;
    auto enclave = Enclave::create(sim);
    const auto echo_id =
        enclave->ocalls().register_fn("echo", [](MarshalledCall& call) {
          auto* a = static_cast<EchoArgs*>(call.args);
          a->out = a->in + 1;
        });
    install_backend_spec(*enclave, spec);

    std::atomic<std::uint64_t> bad{0};
    const std::uint64_t t0 = wall_ns();
    {
      std::vector<std::jthread> threads;
      for (unsigned t = 0; t < callers; ++t) {
        threads.emplace_back([&, t] {
          const std::uint64_t per = total_calls / callers;
          for (std::uint64_t i = 0; i < per; ++i) {
            EchoArgs args;
            args.in = t * 1'000'000 + i;
            enclave->ocall(echo_id, args);
            if (args.out != args.in + 1) bad.fetch_add(1);
          }
        });
      }
    }
    const double seconds = static_cast<double>(wall_ns() - t0) * 1e-9;
    if (bad.load() != 0) {
      std::cerr << spec << ": " << bad.load() << " corrupted calls\n";
      return 1;
    }
    // stats_snapshot() rolls composed layers up: an inner zc_batched's
    // yields/sleeps surface here even though the router never waits.
    const BackendStatsSnapshot s = enclave->backend().stats_snapshot();
    table.add_row({spec, enclave->backend().name(), Table::num(seconds, 3),
                   std::to_string(s.switchless_calls),
                   std::to_string(s.fallback_calls),
                   std::to_string(s.caller_yields),
                   std::to_string(s.caller_sleeps)});
    enclave->set_backend(nullptr);
  }
  table.print(std::cout);
  std::cout << "\nwait=futex trades yield-polling (yields column) for "
               "kernel sleeps (sleeps column); inner=(...) composes the "
               "router over any backend without new code.\n";
  return 0;
}
