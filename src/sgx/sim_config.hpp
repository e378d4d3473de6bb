// Configuration of the simulated SGX machine.
//
// Defaults mirror the paper's testbed (§III "Setup" / §V "Experimental
// setup"): a 4-core / 8-hyper-thread Xeon E3-1275 v6, Intel SDK v2.14,
// measured ocall transition overhead ~13,500 cycles, 1 GB enclave heap,
// 93.5 MB of usable EPC.
#pragma once

#include <cstddef>
#include <cstdint>

namespace zc {

struct SimConfig {
  /// Full ocall round-trip transition overhead (EEXIT + host dispatch
  /// entry + EENTER), in cycles.  §IV-A: "~13,500 CPU cycles for our
  /// experimental setup".
  std::uint64_t tes_cycles = 13'500;

  /// Logical CPUs of the *simulated* machine (paper: 8 hyper-threads).
  /// Drives the scheduler's decision range (0..N/2 workers) and CPU-usage
  /// normalisation.
  unsigned logical_cpus = 8;

  /// Enclave heap budget (paper: "maximum heap sizes of 1 GB").
  std::size_t enclave_heap_bytes = std::size_t{1} << 30;

  /// EPC usable by enclaves (paper: 93.5 MB of the 128 MB EPC). Trusted
  /// allocations beyond this point pay a per-page paging penalty.
  std::size_t epc_usable_bytes = std::size_t{981'467'136} / 10;  // 93.5 MiB-ish

  /// Cycles charged per 4 KiB page that spills out of the EPC (models
  /// SGX1 EPC paging; ~zero-cost for the paper's workloads, but the
  /// accounting is observable in tests).
  std::uint64_t epc_page_fault_cycles = 40'000;

  /// Confine all simulated-machine threads to a host-CPU window of
  /// `logical_cpus` CPUs starting at `pin_base_cpu` (benches enable this).
  bool pin_threads = false;
  unsigned pin_base_cpu = 0;

  /// Fraction of tes_cycles charged on EEXIT (the rest on EENTER).
  /// The split is not observable in the paper; 50/50 by default.
  double eexit_fraction = 0.5;
};

}  // namespace zc
