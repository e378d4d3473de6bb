// Fig. 14 — Encrypted sector I/O throughput across the large-payload data
// plane: sector size sweep (512 B – 1 MB) x backend spec x copy discipline
// (double vs single) x memcpy variant (zc vs non-temporal streaming).
//
// The workload is SectorStore over SimFs: every sector is AES-256-CBC
// encrypted in-enclave and crosses the boundary as one fwrite/fread ocall
// payload.  At small sectors the per-call synchronisation dominates and all
// modes converge; at large sectors the copies dominate (Figs. 7/13), which
// is where pool=slab removes the bump-pool size cliff, copy=single removes
// the trusted staging pass, and the streaming memcpy stops the remaining
// copy from evicting the enclave's working set.
#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "apps/crypto/sector_store.hpp"
#include "bench/bench_common.hpp"
#include "common/cpu_meter.hpp"
#include "common/cycles.hpp"
#include "common/table.hpp"
#include "tlibc/memcpy.hpp"

using namespace zc;

namespace {

// Cheap per-sector plaintext check: FNV-1a over a 128-byte sample (the
// full cross-mode equality is pinned by the equivalence tests; this only
// has to catch a broken decrypt during the timed pass at O(1) cost).
std::uint64_t sample_fold(const std::uint8_t* p, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  const std::size_t head = std::min<std::size_t>(64, n);
  for (std::size_t i = 0; i < head; ++i) h = (h ^ p[i]) * 1099511628211ULL;
  for (std::size_t i = n >= 64 ? n - 64 : 0; i < n; ++i) {
    h = (h ^ p[i]) * 1099511628211ULL;
  }
  return h;
}

struct PassResult {
  double mbps = 0.0;
  double cycles_per_byte = 0.0;
};

PassResult pass_result(std::uint64_t bytes, std::uint64_t ns,
                       std::uint64_t cycles) {
  PassResult r;
  if (ns != 0) r.mbps = static_cast<double>(bytes) * 1e3 / static_cast<double>(ns);
  if (bytes != 0) {
    r.cycles_per_byte =
        static_cast<double>(cycles) / static_cast<double>(bytes);
  }
  return r;
}

// One JSONL stats row per cell, so the slab/copy counters land next to
// the throughput rows.
void add_stats_row(bench::JsonRows& json, const CallBackend& backend,
                   const std::string& spec, std::size_t sector,
                   tlibc::MemcpyKind kind) {
  const BackendStatsSnapshot s = backend.stats_snapshot();
  json.add(bench::JsonRow()
               .set("figure", "fig14")
               .set("row", "stats")
               .set("spec", spec)
               .set("sector_bytes", static_cast<std::uint64_t>(sector))
               .set("memcpy", tlibc::to_string(kind))
               .set("regular_calls", s.regular_calls)
               .set("switchless_calls", s.switchless_calls)
               .set("fallback_calls", s.fallback_calls)
               .set("fallback_no_worker", s.fallback_no_worker)
               .set("fallback_busy", s.fallback_busy)
               .set("fallback_oversize", s.fallback_oversize)
               .set("batch_flushes", s.batch_flushes)
               .set("wake_batches", s.wake_batches)
               .set("slab_hits", s.slab_hits)
               .set("slab_misses", s.slab_misses)
               .set("slab_grows", s.slab_grows)
               .set("copies_elided", s.copies_elided));
}

}  // namespace

int main(int argc, char** argv) try {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::reject_pipeline_flag(args);
  bench::reject_skew_flag(args);
  bench::JsonRows json(args);

  bench::print_header("Fig. 14",
                      "encrypted sector I/O: slab frames, single-copy "
                      "marshalling, streaming memcpy",
                      args);

  std::vector<std::string> specs = args.backends;
  if (specs.empty()) {
    specs = {
        "no_sl",
        "zc:workers=2;max_workers=2",
        "zc:workers=2;max_workers=2;pool=slab",
        "zc:workers=2;max_workers=2;pool=slab;copy=single",
        // The slotted plane runs its configless scheduler with workers=2
        // as the maximum; scheduler=on names that in every row.
        "zc_batched:workers=2;scheduler=on;batch=8;pool=slab;copy=single",
        "zc_async:workers=2;scheduler=on;queue=16;pool=slab;copy=single",
    };
  } else {
    for (const std::string& s : specs) {
      if (spec_direction(BackendSpec::parse(s)) == CallDirection::kEcall) {
        std::cerr << "--backend spec '" << s
                  << "': this bench drives the ocall plane\n";
        return 2;
      }
    }
  }

  const std::vector<std::size_t> sizes = bench::smoke_first(
      args,
      std::vector<std::size_t>{512, 4096, 65'536, 262'144, 1'048'576});
  const std::vector<tlibc::MemcpyKind> kinds = {tlibc::MemcpyKind::kZc,
                                                tlibc::MemcpyKind::kZcNt};
  const std::uint64_t bytes_target = args.scaled<std::uint64_t>(
      256ULL << 20, 32ULL << 20, 256ULL << 10);

  auto enclave = Enclave::create(bench::paper_machine(args));
  EnclaveLibc libc(*enclave, IoMode::kSimulated);

  const std::uint8_t key[32] = {0x42, 0x13, 0x37, 0x99, 0x01, 0x23, 0x45,
                                0x67, 0x89, 0xab, 0xcd, 0xef, 0xfe, 0xdc,
                                0xba, 0x98, 0x76, 0x54, 0x32, 0x10, 0x0f,
                                0x1e, 0x2d, 0x3c, 0x4b, 0x5a, 0x69, 0x78,
                                0x87, 0x96, 0xa5, 0xb4};

  Table table({"spec", "memcpy", "sector", "copy", "write[MB/s]",
               "read[MB/s]", "wr-cyc/B", "rd-cyc/B"});
  bool all_ok = true;

  for (const std::string& spec_text : specs) {
    const std::string spec = bench::canonical_spec(spec_text);
    for (const tlibc::MemcpyKind kind : kinds) {
      for (const std::size_t size : sizes) {
        // Fresh backend per cell: lifetime counters become per-cell stats.
        install_backend_spec(*enclave, spec_text, nullptr);
        CallBackend& backend = enclave->backend();
        const CopyMode mode = backend.copy_mode();
        const tlibc::ScopedMemcpy guard(kind);

        const std::uint64_t sectors =
            std::max<std::uint64_t>(4, bytes_target / size);
        const std::uint64_t bytes = sectors * size;

        app::SectorStore store(libc, "/fig14/sectors.bin", size, key);
        std::vector<std::uint8_t> plain(size);
        for (std::size_t i = 0; i < size; ++i) {
          plain[i] = static_cast<std::uint8_t>((i * 2654435761ULL >> 7) ^ i);
        }
        const std::uint64_t expected = sample_fold(plain.data(), size);

        bool ok = store.open_for_write();
        const std::uint64_t w_ns0 = wall_ns();
        const std::uint64_t w_c0 = rdtsc();
        for (std::uint64_t i = 0; ok && i < sectors; ++i) {
          ok = store.write_sector(i, plain.data(), mode);
        }
        const std::uint64_t w_cycles = rdtsc() - w_c0;
        const std::uint64_t w_ns = wall_ns() - w_ns0;
        store.close();

        std::vector<std::uint8_t> out(size);
        ok = ok && store.open_for_read();
        const std::uint64_t r_ns0 = wall_ns();
        const std::uint64_t r_c0 = rdtsc();
        for (std::uint64_t i = 0; ok && i < sectors; ++i) {
          ok = store.read_sector(i, out.data(), mode) &&
               sample_fold(out.data(), size) == expected;
        }
        const std::uint64_t r_cycles = rdtsc() - r_c0;
        const std::uint64_t r_ns = wall_ns() - r_ns0;
        store.close();
        all_ok = all_ok && ok;

        const PassResult wr = pass_result(bytes, w_ns, w_cycles);
        const PassResult rd = pass_result(bytes, r_ns, r_cycles);
        table.add_row(
            {spec, tlibc::to_string(kind),
             size >= 1024 ? std::to_string(size / 1024) + "kB" : "0.5kB",
             to_string(mode), Table::num(wr.mbps, 1), Table::num(rd.mbps, 1),
             Table::num(wr.cycles_per_byte, 3),
             Table::num(rd.cycles_per_byte, 3)});
        json.add(bench::JsonRow()
                     .set("figure", "fig14")
                     .set("row", "throughput")
                     .set("spec", spec)
                     .set("memcpy", tlibc::to_string(kind))
                     .set("copy", to_string(mode))
                     .set("sector_bytes", static_cast<std::uint64_t>(size))
                     .set("sectors", sectors)
                     .set("write_mbps", wr.mbps)
                     .set("read_mbps", rd.mbps)
                     .set("write_cycles_per_byte", wr.cycles_per_byte)
                     .set("read_cycles_per_byte", rd.cycles_per_byte)
                     .set("ok", static_cast<std::uint64_t>(ok ? 1 : 0)));
        add_stats_row(json, backend, spec, size, kind);
      }
    }
  }

  table.print(std::cout);
  if (!all_ok) {
    std::cerr << "fig14: at least one pass failed verification\n";
    return 1;
  }
  return 0;
} catch (const BackendSpecError& e) {
  return bench::backend_spec_exit(e);
}
