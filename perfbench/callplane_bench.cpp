// Call-plane benchmark program.
//
// One process, one workload per run.  Every workload is a fixed backend
// spec under a fixed traffic shape, driven by two caller threads through
// the library's public API only (Enclave, EnclaveLibc, KissDB, SectorStore,
// the async plane, backend stats, TransitionModel counters, CallProfiler
// and the process/thread CPU clocks):
//
//   kissdb_mixed     zc                              closed loop, 80/20 get/put
//   sector_io        zc_batched:workers=2;pool=slab;copy=single
//                                                    closed loop, 32 KB AES sectors
//   async_pipelined  zc_async:workers=2;queue=16     closed loop, 8 futures/caller
//
// A run first times a few extra set-ups (enclave, data loaded on the
// regular path, backend installed and started).  It then splits the
// measured time over kTrials trials; each trial sets up a fresh rig
// (timed too: setup_s is the median of all set-ups), warms up and measures
// one window.  The end-to-end figures pool every op of the measured
// windows.  With --trace 1 the second half of the trials runs with a
// CallProfiler attached and an active_workers() sampler: they yield the
// per-layer metrics, and their end-to-end figures minus those of the
// untraced trials give the tracing overhead.
//
// Every operation's result is checked (shadow map, decrypted plaintext,
// the audit log read back).  The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every check passed.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "apps/crypto/sector_store.hpp"
#include "apps/kissdb/kissdb.hpp"
#include "common/cpu_meter.hpp"
#include "common/cycles.hpp"
#include "core/backend_registry.hpp"
#include "core/zc_async.hpp"
#include "sgx/enclave.hpp"
#include "sgx/profiler.hpp"
#include "sgx/sim_fs.hpp"
#include "sgx/tlibc_stdio.hpp"
#include "workload/harness.hpp"

using namespace zc;

namespace {

constexpr unsigned kCallers = 2;
constexpr unsigned kMaxWorkers = 2;
// Set-ups per run: at least kMinSetups, and more while the total stays
// under kSetupBudgetS (cheap set-ups are repeated up to kMaxSetups times so
// their median is steady).  setup_s is the median.
constexpr unsigned kMinSetups = 5;
constexpr unsigned kMaxSetups = 1001;
constexpr double kSetupBudgetS = 0.5;
constexpr double kWarmupSeconds = 0.5;   // untimed, before each window
// The measured time is split over this many trials, each on a freshly set
// up rig, so a run samples several independent scheduler and thread
// placement histories instead of one.
constexpr unsigned kTrials = 10;

// ---------------------------------------------------------------------------
// Inputs: everything the program receives is derived from the seed here.

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Small deterministic generator (xorshift64*), one per input stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(splitmix64(seed) | 1) {}
  std::uint64_t next() noexcept {
    s_ ^= s_ >> 12;
    s_ ^= s_ << 25;
    s_ ^= s_ >> 27;
    return s_ * 0x2545f4914f6cdd1dULL;
  }

 private:
  std::uint64_t s_;
};

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) noexcept {
  return splitmix64(seed ^ splitmix64(stream * 1000003ULL + index));
}

// ---------------------------------------------------------------------------
// Run control: phases and per-caller logs.

enum Phase : int { kIdle = -1, kWarmup = 0, kWindow = 1, kStop = 2 };
constexpr int kWindows = 2;  // warmup, measured window

/// Published by the main thread before each phase store (release).
struct Control {
  std::atomic<int> phase{kIdle};
  std::array<std::uint64_t, kWindows> dur_ns{};
};

/// What one caller saw during one window.
struct WindowLog {
  /// Latency per op kind, in ns (4 bytes a sample: async runs record
  /// millions).
  std::array<std::vector<std::uint32_t>, 2> lat_ns;
  std::uint64_t attempted = 0;
  std::uint64_t delivered = 0;  ///< attempted ops whose result checked out
  std::uint64_t cpu_ns = 0;     ///< this caller thread's CPU in the window
  /// Time the caller spent on the workload's own bookkeeping rather than
  /// on calls (see OpResult::pause_ns); excluded from every figure.
  std::uint64_t pause_ns = 0;
  std::uint64_t pause_cpu_ns = 0;

  void record(int kind, bool ok, std::uint64_t lat) {
    lat_ns[kind].push_back(
        static_cast<std::uint32_t>(std::min<std::uint64_t>(lat, UINT32_MAX)));
    ++attempted;
    if (ok) ++delivered;
  }
};

struct CallerLog {
  std::array<WindowLog, kWindows> w;
  std::string error;  ///< first failed check, for the report
};

struct OpResult {
  int kind = 0;
  bool ok = true;
  std::uint64_t t_start_ns = 0;  ///< latency origin (0 = when the op began)
  std::uint64_t t_end_ns = 0;    ///< latency end (0 = when the op returned)
  /// Wall and thread CPU time the op spent on bookkeeping that is not part
  /// of the measured work (checking a closed log segment).
  std::uint64_t pause_ns = 0;
  std::uint64_t pause_cpu_ns = 0;
};

void note_error(CallerLog& log, const std::string& what) {
  if (log.error.empty()) log.error = what;
}

/// Closed loop: issue the next op as soon as the last returns, until the
/// main thread moves to kStop.  Ops are attributed to the phase they began
/// in; latency runs from OpResult::t_start_ns (or the op's start) to
/// OpResult::t_end_ns (or the op's return).
template <typename Op>
void closed_loop(Control& ctl, CallerLog& log, Op&& op) {
  int p = kIdle;
  while ((p = ctl.phase.load(std::memory_order_acquire)) == kIdle) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  std::uint64_t cpu0 = thread_cpu_ns();
  while (true) {
    const int now = ctl.phase.load(std::memory_order_acquire);
    if (now != p) {
      const std::uint64_t cpu = thread_cpu_ns();
      log.w[p].cpu_ns += cpu - cpu0;
      cpu0 = cpu;
      p = now;
      if (p == kStop) break;
    }
    const std::uint64_t t0 = wall_ns();
    const OpResult r = op();
    const std::uint64_t t1 = r.t_end_ns != 0 ? r.t_end_ns : wall_ns();
    const std::uint64_t origin = r.t_start_ns != 0 ? r.t_start_ns : t0;
    WindowLog& w = log.w[p];
    w.record(r.kind, r.ok, t1 - origin);
    w.pause_ns += r.pause_ns;
    w.pause_cpu_ns += r.pause_cpu_ns;
  }
}

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* spec() const = 0;
  /// Loads the workload's data on the regular (no_sl) path.
  virtual void prepare(EnclaveLibc& libc) = 0;
  /// Called once the backend under test is installed and started.
  virtual void attach(Enclave& enclave) { (void)enclave; }
  /// Per-layer metric names for the p50 of op kinds 0 and 1 (empty when
  /// the app layer reports nothing per kind).
  virtual std::array<std::string, 2> kind_metrics() const { return {}; }
  /// Runs caller `index` until the main thread reaches kStop.
  virtual void run_caller(unsigned index, Control& ctl, CallerLog& log) = 0;
  /// Checks made after the window, on the regular path.
  virtual void verify_after(std::vector<CallerLog>& logs) { (void)logs; }
  virtual void teardown() {}
};

// kissdb_mixed: each caller runs 80/20 get/put on its own kissdb of 4,000
// 8-byte keys in 1024 buckets (4 chained pages), every get checked against
// the caller's shadow map.
class KissdbMixed final : public Workload {
 public:
  static constexpr std::size_t kKeys = 4'000;
  static constexpr unsigned kMaxChain = 4;

  explicit KissdbMixed(std::uint64_t seed) : seed_(seed) {}
  const char* spec() const override { return "zc"; }
  std::array<std::string, 2> kind_metrics() const override {
    return {"apps.kissdb.get_us_p50", "apps.kissdb.put_us_p50"};
  }

  void prepare(EnclaveLibc& libc) override {
    const app::KissDB::Options opts;
    for (unsigned c = 0; c < kCallers; ++c) {
      Db& db = dbs_[c];
      // Random distinct keys, at most kMaxChain per bucket: every seed gets
      // the same 4-page table shape, so the seed moves which keys are used
      // but not how deep the chains are (which would set the p99).
      Rng rng(stream_seed(seed_, 1, c));
      std::vector<unsigned> fill(opts.hash_table_size, 0);
      std::unordered_set<std::uint64_t> used;
      while (db.keys.size() < kKeys) {
        const std::uint64_t key = rng.next();
        unsigned& n = fill[app::KissDB::hash(&key, sizeof(key)) % opts.hash_table_size];
        if (n == kMaxChain || !used.insert(key).second) continue;
        ++n;
        db.keys.push_back(key);
        db.shadow.push_back(rng.next());
      }
      db.kdb = std::make_unique<app::KissDB>();
      const std::string path = "/perfbench/kissdb_" + std::to_string(c) + ".db";
      if (db.kdb->open(libc, path, opts) != app::KissDB::kOk) {
        throw std::runtime_error("kissdb open failed: " + path);
      }
      for (std::size_t i = 0; i < kKeys; ++i) {
        if (db.kdb->put(&db.keys[i], &db.shadow[i]) != app::KissDB::kOk) {
          throw std::runtime_error("kissdb preload put failed");
        }
      }
    }
  }

  void run_caller(unsigned index, Control& ctl, CallerLog& log) override {
    Db& db = dbs_[index];
    Rng rng(stream_seed(seed_, 2, index));
    closed_loop(ctl, log, [&] {
      OpResult r;
      const std::uint64_t pick = rng.next();
      const std::size_t k = static_cast<std::size_t>(pick % kKeys);
      if ((pick >> 32) % 100 < 80) {
        std::uint64_t value = 0;
        const int rc = db.kdb->get(&db.keys[k], &value);
        r.ok = rc == app::KissDB::kOk && value == db.shadow[k];
        if (!r.ok) note_error(log, "kissdb get mismatch");
      } else {
        r.kind = 1;
        const std::uint64_t value = rng.next();
        r.ok = db.kdb->put(&db.keys[k], &value) == app::KissDB::kOk;
        if (r.ok) {
          db.shadow[k] = value;
        } else {
          note_error(log, "kissdb put failed");
        }
      }
      return r;
    });
  }

  void teardown() override {
    for (Db& db : dbs_) db.kdb.reset();
  }

 private:
  struct Db {
    std::unique_ptr<app::KissDB> kdb;
    std::vector<std::uint64_t> keys;
    std::vector<std::uint64_t> shadow;
  };
  std::uint64_t seed_;
  std::array<Db, kCallers> dbs_;
};

// sector_io: each caller writes a pass of 16 encrypted 32 KB sectors, then
// reads them back, decrypts them and compares against the plaintext.
class SectorIo final : public Workload {
 public:
  static constexpr std::size_t kSectorBytes = 32 * 1024;
  static constexpr std::size_t kPassSectors = 16;
  static constexpr std::size_t kPlaintexts = 17;  // coprime with the pass

  explicit SectorIo(std::uint64_t seed) : seed_(seed) {}
  const char* spec() const override {
    return "zc_batched:workers=2;pool=slab;copy=single";
  }
  std::array<std::string, 2> kind_metrics() const override {
    return {"apps.sector.write_us_p50", "apps.sector.read_us_p50"};
  }

  void prepare(EnclaveLibc& libc) override {
    for (unsigned c = 0; c < kCallers; ++c) {
      Caller& cl = callers_[c];
      Rng rng(stream_seed(seed_, 4, c));
      std::uint8_t key[32];
      for (std::uint8_t& b : key) b = static_cast<std::uint8_t>(rng.next());
      cl.plain.resize(kPlaintexts * kSectorBytes);
      for (std::size_t i = 0; i < cl.plain.size(); i += 8) {
        const std::uint64_t v = rng.next();
        std::memcpy(&cl.plain[i], &v, 8);
      }
      cl.store = std::make_unique<app::SectorStore>(
          libc, "/perfbench/sectors_" + std::to_string(c) + ".img",
          kSectorBytes, key);
    }
  }

  void run_caller(unsigned index, Control& ctl, CallerLog& log) override {
    Caller& cl = callers_[index];
    app::SectorStore& store = *cl.store;
    std::vector<std::uint8_t> back(kSectorBytes);
    const CopyMode mode = mode_;
    std::uint64_t pass = 0;
    std::size_t step = 0;  // 0..2*kPassSectors-1 within the pass
    const auto plain = [&](std::size_t i) {
      return &cl.plain[((pass + i) % kPlaintexts) * kSectorBytes];
    };
    closed_loop(ctl, log, [&] {
      OpResult r;
      if (step == 0) {
        if (!store.open_for_write()) note_error(log, "sector open failed");
      } else if (step == kPassSectors) {
        store.close();
        if (!store.open_for_read()) note_error(log, "sector open failed");
      }
      if (step < kPassSectors) {
        r.ok = store.write_sector(step, plain(step), mode);
        if (!r.ok) note_error(log, "sector write failed");
      } else {
        r.kind = 1;
        const std::size_t i = step - kPassSectors;
        r.ok = store.read_sector(i, back.data(), mode) &&
               std::memcmp(back.data(), plain(i), kSectorBytes) == 0;
        if (!r.ok) note_error(log, "sector read-back mismatch");
      }
      if (++step == 2 * kPassSectors) {
        store.close();
        step = 0;
        ++pass;
      }
      return r;
    });
    store.close();
  }

  void attach(Enclave& enclave) override {
    mode_ = enclave.backend().copy_mode();
  }
  void teardown() override {
    for (Caller& c : callers_) c.store.reset();
  }

 private:
  struct Caller {
    std::vector<std::uint8_t> plain;
    std::unique_ptr<app::SectorStore> store;
  };
  std::uint64_t seed_;
  CopyMode mode_ = CopyMode::kDouble;
  std::array<Caller, kCallers> callers_;
};

// async_pipelined: each caller keeps 8 fwrite futures in flight against
// its own audit log.  The log is written in segments of kSegment records;
// each closed segment is read back from the untrusted side (outside the
// call plane under test) and every record submitted to it must be there
// exactly once.  Segments bound the memory a long run needs; the time a
// caller spends checking one is reported as a pause, outside the figures.
class AsyncPipelined final : public Workload {
 public:
  static constexpr unsigned kDepth = 8;
  static constexpr std::uint64_t kSegment = 1 << 16;
  struct Record {
    std::uint64_t seq = 0;
    std::uint64_t tag = 0;
  };

  explicit AsyncPipelined(std::uint64_t seed) : seed_(seed) {}
  const char* spec() const override { return "zc_async:workers=2;queue=16"; }

  void prepare(EnclaveLibc& libc) override {
    libc_ = &libc;
    for (unsigned c = 0; c < kCallers; ++c) {
      logs_[c].path = "/perfbench/audit_" + std::to_string(c) + ".log";
      open_segment(logs_[c]);
    }
  }

  void attach(Enclave& enclave) override {
    plane_ = workload::async_plane(enclave);
    if (plane_ == nullptr) throw std::runtime_error("backend has no async plane");
  }

  void run_caller(unsigned index, Control& ctl, CallerLog& log) override {
    Log& al = logs_[index];
    struct Slot {
      FwriteArgs args;
      Record rec;
      CallFuture fut;
      std::uint64_t t_submit = 0;
      std::uint64_t t_done = 0;  ///< when wait() returned (0 = not yet)
      void collect() {
        if (t_done != 0) return;
        fut.wait();
        t_done = wall_ns();
      }
    };
    std::array<Slot, kDepth> ring;
    std::uint64_t next_seq = 0;
    // Submits the next record into `s`; a segment switch is charged to `r`
    // as a pause.
    const auto submit = [&](Slot& s, OpResult* r) {
      if (next_seq == al.first + kSegment) {
        // Drain the pipeline (the loop still collects these futures in
        // order, with the times they completed), then start a new segment.
        for (Slot& other : ring) other.collect();
        const std::uint64_t w0 = wall_ns();
        const std::uint64_t c0 = thread_cpu_ns();
        close_and_check(index, al, next_seq, log);
        open_segment(al);
        if (r != nullptr) {
          r->pause_ns += wall_ns() - w0;
          r->pause_cpu_ns += thread_cpu_ns() - c0;
        }
      }
      s.rec = Record{next_seq, tag(index, next_seq)};
      ++next_seq;
      s.args = FwriteArgs{};
      s.args.handle = al.file.native_handle();
      s.args.size = sizeof(Record);
      CallDesc desc;
      desc.fn_id = libc_->ids().fwrite;
      desc.args = &s.args;
      desc.args_size = sizeof(s.args);
      desc.in_payload = &s.rec;
      desc.in_size = sizeof(Record);
      s.t_submit = wall_ns();
      s.t_done = 0;
      s.fut = plane_->submit(desc);
    };
    for (Slot& s : ring) submit(s, nullptr);
    unsigned head = 0;
    closed_loop(ctl, log, [&] {
      Slot& s = ring[head];
      head = (head + 1) % kDepth;
      s.collect();
      OpResult r;
      r.t_start_ns = s.t_submit;
      r.t_end_ns = s.t_done;
      r.ok = s.args.ret == sizeof(Record);
      if (!r.ok) note_error(log, "audit fwrite short");
      submit(s, &r);
      return r;
    });
    for (Slot& s : ring) s.fut.wait();
    al.submitted = next_seq;
  }

  void verify_after(std::vector<CallerLog>& logs) override {
    for (unsigned c = 0; c < kCallers; ++c) {
      Log& al = logs_[c];
      close_and_check(c, al, al.submitted, logs[c]);
      // Charge the losses to the measured window's delivered count.
      WindowLog& w = logs[c].w[kWindow];
      w.delivered -= std::min(al.lost, w.delivered);
    }
  }

  void teardown() override {
    for (Log& l : logs_) l.file = TFile{};
  }

 private:
  struct Log {
    std::string path;
    TFile file;
    std::uint64_t first = 0;      ///< first seq of the open segment
    std::uint64_t submitted = 0;  ///< records submitted over the whole run
    std::uint64_t lost = 0;       ///< records missing or corrupt
  };

  std::uint64_t tag(unsigned c, std::uint64_t seq) const {
    return splitmix64(stream_seed(seed_, 5, c) + seq);
  }

  void open_segment(Log& al) {
    al.file = libc_->fopen(al.path.c_str(), "wb");
    if (!al.file) throw std::runtime_error("audit log open failed");
  }

  /// Closes the open segment, which must hold records [first, end), and
  /// reads it back.
  void close_and_check(unsigned c, Log& al, std::uint64_t end, CallerLog& log) {
    al.file.close();
    SimFs& fs = SimFs::instance();
    std::vector<std::uint8_t> seen(end - al.first, 0);
    std::vector<Record> buf(4096);
    std::uint64_t bad = 0;
    const std::uint64_t h = fs.fopen(al.path, "rb");
    while (h != 0) {
      const std::size_t want = buf.size() * sizeof(Record);
      const std::size_t got = fs.fread(buf.data(), want, h);
      for (std::size_t i = 0; i < got / sizeof(Record); ++i) {
        const Record& r = buf[i];
        if (r.seq < al.first || r.seq >= end || r.tag != tag(c, r.seq) ||
            seen[r.seq - al.first]++ != 0) {
          ++bad;
        }
      }
      if (got < want) break;
    }
    if (h != 0) fs.fclose(h);
    const auto found =
        static_cast<std::uint64_t>(std::count(seen.begin(), seen.end(), 1));
    const std::uint64_t lost = (end - al.first - found) + bad;
    if (lost != 0) {
      note_error(log, "audit log lost or corrupted " + std::to_string(lost) +
                          " records");
    }
    al.lost += lost;
    al.first = end;
  }

  std::uint64_t seed_;
  EnclaveLibc* libc_ = nullptr;
  ZcAsyncBackend* plane_ = nullptr;
  std::array<Log, kCallers> logs_;
};

// ---------------------------------------------------------------------------
// Host record.

unsigned host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return std::thread::hardware_concurrency();
  }
  return static_cast<unsigned>(CPU_COUNT(&set));
}

struct StealTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  std::uint64_t busy = 0;  ///< user + nice + system + irq + softirq
};

StealTicks read_steal() {
  StealTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  if (!(in >> cpu) || cpu != "cpu") return t;
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && (in >> v); ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
    if (i != 3 && i != 4 && i != 7) t.busy += v;
  }
  return t;
}

// ---------------------------------------------------------------------------
// Measurement marks and metrics.

struct Mark {
  std::uint64_t wall = 0;
  std::uint64_t cpu = 0;
  std::uint64_t eexits = 0;
  BackendStatsSnapshot stats;
  StealTicks steal;
};

Mark take_mark(const Enclave& enclave) {
  Mark m;
  m.wall = wall_ns();
  m.cpu = process_cpu_ns();
  m.eexits = enclave.transitions().eexit_count();
  m.stats = enclave.backend().stats_snapshot();
  m.steal = read_steal();
  return m;
}

/// Nearest-rank percentile (partially reorders `v`).
template <typename T>
T percentile(std::vector<T>& v, double p) {
  if (v.empty()) return T{};
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(p / 100.0 * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

/// Latency percentile of ns samples, in us.
double percentile_us(std::vector<std::uint32_t>& v, double p) {
  return static_cast<double>(percentile(v, p)) * 1e-3;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double steal_share(const Mark& a, const Mark& b) {
  return ratio(static_cast<double>(b.steal.steal - a.steal.steal),
               static_cast<double>(b.steal.total - a.steal.total));
}

/// Share of the machine's CPU time that other processes used between the
/// two marks (busy time in /proc/stat minus this process's CPU time).
double foreign_share(const Mark& a, const Mark& b) {
  const double tick_ns = 1e9 / static_cast<double>(sysconf(_SC_CLK_TCK));
  const double busy = static_cast<double>(b.steal.busy - a.steal.busy) * tick_ns;
  const double ours = static_cast<double>(b.cpu - a.cpu);
  return ratio(std::max(0.0, busy - ours),
               static_cast<double>(b.steal.total - a.steal.total) * tick_ns);
}

BackendStatsSnapshot delta(const BackendStatsSnapshot& a,
                           const BackendStatsSnapshot& b) {
  BackendStatsSnapshot d;
  d.regular_calls = b.regular_calls - a.regular_calls;
  d.switchless_calls = b.switchless_calls - a.switchless_calls;
  d.fallback_calls = b.fallback_calls - a.fallback_calls;
  d.batch_flushes = b.batch_flushes - a.batch_flushes;
  d.caller_yields = b.caller_yields - a.caller_yields;
  d.caller_sleeps = b.caller_sleeps - a.caller_sleeps;
  d.wake_batches = b.wake_batches - a.wake_batches;
  d.copies_elided = b.copies_elided - a.copies_elided;
  d.slab_hits = b.slab_hits - a.slab_hits;
  d.slab_misses = b.slab_misses - a.slab_misses;
  d.slab_grows = b.slab_grows - a.slab_grows;
  return d;
}

/// What the traced trials add up, for the per-layer metrics.
struct LayerTotals {
  CallProfiler profiler;
  BackendStatsSnapshot d;  ///< window deltas
  std::uint64_t eexits = 0;
  std::uint64_t cpu_ns = 0;         ///< process CPU minus caller pauses
  std::uint64_t caller_cpu_ns = 0;  ///< caller threads minus their pauses
  std::uint64_t sampler_cpu_ns = 0;
  std::uint64_t ops = 0;
  std::uint64_t slab_grows = 0;   ///< since each backend was installed
  std::uint64_t samples = 0;      ///< active_workers() samples taken
  std::uint64_t worker_sum = 0;   ///< sum of the sampled values
  std::array<std::vector<std::uint32_t>, 2> kinds;  ///< latency per op kind
};

/// The measured windows of one kind of trial (untraced or traced), pooled.
struct Windows {
  std::vector<std::uint32_t> lat_ns;  ///< every op's latency
  /// Per caller: ops, and window time minus the caller's pauses.
  std::array<std::uint64_t, kCallers> ops{};
  std::array<std::uint64_t, kCallers> busy_ns{};
  std::uint64_t cpu_ns = 0;  ///< process CPU time minus caller pauses
  std::uint64_t attempted = 0;
  std::uint64_t delivered = 0;
  double seconds = 0;
  double steal = 0;    ///< whole-window shares, wall-weighted
  double foreign = 0;
};

/// Folds one trial's window (between marks `a` and `b`) into `out`.
void add_window(Windows& out, const std::vector<CallerLog>& logs,
                const Mark& a, const Mark& b) {
  const std::uint64_t wall = b.wall - a.wall;
  out.cpu_ns += b.cpu - a.cpu;
  for (unsigned c = 0; c < kCallers; ++c) {
    const WindowLog& w = logs[c].w[kWindow];
    for (const auto& v : w.lat_ns) out.lat_ns.insert(out.lat_ns.end(), v.begin(), v.end());
    out.ops[c] += w.attempted;
    out.busy_ns[c] += wall - std::min(wall, w.pause_ns);
    out.cpu_ns -= std::min(out.cpu_ns, w.pause_cpu_ns);
    out.attempted += w.attempted;
    out.delivered += w.delivered;
  }
  const double secs = static_cast<double>(wall) * 1e-9;
  out.steal += steal_share(a, b) * secs;
  out.foreign += foreign_share(a, b) * secs;
  out.seconds += secs;
}

/// End-to-end figures of a set of windows.
struct EndToEnd {
  std::size_t samples = 0;  ///< latency samples
  double throughput_ops_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  double cpu_us_per_op = 0;
  double delivered_frac = 0;
};

/// End-to-end figures of `win` (partially reorders its samples).  Every op
/// of every window counts: throughput is each caller's ops over its
/// unpaused window time, summed over callers; CPU per op is process CPU
/// time over ops; p50/p99 are percentiles of all the windows' samples.
EndToEnd end_to_end(Windows& win) {
  EndToEnd e;
  std::uint64_t ops = 0;
  for (unsigned c = 0; c < kCallers; ++c) {
    ops += win.ops[c];
    e.throughput_ops_s += ratio(static_cast<double>(win.ops[c]),
                                static_cast<double>(win.busy_ns[c]) * 1e-9);
  }
  e.cpu_us_per_op =
      ratio(static_cast<double>(win.cpu_ns) * 1e-3, static_cast<double>(ops));
  e.samples = win.lat_ns.size();
  e.p50_us = percentile_us(win.lat_ns, 50.0);
  e.p99_us = percentile_us(win.lat_ns, 99.0);
  e.delivered_frac =
      ratio(static_cast<double>(win.delivered), static_cast<double>(win.attempted));
  return e;
}

void print_windows(std::ostream& os, const char* what, const Windows& w,
                   const EndToEnd& e) {
  os << "# " << what << ": " << w.seconds << " s, steal share "
     << ratio(w.steal, w.seconds) << ", other processes' CPU share "
     << ratio(w.foreign, w.seconds) << ", " << e.samples
     << " latency samples (" << e.samples / 100 << " beyond the p99), "
     << w.attempted << " ops attempted\n";
}

// ---------------------------------------------------------------------------
// JSON output.

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string json() const {
    std::ostringstream os;
    os.precision(10);
    os << "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (i != 0) os << ", ";
      os << "\"" << entries_[i].name << "\": {\"value\": " << entries_[i].value
         << ", \"unit\": \"" << entries_[i].unit << "\"}";
    }
    os << "}";
    return os.str();
  }
  void print_table(std::ostream& os) const {
    for (const Entry& e : entries_) {
      os << "#   " << e.name << " = " << e.value << " " << e.unit << "\n";
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

void add_end_to_end(Metrics& m, const EndToEnd& e, double setup_s) {
  m.add("throughput_ops_s", e.throughput_ops_s, "1/s");
  m.add("p50_us", e.p50_us, "us");
  m.add("p99_us", e.p99_us, "us");
  m.add("cpu_us_per_op", e.cpu_us_per_op, "us");
  m.add("delivered_frac", e.delivered_frac, "frac");
  m.add("setup_s", setup_s, "s");
}

/// Per-layer metrics of the traced trials.  Layers a workload does not
/// exercise read 0.
void add_layer_metrics(Metrics& m, const std::array<std::string, 2>& named,
                       const StdOcallIds& ids, LayerTotals& t) {
  const double ops = static_cast<double>(t.ops);
  for (const char* name : {"apps.kissdb.get_us_p50", "apps.kissdb.put_us_p50",
                           "apps.sector.write_us_p50", "apps.sector.read_us_p50"}) {
    double value = 0;
    for (int k = 0; k < 2; ++k) {
      if (named[k] == name) value = percentile_us(t.kinds[k], 50.0);
    }
    m.add(name, value, "us");
  }

  const BackendStatsSnapshot& d = t.d;
  m.add("sgx.ocalls_per_op", ratio(static_cast<double>(d.total_calls()), ops),
        "count");
  m.add("sgx.transitions_per_op", ratio(static_cast<double>(t.eexits), ops),
        "count");
  const std::pair<const char*, std::uint32_t> fns[] = {
      {"sgx.fseeko_us", ids.fseeko}, {"sgx.fread_us", ids.fread},
      {"sgx.fwrite_us", ids.fwrite}};
  for (const auto& [name, id] : fns) {
    m.add(name, cycles_to_ns(static_cast<std::uint64_t>(
                    t.profiler.stats(id).mean_cycles())) * 1e-3,
          "us");
  }

  const double sl = static_cast<double>(d.switchless_calls);
  const double fb = static_cast<double>(d.fallback_calls);
  m.add("core.switchless_frac", ratio(sl, sl + fb), "frac");
  m.add("core.fallbacks_per_op", ratio(fb, ops), "count");
  m.add("core.active_workers_mean",
        ratio(static_cast<double>(t.worker_sum), static_cast<double>(t.samples)),
        "count");
  const double proc_us = static_cast<double>(t.cpu_ns) * 1e-3;
  const double caller_us = static_cast<double>(t.caller_cpu_ns) * 1e-3;
  const double sampler_us = static_cast<double>(t.sampler_cpu_ns) * 1e-3;
  m.add("core.worker_cpu_us_per_op",
        ratio(std::max(0.0, proc_us - caller_us - sampler_us), ops), "us");
  m.add("core.caller_cpu_us_per_op", ratio(caller_us, ops), "us");
  m.add("core.batch_fill", ratio(sl, static_cast<double>(d.batch_flushes)),
        "count");
  m.add("core.caller_yields_per_op",
        ratio(static_cast<double>(d.caller_yields), ops), "count");
  m.add("core.caller_sleeps_per_op",
        ratio(static_cast<double>(d.caller_sleeps), ops), "count");
  m.add("core.wake_batches_per_op",
        ratio(static_cast<double>(d.wake_batches), ops), "count");
  m.add("core.copies_elided_per_op",
        ratio(static_cast<double>(d.copies_elided), ops), "count");
  m.add("common.slab_hit_frac",
        ratio(static_cast<double>(d.slab_hits),
              static_cast<double>(d.slab_hits + d.slab_misses)),
        "frac");
  m.add("common.slab_grows", static_cast<double>(t.slab_grows), "count");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "callplane_bench: " << why << "\n"
            << "usage: callplane_bench --workload "
               "kissdb_mixed|sector_io|async_pipelined "
               "--seed N --seconds S --trace 0|1\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value) != 0;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& args) {
  if (args.workload == "kissdb_mixed") return std::make_unique<KissdbMixed>(args.seed);
  if (args.workload == "sector_io") return std::make_unique<SectorIo>(args.seed);
  if (args.workload == "async_pipelined") {
    return std::make_unique<AsyncPipelined>(args.seed);
  }
  usage("unknown workload '" + args.workload + "'");
}

/// One set-up: enclave, data loaded on the regular path, backend started.
struct Rig {
  std::unique_ptr<Enclave> enclave;
  std::unique_ptr<EnclaveLibc> libc;
  std::unique_ptr<Workload> workload;

  ~Rig() {
    if (workload) workload->teardown();
    workload.reset();
    if (enclave) enclave->set_backend(std::make_unique<RegularBackend>(*enclave));
    libc.reset();
    enclave.reset();
    SimFs::instance().clear();
  }
};

std::unique_ptr<Rig> set_up(const Args& args) {
  auto rig = std::make_unique<Rig>();
  SimConfig cfg;
  cfg.logical_cpus = 4;  // zc probes 0..2 workers
  rig->enclave = Enclave::create(cfg);
  rig->libc = std::make_unique<EnclaveLibc>(*rig->enclave, IoMode::kSimulated);
  rig->workload = make_workload(args);
  rig->workload->prepare(*rig->libc);
  install_backend_spec(*rig->enclave, rig->workload->spec());
  rig->workload->attach(*rig->enclave);
  return rig;
}

std::uint64_t to_ns(double s) { return static_cast<std::uint64_t>(s * 1e9); }

/// Sets up one rig and appends the time it took to `times`.
std::unique_ptr<Rig> timed_set_up(const Args& args,
                                  std::vector<double>& times) {
  const std::uint64_t t0 = wall_ns();
  auto rig = set_up(args);
  times.push_back(static_cast<double>(wall_ns() - t0) * 1e-9);
  return rig;
}

/// Runs one trial on a fresh rig: callers start, warm up, then one
/// measured window.  A traced trial attaches the profiler
/// and the active_workers() sampler for its window and adds its counters
/// to `layers`.  Returns the first failed check ("" when all passed).
std::string run_trial(Rig& rig, Control& ctl, bool traced, Windows& out,
                      LayerTotals& layers) {
  Enclave& enclave = *rig.enclave;
  Workload& wl = *rig.workload;
  std::vector<CallerLog> logs(kCallers);
  ctl.phase.store(kIdle, std::memory_order_release);
  std::vector<std::thread> callers;
  for (unsigned c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      try {
        wl.run_caller(c, ctl, logs[c]);
      } catch (const std::exception& e) {
        note_error(logs[c], std::string("caller threw: ") + e.what());
      }
    });
  }

  // Runs phase `p` and returns the marks at its start and end.
  const auto run_phase = [&](int p) {
    const Mark a = take_mark(enclave);
    ctl.phase.store(p, std::memory_order_release);
    const std::uint64_t end = a.wall + ctl.dur_ns[p];
    for (std::uint64_t now = wall_ns(); now < end; now = wall_ns()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(end - now));
    }
    return std::pair<Mark, Mark>{a, take_mark(enclave)};
  };

  run_phase(kWarmup);
  std::atomic<bool> sampling{traced};
  std::thread sampler;
  if (traced) {
    enclave.set_profiler(&layers.profiler);
    sampler = std::thread([&] {
      const std::uint64_t cpu0 = thread_cpu_ns();
      while (sampling.load(std::memory_order_relaxed)) {
        layers.worker_sum += enclave.backend().active_workers();
        ++layers.samples;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      layers.sampler_cpu_ns += thread_cpu_ns() - cpu0;
    });
  }
  const auto [a, b] = run_phase(kWindow);
  if (traced) {
    sampling.store(false);
    sampler.join();
    enclave.set_profiler(nullptr);
  }
  ctl.phase.store(kStop, std::memory_order_release);
  for (std::thread& t : callers) t.join();

  // Post-window checks run on the regular path.
  const std::uint64_t slab_grows = enclave.backend().stats_snapshot().slab_grows;
  install_backend_spec(enclave, "no_sl");
  wl.verify_after(logs);
  add_window(out, logs, a, b);

  if (traced) {
    layers.d.merge(delta(a.stats, b.stats));
    layers.eexits += b.eexits - a.eexits;
    layers.cpu_ns += b.cpu - a.cpu;
    layers.slab_grows += slab_grows;
    for (const CallerLog& l : logs) {
      const WindowLog& w = l.w[kWindow];
      layers.ops += w.attempted;
      layers.cpu_ns -= std::min(layers.cpu_ns, w.pause_cpu_ns);
      layers.caller_cpu_ns += w.cpu_ns - std::min(w.cpu_ns, w.pause_cpu_ns);
      for (int k = 0; k < 2; ++k) {
        layers.kinds[k].insert(layers.kinds[k].end(), w.lat_ns[k].begin(),
                               w.lat_ns[k].end());
      }
    }
  }
  for (const CallerLog& l : logs) {
    if (!l.error.empty()) return l.error;
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) try {
  const Args args = parse_args(argc, argv);
  const unsigned nproc = host_cpus();
  if (kCallers + kMaxWorkers > nproc) {
    std::cerr << "callplane_bench: " << kCallers << " callers + " << kMaxWorkers
              << " workers need " << kCallers + kMaxWorkers
              << " CPUs, but only " << nproc << " are available\n";
    return 3;
  }

  Control ctl;
  ctl.dur_ns[kWarmup] = to_ns(kWarmupSeconds);
  ctl.dur_ns[kWindow] = to_ns(args.seconds / kTrials);

  // Extra set-ups, so that setup_s (the median over every set-up of the
  // run) rests on at least kMinSetups of them; cheap ones repeat until
  // kSetupBudgetS is spent.
  std::vector<double> setup_times;
  double extra_s = 0;
  while (setup_times.size() + kTrials < kMinSetups ||
         (setup_times.size() < kMaxSetups && extra_s < kSetupBudgetS)) {
    timed_set_up(args, setup_times);
    extra_s += setup_times.back();
  }

  // The window is split over kTrials trials, each on a fresh rig; with
  // --trace 1 the second half of the trials is traced.
  Windows plain, traced;
  LayerTotals layers;
  std::string error, spec;
  std::array<std::string, 2> kind_metrics;
  StdOcallIds ids;
  for (unsigned t = 0; t < kTrials; ++t) {
    const bool is_traced = args.trace && t >= kTrials / 2;
    std::unique_ptr<Rig> rig = timed_set_up(args, setup_times);
    spec = rig->workload->spec();
    ids = rig->libc->ids();
    kind_metrics = rig->workload->kind_metrics();
    const std::string e =
        run_trial(*rig, ctl, is_traced, is_traced ? traced : plain, layers);
    if (error.empty()) error = e;
  }
  const double setup_s = percentile(setup_times, 50.0);

  const EndToEnd a = end_to_end(plain);
  std::cout << "# workload=" << args.workload << " spec=" << spec
            << " seed=" << args.seed << " seconds=" << args.seconds
            << " trace=" << (args.trace ? 1 : 0) << " nproc=" << nproc
            << " callers=" << kCallers << " max_workers=" << kMaxWorkers
            << " trials=" << kTrials << " setups=" << setup_times.size() << "\n";
  if (!error.empty()) std::cout << "# check failed: " << error << "\n";

  Metrics m;
  std::uint64_t attempted = plain.attempted;
  std::uint64_t delivered = plain.delivered;
  if (!args.trace) {
    print_windows(std::cout, "window", plain, a);
    add_end_to_end(m, a, setup_s);
  } else {
    const EndToEnd b = end_to_end(traced);
    attempted += traced.attempted;
    delivered += traced.delivered;
    print_windows(std::cout, "untraced trials", plain, a);
    print_windows(std::cout, "traced trials", traced, b);
    std::cout << "# " << layers.samples << " active_workers samples\n";
    add_layer_metrics(m, kind_metrics, ids, layers);
    // Tracing overhead: traced trials minus untraced trials.
    m.add("trace.overhead_throughput_ops_s",
          b.throughput_ops_s - a.throughput_ops_s, "1/s");
    m.add("trace.overhead_p50_us", b.p50_us - a.p50_us, "us");
    m.add("trace.overhead_p99_us", b.p99_us - a.p99_us, "us");
    m.add("trace.overhead_cpu_us_per_op", b.cpu_us_per_op - a.cpu_us_per_op,
          "us");
  }
  m.print_table(std::cout);

  const std::uint64_t failed = attempted - delivered;
  const bool correct = error.empty() && failed == 0 && attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << m.json() << "}" << std::endl;
  return correct ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "callplane_bench: " << e.what() << "\n";
  return 1;
}
