#include "core/backend_registry.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <limits>

#include "common/completion_gate.hpp"
#include "core/recording_backend.hpp"
#include "core/zc_async.hpp"
#include "core/zc_backend.hpp"
#include "hotcalls/hotcalls.hpp"
#include "intel_sl/intel_backend.hpp"
#include "sgx/enclave.hpp"

namespace zc {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

bool valid_ident(std::string_view s) {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' ||
           c == '-';
  });
}

bool all_digits(std::string_view s) {
  return !s.empty() && std::all_of(s.begin(), s.end(), [](char c) {
    return c >= '0' && c <= '9';
  });
}

[[noreturn]] void bad_value(std::string_view name, std::string_view value,
                            std::string_view want) {
  throw BackendSpecError("option '" + std::string(name) + "': bad value '" +
                         std::string(value) + "' (expected " +
                         std::string(want) + ")");
}

std::uint64_t parse_u64(std::string_view name, std::string_view value) {
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    bad_value(name, value, "a non-negative integer");
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (const auto& p : parts) {
    if (!out.empty()) out += sep;
    out += p;
  }
  return out;
}

// First ';' or ',' of `s` at parenthesis depth 0 (npos when none) — how a
// nested `inner=(zc_batched:batch=8;flush_us=50)` value carries the
// separators of a whole spec.  Throws on unbalanced parentheses.
std::size_t find_separator(std::string_view s, std::string_view whole) {
  int depth = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '(') {
      ++depth;
    } else if (c == ')') {
      if (depth == 0) {
        throw BackendSpecError("spec '" + std::string(whole) +
                               "': unbalanced ')'");
      }
      --depth;
    } else if ((c == ';' || c == ',') && depth == 0) {
      return i;
    }
  }
  if (depth != 0) {
    throw BackendSpecError("spec '" + std::string(whole) +
                           "': unbalanced '(' (missing ')')");
  }
  return std::string_view::npos;
}

// Strips one level of parentheses off a value that starts with '(' — the
// quoting mechanism for values containing separators.  The parentheses
// must span the whole value; the payload must be non-empty.
std::string_view unwrap_parens(std::string_view value, std::string_view name,
                               std::string_view whole) {
  int depth = 0;
  std::size_t close = std::string_view::npos;
  for (std::size_t i = 0; i < value.size(); ++i) {
    if (value[i] == '(') {
      ++depth;
    } else if (value[i] == ')') {
      if (--depth == 0) {
        close = i;
        break;
      }
    }
  }
  if (close == std::string_view::npos) {
    throw BackendSpecError("spec '" + std::string(whole) +
                           "': unbalanced '(' in option '" +
                           std::string(name) + "'");
  }
  if (close != value.size() - 1) {
    throw BackendSpecError("spec '" + std::string(whole) + "': option '" +
                           std::string(name) +
                           "' has text after the closing ')'");
  }
  const std::string_view inner = trim(value.substr(1, close - 1));
  if (inner.empty()) {
    throw BackendSpecError("spec '" + std::string(whole) + "': option '" +
                           std::string(name) +
                           "' has an empty parenthesised value");
  }
  return inner;
}

}  // namespace

// --- BackendSpec -----------------------------------------------------------

BackendSpec BackendSpec::parse(std::string_view text) {
  BackendSpec spec;
  const std::string_view whole = trim(text);
  if (whole.empty()) throw BackendSpecError("empty backend spec");

  const std::size_t colon = whole.find(':');
  const std::string_view key = trim(whole.substr(0, colon));
  if (!valid_ident(key)) {
    throw BackendSpecError("bad backend key '" + std::string(key) +
                           "' in spec '" + std::string(whole) + "'");
  }
  spec.key = std::string(key);
  if (colon == std::string_view::npos) return spec;

  std::string_view rest = whole.substr(colon + 1);
  if (trim(rest).empty()) {
    throw BackendSpecError("spec '" + std::string(whole) +
                           "': expected options after ':'");
  }
  char prev_sep = ':';
  while (!rest.empty()) {
    const std::size_t sep = find_separator(rest, whole);
    const std::string_view segment = trim(rest.substr(0, sep));
    const char next_sep = sep == std::string_view::npos ? '\0' : rest[sep];
    rest = sep == std::string_view::npos ? std::string_view{}
                                         : rest.substr(sep + 1);
    if (segment.empty()) {
      throw BackendSpecError("spec '" + std::string(whole) +
                             "': empty option segment");
    }
    // The name/value split, like the separator scan, ignores '=' inside
    // parens — a parenthesised bare continuation may carry a whole spec.
    std::size_t eq = std::string_view::npos;
    for (std::size_t i = 0, depth = 0; i < segment.size(); ++i) {
      if (segment[i] == '(') {
        ++depth;
      } else if (segment[i] == ')') {
        --depth;
      } else if (segment[i] == '=' && depth == 0) {
        eq = i;
        break;
      }
    }
    if (eq == std::string_view::npos) {
      // Bare value: extends the previous option's value list, which is how
      // `sl=read,write` carries a list through the ',' separator.  Only a
      // ','-joined segment continues a list; after ';' a bare value is a
      // typo'd option, not a continuation.
      if (spec.options.empty() || prev_sep != ',') {
        throw BackendSpecError(
            "spec '" + std::string(whole) + "': bare value '" +
            std::string(segment) +
            "' (expected name=value; only ',' continues a value list)");
      }
      // List continuations unwrap parens like named values do, so
      // to_string()'s re-wrapping round-trips every value uniformly.
      std::string_view continuation = segment;
      if (continuation.front() == '(') {
        continuation =
            unwrap_parens(continuation, spec.options.back().name, whole);
      }
      spec.options.back().values.emplace_back(continuation);
      prev_sep = next_sep;
      continue;
    }
    prev_sep = next_sep;
    const std::string_view name = trim(segment.substr(0, eq));
    std::string_view value = trim(segment.substr(eq + 1));
    if (!valid_ident(name)) {
      throw BackendSpecError("spec '" + std::string(whole) +
                             "': bad option name '" + std::string(name) + "'");
    }
    if (value.empty()) {
      throw BackendSpecError("spec '" + std::string(whole) + "': option '" +
                             std::string(name) + "' has an empty value");
    }
    if (value.front() == '(') {
      // Parenthesised value: the payload may itself be a whole spec (the
      // `inner=` composition mechanism) with separators and nested parens.
      value = unwrap_parens(value, name, whole);
    }
    if (spec.find(name) != nullptr) {
      throw BackendSpecError("spec '" + std::string(whole) +
                             "': duplicate option '" + std::string(name) +
                             "'");
    }
    spec.options.push_back(
        Option{std::string(name), {std::string(value)}});
  }
  return spec;
}

std::string BackendSpec::to_string() const {
  // Values carrying spec syntax (a nested inner= spec) are re-wrapped in
  // parentheses so parse(to_string()) round-trips.
  const auto quote = [](const std::string& v) {
    return v.find_first_of(":;,=()") == std::string::npos ? v
                                                          : "(" + v + ")";
  };
  std::string out = key;
  for (std::size_t i = 0; i < options.size(); ++i) {
    out += i == 0 ? ':' : ';';
    out += options[i].name;
    out += '=';
    for (std::size_t v = 0; v < options[i].values.size(); ++v) {
      if (v > 0) out += ',';
      out += quote(options[i].values[v]);
    }
  }
  return out;
}

const BackendSpec::Option* BackendSpec::find(
    std::string_view name) const noexcept {
  for (const auto& opt : options) {
    if (opt.name == name) return &opt;
  }
  return nullptr;
}

namespace {

const std::string& single_value(const BackendSpec::Option& opt) {
  if (opt.values.size() != 1) {
    throw BackendSpecError("option '" + opt.name +
                           "' expects a single value, got a list of " +
                           std::to_string(opt.values.size()));
  }
  return opt.values.front();
}

}  // namespace

std::string BackendSpec::get_string(std::string_view name,
                                    std::string fallback) const {
  const Option* opt = find(name);
  return opt == nullptr ? fallback : single_value(*opt);
}

std::uint64_t BackendSpec::get_u64(std::string_view name,
                                   std::uint64_t fallback) const {
  const Option* opt = find(name);
  if (opt == nullptr) return fallback;
  return parse_u64(name, single_value(*opt));
}

unsigned BackendSpec::get_unsigned(std::string_view name,
                                   unsigned fallback) const {
  const Option* opt = find(name);
  if (opt == nullptr) return fallback;
  const std::uint64_t v = parse_u64(name, single_value(*opt));
  if (v > std::numeric_limits<unsigned>::max()) {
    bad_value(name, single_value(*opt), "an unsigned 32-bit integer");
  }
  return static_cast<unsigned>(v);
}

double BackendSpec::get_double(std::string_view name, double fallback) const {
  const Option* opt = find(name);
  if (opt == nullptr) return fallback;
  const std::string& value = single_value(*opt);
  double out = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    bad_value(name, value, "a floating-point number");
  }
  return out;
}

bool BackendSpec::get_bool(std::string_view name, bool fallback) const {
  const Option* opt = find(name);
  if (opt == nullptr) return fallback;
  const std::string& value = single_value(*opt);
  if (value == "on" || value == "true" || value == "yes" || value == "1") {
    return true;
  }
  if (value == "off" || value == "false" || value == "no" || value == "0") {
    return false;
  }
  bad_value(name, value, "on/off");
}

std::vector<std::string> BackendSpec::get_list(std::string_view name) const {
  const Option* opt = find(name);
  return opt == nullptr ? std::vector<std::string>{} : opt->values;
}

// --- Built-in builders -----------------------------------------------------

namespace {

CallDirection parse_direction(const BackendSpec& spec) {
  const std::string v = spec.get_string("direction", "ocall");
  if (v == "ocall") return CallDirection::kOcall;
  if (v == "ecall") return CallDirection::kEcall;
  bad_value("direction", v, "ocall/ecall");
}

// Shared `wait=` parsing (the CompletionGate policy of the ZC family).
GateWaitPolicy parse_wait(const BackendSpec& spec, GateWaitPolicy fallback) {
  const std::string v = spec.get_string("wait", "");
  if (v.empty()) return fallback;
  GateWaitPolicy policy;
  if (!gate_policy_from_string(v, policy)) {
    bad_value("wait", v, "spin/yield/futex/condvar");
  }
  return policy;
}

// Shared `pool=` parsing: which allocator backs the untrusted frames of
// the ZC family's switchless paths.
FramePoolKind parse_pool(const BackendSpec& spec, FramePoolKind fallback) {
  const std::string v = spec.get_string("pool", "");
  if (v.empty()) return fallback;
  if (v == "bump") return FramePoolKind::kBump;
  if (v == "slab") return FramePoolKind::kSlab;
  bad_value("pool", v, "bump/slab");
}

// Shared `copy=` parsing: the data-plane copy discipline the backend
// advertises via CallBackend::copy_mode().
CopyMode parse_copy(const BackendSpec& spec, CopyMode fallback) {
  const std::string v = spec.get_string("copy", "");
  if (v.empty()) return fallback;
  if (v == "double") return CopyMode::kDouble;
  if (v == "single") return CopyMode::kSingle;
  bad_value("copy", v, "double/single");
}

std::unique_ptr<CallBackend> build_no_sl(Enclave& enclave,
                                         const BackendSpec& spec,
                                         CpuUsageMeter* /*meter*/) {
  if (parse_direction(spec) == CallDirection::kEcall) {
    return std::make_unique<RegularEcallBackend>(enclave);
  }
  return std::make_unique<RegularBackend>(enclave);
}

std::unique_ptr<CallBackend> build_zc(Enclave& enclave,
                                      const BackendSpec& spec,
                                      CpuUsageMeter* meter) {
  ZcConfig cfg;
  cfg.meter = meter;
  cfg.direction = parse_direction(spec);
  const std::uint64_t quantum_us = spec.get_u64(
      "quantum_us", static_cast<std::uint64_t>(cfg.quantum.count()));
  if (quantum_us == 0) {
    throw BackendSpecError("zc: quantum_us must be > 0");
  }
  cfg.quantum = std::chrono::microseconds(quantum_us);
  cfg.mu = spec.get_double("mu", cfg.mu);
  if (cfg.mu <= 0.0 || cfg.mu > 1.0) {
    throw BackendSpecError("zc: mu must be in (0, 1]");
  }
  cfg.max_workers = spec.get_unsigned("max_workers", cfg.max_workers);
  cfg.worker_pool_bytes = spec.get_u64("pool_bytes", cfg.worker_pool_bytes);
  if (cfg.worker_pool_bytes == 0) {
    throw BackendSpecError("zc: pool_bytes must be > 0");
  }
  cfg.scheduler_enabled = spec.get_bool("scheduler", cfg.scheduler_enabled);
  // Caller-side wait policy, uniform across the ZC family: bounded spin
  // budget before yielding between completion polls (0 = yield
  // immediately; a large budget restores the paper's pure spin).
  cfg.spin = std::chrono::microseconds(
      spec.get_u64("spin_us", static_cast<std::uint64_t>(cfg.spin.count())));
  // What the caller does once the spin budget expires: the historical
  // yield loop, a futex/condvar sleep, or hotcalls-style pure spinning.
  cfg.wait = parse_wait(spec, cfg.wait);
  cfg.pool = parse_pool(spec, cfg.pool);
  cfg.copy = parse_copy(spec, cfg.copy);
  if (spec.has("workers")) {
    const unsigned w = spec.get_unsigned("workers", 0);
    cfg.with_initial_workers(w);
    // Honour explicit counts beyond the default N/2 probe range.
    if (cfg.max_workers == 0 &&
        w > cfg.resolved_max_workers(enclave.config().logical_cpus)) {
      cfg.max_workers = w;
    }
  }
  return make_zc_backend(enclave, std::move(cfg));
}

// The slotted plane's options shared by both of its keys (value errors
// name the key).  Key-specific options are parsed between this and
// make_slotted().
ZcAsyncConfig slotted_config(const BackendSpec& spec, CpuUsageMeter* meter) {
  ZcAsyncConfig cfg;
  cfg.meter = meter;
  cfg.direction = parse_direction(spec);
  cfg.workers = spec.get_unsigned("workers", cfg.workers);
  if (cfg.workers == 0) {
    throw BackendSpecError(spec.key + ": workers must be > 0");
  }
  // The configless scheduler runs `workers` as its maximum; off keeps
  // them all active.
  cfg.scheduler_enabled = spec.get_bool("scheduler", cfg.scheduler_enabled);
  return cfg;
}

std::unique_ptr<CallBackend> make_slotted(Enclave& enclave,
                                          const BackendSpec& spec,
                                          ZcAsyncConfig cfg) {
  cfg.slot_pool_bytes = spec.get_u64("pool_bytes", cfg.slot_pool_bytes);
  if (cfg.slot_pool_bytes == 0) {
    throw BackendSpecError(spec.key + ": pool_bytes must be > 0");
  }
  cfg.pool = parse_pool(spec, cfg.pool);
  cfg.copy = parse_copy(spec, cfg.copy);
  return make_zc_async_backend(enclave, std::move(cfg), spec.key);
}

// zc_batched: one home range of `batch` slots per worker; callers wait
// (spin, then yield by default) for the range's batch to flush.
std::unique_ptr<CallBackend> build_zc_batched(Enclave& enclave,
                                              const BackendSpec& spec,
                                              CpuUsageMeter* meter) {
  ZcAsyncConfig cfg = slotted_config(spec, meter);
  cfg.batch = spec.get_unsigned("batch", 8);
  if (cfg.batch == 0) {
    throw BackendSpecError("zc_batched: batch must be > 0");
  }
  cfg.queue = cfg.workers * cfg.batch;
  const std::uint64_t flush_us = spec.get_u64(
      "flush_us", static_cast<std::uint64_t>(cfg.flush.count()));
  if (spec.has("flush_us")) {
    if (cfg.batch == 1) {
      throw BackendSpecError(
          "zc_batched: flush_us conflicts with batch=1 (every publish "
          "flushes immediately; the timer can never fire)");
    }
    if (flush_us == 0) {
      throw BackendSpecError(
          "zc_batched: flush_us must be > 0 (use batch=1 for unbatched "
          "behaviour instead of a zero timer)");
    }
  }
  cfg.flush = std::chrono::microseconds(flush_us);
  // Caller-side wait policy: bounded spin budget before yielding between
  // polls.  spin_us=0 is valid and means yield-immediately.
  cfg.spin = std::chrono::microseconds(spec.get_u64("spin_us", 50));
  cfg.wait = parse_wait(spec, GateWaitPolicy::kYield);
  return make_slotted(enclave, spec, std::move(cfg));
}

// zc_async: a `queue`-slot table whose every publish opens the flush gate;
// waiters sleep on the slot's gate after a 5 µs collect grace.
std::unique_ptr<CallBackend> build_zc_async(Enclave& enclave,
                                            const BackendSpec& spec,
                                            CpuUsageMeter* meter) {
  ZcAsyncConfig cfg = slotted_config(spec, meter);
  cfg.queue = spec.get_unsigned("queue", cfg.queue);
  if (cfg.queue == 0) {
    throw BackendSpecError(
        "zc_async: queue must be > 0 (the completion table needs at least "
        "one slot)");
  }
  cfg.wait = parse_wait(spec, cfg.wait);
  if (!gate_can_sleep(cfg.wait)) {
    throw BackendSpecError(
        "zc_async: wait must be futex or condvar — the async plane never "
        "spins (that is its point)");
  }
  return make_slotted(enclave, spec, std::move(cfg));
}

std::unique_ptr<CallBackend> build_intel(Enclave& enclave,
                                         const BackendSpec& spec,
                                         CpuUsageMeter* meter) {
  intel::IntelSlConfig cfg;
  cfg.meter = meter;
  cfg.direction = parse_direction(spec);
  cfg.num_workers = spec.get_unsigned("workers", cfg.num_workers);
  const std::uint64_t rbf = spec.get_u64("rbf", cfg.retries_before_fallback);
  const std::uint64_t rbs = spec.get_u64("rbs", cfg.retries_before_sleep);
  if (rbf > std::numeric_limits<std::uint32_t>::max() ||
      rbs > std::numeric_limits<std::uint32_t>::max()) {
    throw BackendSpecError("intel: rbf/rbs must fit in 32 bits");
  }
  cfg.retries_before_fallback = static_cast<std::uint32_t>(rbf);
  cfg.retries_before_sleep = static_cast<std::uint32_t>(rbs);
  cfg.task_pool_slots = spec.get_unsigned("pool_slots", cfg.task_pool_slots);
  if (cfg.task_pool_slots == 0) {
    throw BackendSpecError("intel: pool_slots must be > 0");
  }
  cfg.slot_frame_bytes = spec.get_u64("frame_bytes", cfg.slot_frame_bytes);
  if (cfg.slot_frame_bytes == 0) {
    throw BackendSpecError("intel: frame_bytes must be > 0");
  }
  // The static switchless set: ocall names, numeric ids, or `all`.  Name
  // resolution happens here, against this enclave's table — which is why
  // registration must precede backend creation (as with edger8r tables).
  // With direction=ecall the set selects trusted functions instead.
  const OcallTable& table = cfg.direction == CallDirection::kOcall
                                ? enclave.ocalls()
                                : enclave.ecalls();
  for (const std::string& fn : spec.get_list("sl")) {
    if (fn == "all") {
      for (std::uint32_t id = 0; id < table.size(); ++id) {
        cfg.switchless_fns.insert(id);
      }
      continue;
    }
    if (all_digits(fn)) {
      const std::uint64_t id = parse_u64("sl", fn);
      if (id >= table.size()) {
        throw BackendSpecError("intel: sl id " + fn +
                               " is not a registered ocall (table has " +
                               std::to_string(table.size()) + " entries)");
      }
      cfg.switchless_fns.insert(static_cast<std::uint32_t>(id));
      continue;
    }
    const auto id = table.find(fn);
    if (!id.has_value()) {
      throw BackendSpecError("intel: sl name '" + fn +
                             "' is not a registered ocall");
    }
    cfg.switchless_fns.insert(*id);
  }
  return intel::make_intel_backend(enclave, cfg);
}

// The trace-recording tap: wraps the inner= backend (default no_sl) in a
// RecordingBackend so any run's boundary traffic can be captured for the
// replay plane (workload/replay.hpp).  The nested spec inherits the outer
// direction and must not spell its own.
std::unique_ptr<CallBackend> build_record(Enclave& enclave,
                                          const BackendSpec& spec,
                                          CpuUsageMeter* meter) {
  const CallDirection direction = parse_direction(spec);
  BackendSpec inner = BackendSpec::parse(spec.get_string("inner", "no_sl"));
  if (inner.has("direction")) {
    throw BackendSpecError(
        "record: direction belongs to the outer spec; the inner backend "
        "inherits it");
  }
  if (direction == CallDirection::kEcall) {
    inner.options.push_back({"direction", {"ecall"}});
    try {
      BackendRegistry::instance().validate(inner.to_string());
    } catch (const BackendSpecError&) {
      throw BackendSpecError(
          "record: direction=ecall needs an inner family with a "
          "trusted-worker plane; '" + inner.key +
          "' does not take direction");
    }
  }
  RecordingBackend::Options options;
  options.file = spec.get_string("file", "");
  options.jsonl = spec.get_string("jsonl", "");
  auto wrapped = BackendRegistry::instance().create(enclave, inner, meter);
  return make_recording_backend(enclave, std::move(wrapped), direction,
                                std::move(options));
}

std::unique_ptr<CallBackend> build_hotcalls(Enclave& enclave,
                                            const BackendSpec& spec,
                                            CpuUsageMeter* meter) {
  hotcalls::HotCallsConfig cfg;
  cfg.meter = meter;
  cfg.num_workers = spec.get_unsigned("workers", cfg.num_workers);
  if (cfg.num_workers == 0) {
    throw BackendSpecError("hotcalls: workers must be > 0");
  }
  cfg.slot_frame_bytes = spec.get_u64("frame_bytes", cfg.slot_frame_bytes);
  if (cfg.slot_frame_bytes == 0) {
    throw BackendSpecError("hotcalls: frame_bytes must be > 0");
  }
  return hotcalls::make_hotcalls_backend(enclave, cfg);
}

}  // namespace

// --- BackendRegistry -------------------------------------------------------

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry* registry = [] {
    auto* r = new BackendRegistry();
    r->register_backend(
        {"no_sl", "every ocall pays a full enclave transition", {"direction"},
         build_no_sl});
    r->register_backend(
        {"intel",
         "Intel SDK switchless: static call set, fixed workers, rbf/rbs",
         {"sl", "workers", "rbf", "rbs", "pool_slots", "frame_bytes",
          "direction"},
         build_intel});
    r->register_backend(
        {"hotcalls", "always-hot responder threads (Weisse et al., ISCA'17)",
         {"workers", "frame_bytes"}, build_hotcalls});
    r->register_backend(
        {"zc", "ZC-Switchless: configless adaptive workers",
         {"workers", "max_workers", "quantum_us", "mu", "pool_bytes",
          "scheduler", "spin_us", "wait", "pool", "copy", "direction"},
         build_zc});
    r->register_backend(
        {"zc_batched",
         "the slotted plane with per-worker ranges of batch=K slots, "
         "flushed when full, after a flush_us=T window, or eagerly for a "
         "lone caller",
         {"workers", "scheduler", "batch", "flush_us", "spin_us", "wait",
          "pool_bytes", "pool", "copy", "direction"},
         build_zc_batched});
    r->register_backend(
        {"zc_async",
         "the slotted plane with every publish run at once: submit()/"
         "wait() futures, futex/condvar completion, no caller spin",
         {"workers", "scheduler", "queue", "pool_bytes", "pool", "copy",
          "wait", "direction"},
         build_zc_async});
    r->register_backend(
        {"record",
         "trace-recording tap over any inner= backend (default no_sl); "
         "dumps the capture to file=/jsonl= on stop",
         {"inner", "file", "jsonl", "direction"}, build_record});
    return r;
  }();
  return *registry;
}

void BackendRegistry::register_backend(Entry entry) {
  if (!valid_ident(entry.key)) {
    throw BackendSpecError("bad backend key '" + entry.key + "'");
  }
  if (contains(entry.key)) {
    throw BackendSpecError("backend '" + entry.key + "' already registered");
  }
  if (!entry.builder) {
    throw BackendSpecError("backend '" + entry.key + "' has no builder");
  }
  entries_.push_back(std::move(entry));
}

bool BackendRegistry::contains(std::string_view key) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.key == key; });
}

std::vector<std::string> BackendRegistry::keys() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.key);
  return out;
}

const BackendRegistry::Entry& BackendRegistry::entry_for(
    const BackendSpec& spec) const {
  for (const auto& entry : entries_) {
    if (entry.key == spec.key) {
      for (const auto& opt : spec.options) {
        if (std::find(entry.option_names.begin(), entry.option_names.end(),
                      opt.name) == entry.option_names.end()) {
          throw BackendSpecError(
              "backend '" + spec.key + "' has no option '" + opt.name +
              "' (accepted: " +
              (entry.option_names.empty() ? "none"
                                          : join(entry.option_names, ',')) +
              ")");
        }
        if (opt.name == "inner") {
          // A nested spec is validated like a top-level one (grammar, key,
          // option names, its own inner=), so bad compositions fail at
          // validate() time, not first at create().
          if (opt.values.size() != 1) {
            throw BackendSpecError(
                "option 'inner' expects a single parenthesised spec");
          }
          entry_for(BackendSpec::parse(opt.values.front()));
        }
      }
      return entry;
    }
  }
  throw BackendSpecError("unknown backend '" + spec.key +
                         "' (known: " + join(keys(), ',') + ")");
}

std::unique_ptr<CallBackend> BackendRegistry::create(
    Enclave& enclave, std::string_view spec_text, CpuUsageMeter* meter) const {
  return create(enclave, BackendSpec::parse(spec_text), meter);
}

std::unique_ptr<CallBackend> BackendRegistry::create(Enclave& enclave,
                                                     const BackendSpec& spec,
                                                     CpuUsageMeter* meter) const {
  return entry_for(spec).builder(enclave, spec, meter);
}

void BackendRegistry::validate(std::string_view spec_text) const {
  entry_for(BackendSpec::parse(spec_text));
}

std::string BackendRegistry::help() const {
  std::string out =
      "backend spec: key[:opt=value{,value}[;opt=value...]]\n"
      "  e.g. \"no_sl\", \"zc:workers=4,quantum_us=10000\",\n"
      "       \"intel:sl=read,write;workers=2;rbf=20000\",\n"
      "       \"hotcalls:workers=2\",\n"
      "       \"zc_batched:workers=2;batch=8;flush_us=100;spin_us=0\",\n"
      "       \"zc_async:workers=2;queue=16\",\n"
      "       \"record:file=run.trace;inner=(zc_async:workers=2)\"\n"
      "  direction=ecall installs the backend on the trusted-function\n"
      "  (ecall) plane where supported.  inner=(...) nests a whole spec:\n"
      "  the record tap wraps the backend it names.\n"
      "  wait= picks the blocked-caller policy (spin/yield/futex/condvar)\n"
      "  once the spin_us budget expires.  pool=slab swaps the bump frame\n"
      "  pools for a shared size-classed slab; copy=single advertises the\n"
      "  in-place payload path (see docs/backend-specs.md).\n";
  for (const auto& entry : entries_) {
    out += "  " + entry.key + " — " + entry.summary + "\n";
    out += "      options: " +
           (entry.option_names.empty() ? "none"
                                       : join(entry.option_names, ',')) +
           "\n";
  }
  return out;
}

CallDirection spec_direction(const BackendSpec& spec) {
  return parse_direction(spec);
}

void install_backend_spec(Enclave& enclave, std::string_view spec_text,
                          CpuUsageMeter* meter) {
  const BackendSpec spec = BackendSpec::parse(spec_text);
  auto backend = BackendRegistry::instance().create(enclave, spec, meter);
  // direction=ecall backends serve the trusted-function plane; everything
  // else replaces the ocall backend.  create() has already rejected the
  // option on backends that cannot serve ecalls.
  if (spec_direction(spec) == CallDirection::kEcall) {
    enclave.set_ecall_backend(std::move(backend));
  } else {
    enclave.set_backend(std::move(backend));
  }
}

}  // namespace zc
