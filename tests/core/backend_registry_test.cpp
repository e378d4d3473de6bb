#include "core/backend_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "core/recording_backend.hpp"
#include "core/zc_async.hpp"
#include "sgx/enclave.hpp"
#include "workload/synthetic.hpp"

namespace zc {
namespace {

// --- Spec parsing ----------------------------------------------------------

TEST(BackendSpecTest, KeyOnly) {
  const auto spec = BackendSpec::parse("no_sl");
  EXPECT_EQ(spec.key, "no_sl");
  EXPECT_TRUE(spec.options.empty());
  EXPECT_EQ(spec.to_string(), "no_sl");
}

TEST(BackendSpecTest, ScalarOptions) {
  const auto spec = BackendSpec::parse("zc:workers=4,quantum_us=10000");
  EXPECT_EQ(spec.key, "zc");
  ASSERT_EQ(spec.options.size(), 2u);
  EXPECT_EQ(spec.get_unsigned("workers", 0), 4u);
  EXPECT_EQ(spec.get_u64("quantum_us", 0), 10'000u);
  EXPECT_EQ(spec.get_u64("absent", 7), 7u);
}

TEST(BackendSpecTest, BareValuesExtendThePreviousOptionList) {
  const auto spec =
      BackendSpec::parse("intel:sl=read,write;workers=2;rbf=20000");
  EXPECT_EQ(spec.key, "intel");
  ASSERT_EQ(spec.options.size(), 3u);
  EXPECT_EQ(spec.get_list("sl"),
            (std::vector<std::string>{"read", "write"}));
  EXPECT_EQ(spec.get_unsigned("workers", 0), 2u);
  EXPECT_EQ(spec.get_u64("rbf", 0), 20'000u);
}

TEST(BackendSpecTest, ToStringRoundTrips) {
  for (const char* text :
       {"no_sl", "zc:workers=4,quantum_us=10000",
        "intel:sl=read,write;workers=2;rbf=20000", "hotcalls:workers=2",
        "zc:scheduler=off,mu=0.01",
        "record:inner=(zc_batched:workers=1;batch=4)",
        "record:file=run.trace;inner=(record:jsonl=run.jsonl;inner=(zc))"}) {
    const auto spec = BackendSpec::parse(text);
    const std::string canon = spec.to_string();
    const auto again = BackendSpec::parse(canon);
    EXPECT_EQ(again.to_string(), canon) << text;
    EXPECT_EQ(again.key, spec.key) << text;
    ASSERT_EQ(again.options.size(), spec.options.size()) << text;
    for (std::size_t i = 0; i < spec.options.size(); ++i) {
      EXPECT_EQ(again.options[i].name, spec.options[i].name) << text;
      EXPECT_EQ(again.options[i].values, spec.options[i].values) << text;
    }
  }
}

TEST(BackendSpecTest, WhitespaceIsTrimmed) {
  const auto spec = BackendSpec::parse("  zc : workers = 4 , quantum_us=1 ");
  EXPECT_EQ(spec.key, "zc");
  EXPECT_EQ(spec.get_unsigned("workers", 0), 4u);
  EXPECT_EQ(spec.to_string(), "zc:workers=4;quantum_us=1");
}

TEST(BackendSpecTest, GrammarViolationsThrow) {
  EXPECT_THROW(BackendSpec::parse(""), BackendSpecError);
  EXPECT_THROW(BackendSpec::parse("  "), BackendSpecError);
  EXPECT_THROW(BackendSpec::parse("Bad Key"), BackendSpecError);
  EXPECT_THROW(BackendSpec::parse("zc:"), BackendSpecError);
  EXPECT_THROW(BackendSpec::parse("zc:,workers=1"), BackendSpecError);
  EXPECT_THROW(BackendSpec::parse("zc:workers"), BackendSpecError);  // bare
  EXPECT_THROW(BackendSpec::parse("zc:=4"), BackendSpecError);
  EXPECT_THROW(BackendSpec::parse("zc:workers="), BackendSpecError);
  EXPECT_THROW(BackendSpec::parse("zc:workers=1;workers=2"),
               BackendSpecError);
  // Only ',' continues a value list: a bare value after ';' is a typo'd
  // option, not a silent extension of the previous list.
  EXPECT_THROW(BackendSpec::parse("zc:workers=2;4"), BackendSpecError);
  EXPECT_THROW(BackendSpec::parse("intel:sl=f;g"), BackendSpecError);
}

TEST(BackendSpecTest, TypedAccessorsRejectBadValues) {
  const auto spec = BackendSpec::parse("zc:workers=abc,mu=x,flag=maybe");
  EXPECT_THROW(spec.get_unsigned("workers", 0), BackendSpecError);
  EXPECT_THROW(spec.get_double("mu", 0.5), BackendSpecError);
  EXPECT_THROW(spec.get_bool("flag", true), BackendSpecError);
  const auto list = BackendSpec::parse("intel:sl=a,b");
  EXPECT_THROW(list.get_string("sl", ""), BackendSpecError);  // not scalar
}

TEST(BackendSpecTest, ParenthesisedValuesCarryNestedSpecs) {
  // A '('-quoted value keeps its separators: the inner= composition
  // mechanism at the grammar level (the registry interprets it later).
  const auto spec = BackendSpec::parse(
      "record:file=run.trace;inner=(zc_batched:batch=8;flush_us=50)");
  EXPECT_EQ(spec.get_string("file", ""), "run.trace");
  EXPECT_EQ(spec.get_string("inner", ""), "zc_batched:batch=8;flush_us=50");
  // Nested parens stay balanced inside the payload.
  const auto nested = BackendSpec::parse(
      "record:inner=(record:jsonl=run.jsonl;inner=(zc:workers=1))");
  EXPECT_EQ(nested.get_string("inner", ""),
            "record:jsonl=run.jsonl;inner=(zc:workers=1)");
  // Whitespace around the payload is trimmed like any other value.
  EXPECT_EQ(BackendSpec::parse("record:inner=( zc )").get_string("inner", ""),
            "zc");
  // A ','-joined list continuation unwraps parens exactly like a named
  // value, so to_string()'s re-wrapping round-trips list values too.
  const auto list = BackendSpec::parse("intel:sl=(read),(write;x=1)");
  EXPECT_EQ(list.get_list("sl"),
            (std::vector<std::string>{"read", "write;x=1"}));
  EXPECT_EQ(BackendSpec::parse(list.to_string()).get_list("sl"),
            list.get_list("sl"));
}

TEST(BackendSpecTest, UnbalancedParensAreRejected) {
  EXPECT_THROW(BackendSpec::parse("record:inner=(zc"), BackendSpecError);
  EXPECT_THROW(BackendSpec::parse("record:inner=zc)"), BackendSpecError);
  EXPECT_THROW(BackendSpec::parse("record:inner=((zc)"), BackendSpecError);
  EXPECT_THROW(BackendSpec::parse("record:inner=(zc)x"), BackendSpecError);
  EXPECT_THROW(BackendSpec::parse("record:inner=()"), BackendSpecError);
  EXPECT_THROW(BackendSpec::parse("record:inner=(zc));file=x"),
               BackendSpecError);
}

TEST(BackendSpecTest, BoolSpellings) {
  EXPECT_TRUE(BackendSpec::parse("zc:scheduler=on").get_bool("scheduler",
                                                             false));
  EXPECT_TRUE(BackendSpec::parse("zc:scheduler=1").get_bool("scheduler",
                                                            false));
  EXPECT_FALSE(BackendSpec::parse("zc:scheduler=off").get_bool("scheduler",
                                                               true));
  EXPECT_FALSE(BackendSpec::parse("zc:scheduler=no").get_bool("scheduler",
                                                              true));
}

// --- Registry creation -----------------------------------------------------

class BackendRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimConfig cfg;
    cfg.tes_cycles = 200;
    enclave_ = Enclave::create(cfg);
    ids_ = workload::register_synthetic_ocalls(enclave_->ocalls());
  }

  std::unique_ptr<Enclave> enclave_;
  workload::SyntheticOcalls ids_;
};

TEST_F(BackendRegistryTest, KnowsThePaperBackends) {
  auto& registry = BackendRegistry::instance();
  for (const char* key :
       {"no_sl", "intel", "hotcalls", "zc", "zc_batched", "zc_async"}) {
    EXPECT_TRUE(registry.contains(key)) << key;
  }
  EXPECT_FALSE(registry.contains("warp_drive"));
  EXPECT_NE(registry.help().find("zc"), std::string::npos);
}

// The built-in keys, in registration order.
const char* const kBuiltinKeys[] = {"no_sl",      "intel",    "hotcalls", "zc",
                                    "zc_batched", "zc_async", "record"};

// The option names help() lists for `key` ("" when it lists none).
std::string help_options(const std::string& help, const std::string& key) {
  const std::size_t entry = help.find("  " + key + " — ");
  if (entry == std::string::npos) return "";
  const std::string tag = "options: ";
  const std::size_t at = help.find(tag, entry) + tag.size();
  const std::string list = help.substr(at, help.find('\n', at) - at);
  return list == "none" ? "" : list;
}

TEST_F(BackendRegistryTest, BuiltinOptionCountIsTracked) {
  // The option count is a design-size metric tracked next to latency:
  // adding a knob must update this number on purpose.
  const auto& registry = BackendRegistry::instance();
  const std::vector<std::string> keys = registry.keys();
  ASSERT_GE(keys.size(), std::size(kBuiltinKeys));
  std::size_t options = 0;
  for (std::size_t i = 0; i < std::size(kBuiltinKeys); ++i) {
    EXPECT_EQ(keys[i], kBuiltinKeys[i]);
    const std::string list = help_options(registry.help(), kBuiltinKeys[i]);
    if (!list.empty()) {
      options += 1 + static_cast<std::size_t>(
                         std::count(list.begin(), list.end(), ','));
    }
  }
  EXPECT_EQ(options, 43u);
}

TEST_F(BackendRegistryTest, CreatesEachBuiltin) {
  auto& registry = BackendRegistry::instance();
  const std::pair<const char*, const char*> expect[] = {
      {"no_sl", "no_sl"},
      {"intel:sl=all;workers=2", "intel_sl"},
      {"hotcalls:workers=2", "hotcalls"},
      {"zc", "zc"},
      {"zc_batched:workers=1;batch=2", "zc_batched"},
      {"zc_async:workers=1;queue=4", "zc_async"},
  };
  for (const auto& [spec, name] : expect) {
    auto backend = registry.create(*enclave_, spec);
    ASSERT_NE(backend, nullptr) << spec;
    EXPECT_STREQ(backend->name(), name) << spec;
  }
}

TEST_F(BackendRegistryTest, SpecOptionsReachTheBackend) {
  install_backend_spec(*enclave_, "zc:scheduler=off,workers=3");
  EXPECT_EQ(enclave_->backend().active_workers(), 3u);

  // rbf effectively unbounded: on few-core hosts the default budget
  // expires before a worker is scheduled, and this asserts the path.
  install_backend_spec(*enclave_, "intel:sl=f;workers=2;rbf=2000000000");
  workload::FArgs fargs;
  EXPECT_EQ(enclave_->ocall(ids_.f_a, fargs), CallPath::kSwitchless);
  // g is outside the static set: regular path.
  workload::GArgs gargs;
  gargs.pauses = 0;
  EXPECT_EQ(enclave_->ocall(ids_.g_a, gargs), CallPath::kRegular);
  enclave_->set_backend(nullptr);
}

TEST_F(BackendRegistryTest, IntelSlAcceptsNamesIdsAndAll) {
  auto& registry = BackendRegistry::instance();
  // By name and by numeric id.
  const std::string rbf = ";rbf=2000000000";  // wait out slow hosts
  const std::string specs[] = {"intel:sl=g" + rbf,
                               "intel:sl=" + std::to_string(ids_.g_a) + rbf};
  for (const std::string& spec : specs) {
    install_backend_spec(*enclave_, spec);
    workload::GArgs gargs;
    gargs.pauses = 0;
    EXPECT_EQ(enclave_->ocall(ids_.g_a, gargs), CallPath::kSwitchless)
        << spec;
    enclave_->set_backend(nullptr);
  }
  // Unknown name / out-of-range id.
  EXPECT_THROW(registry.create(*enclave_, "intel:sl=nope"),
               BackendSpecError);
  EXPECT_THROW(registry.create(*enclave_, "intel:sl=999"), BackendSpecError);
}

TEST_F(BackendRegistryTest, UnknownKeysAndOptionsAreRejected) {
  auto& registry = BackendRegistry::instance();
  EXPECT_THROW(registry.create(*enclave_, "warp_drive"), BackendSpecError);
  EXPECT_THROW(registry.create(*enclave_, "zc:rbf=7"), BackendSpecError);
  EXPECT_THROW(registry.create(*enclave_, "no_sl:workers=2"),
               BackendSpecError);
  EXPECT_THROW(registry.validate("zc:bogus=1"), BackendSpecError);
  registry.validate("zc:workers=2");  // value errors surface at create()
}

TEST_F(BackendRegistryTest, BadOptionValuesAreRejectedAtCreate) {
  auto& registry = BackendRegistry::instance();
  EXPECT_THROW(registry.create(*enclave_, "zc:quantum_us=0"),
               BackendSpecError);
  EXPECT_THROW(registry.create(*enclave_, "zc:mu=1.5"), BackendSpecError);
  EXPECT_THROW(registry.create(*enclave_, "zc:mu=abc"), BackendSpecError);
  EXPECT_THROW(registry.create(*enclave_, "zc:pool_bytes=0"),
               BackendSpecError);
  EXPECT_THROW(registry.create(*enclave_, "hotcalls:workers=0"),
               BackendSpecError);
  EXPECT_THROW(registry.create(*enclave_, "intel:pool_slots=0"),
               BackendSpecError);
  EXPECT_THROW(registry.create(*enclave_, "intel:rbf=99999999999"),
               BackendSpecError);
}

TEST_F(BackendRegistryTest, BatchedValueErrorsAreTyped) {
  auto& registry = BackendRegistry::instance();
  // Batched: batch/flush validation, incl. conflicting combinations.
  EXPECT_THROW(registry.create(*enclave_, "zc_batched:batch=0"),
               BackendSpecError);
  EXPECT_THROW(registry.create(*enclave_, "zc_batched:workers=0"),
               BackendSpecError);
  EXPECT_THROW(registry.create(*enclave_, "zc_batched:pool_bytes=0"),
               BackendSpecError);
  EXPECT_THROW(registry.create(*enclave_, "zc_batched:batch=1;flush_us=10"),
               BackendSpecError);
  EXPECT_THROW(registry.create(*enclave_, "zc_batched:batch=4;flush_us=0"),
               BackendSpecError);
  // Defaults and explicit non-conflicting combinations are accepted.
  EXPECT_NE(registry.create(*enclave_, "zc_batched:batch=1"), nullptr);
  EXPECT_NE(registry.create(*enclave_, "zc_batched:batch=4;flush_us=50"),
            nullptr);
}

TEST_F(BackendRegistryTest, TheShardedRouterIsGone) {
  // There is no router key, and no key takes routing options.
  auto& registry = BackendRegistry::instance();
  EXPECT_FALSE(registry.contains("zc_sharded"));
  EXPECT_THROW(install_backend_spec(*enclave_, "zc_sharded"),
               BackendSpecError);
  EXPECT_THROW(registry.validate("zc_sharded:shards=2;workers=1"),
               BackendSpecError);
  for (const char* spec :
       {"zc:shards=2", "zc:steal=on", "zc:policy=least_loaded",
        "zc_batched:policy=least_loaded", "zc_async:steal=on",
        "record:inner=(zc_sharded:shards=2)"}) {
    EXPECT_THROW(registry.validate(spec), BackendSpecError) << spec;
    EXPECT_THROW(registry.create(*enclave_, spec), BackendSpecError) << spec;
  }
}

TEST_F(BackendRegistryTest, BatchedSpinBudgetIsValidated) {
  auto& registry = BackendRegistry::instance();
  // Malformed spin budgets: empty value (grammar), non-numeric value.
  EXPECT_THROW(registry.create(*enclave_, "zc_batched:spin_us="),
               BackendSpecError);
  EXPECT_THROW(registry.create(*enclave_, "zc_batched:spin_us=abc"),
               BackendSpecError);
  EXPECT_THROW(registry.create(*enclave_, "zc_batched:spin_us=-1"),
               BackendSpecError);
  // The spin budget is uniform across the ZC family's spinning callers
  // (zc takes it too); zc_async never spins by design, so there it stays
  // an unknown option.
  EXPECT_NE(registry.create(*enclave_, "zc:spin_us=10"), nullptr);
  EXPECT_THROW(registry.create(*enclave_, "zc_async:spin_us=10"),
               BackendSpecError);
  // spin_us=0 is valid and means yield-immediately.
  auto yielder = registry.create(*enclave_, "zc_batched:spin_us=0");
  ASSERT_NE(yielder, nullptr);
  EXPECT_EQ(dynamic_cast<ZcAsyncBackend*>(yielder.get())
                ->config().spin.count(), 0);
}

TEST_F(BackendRegistryTest, RingAndCoalesceAreUnknownOptions) {
  // The batched and async planes have one submit plane (the CAS-claimed
  // slot table with per-slot completion gates), so the old ring=/coalesce=
  // switches are unknown options like any other, nested ones included.
  // So are the batched flush policy with its controller period.
  auto& registry = BackendRegistry::instance();
  for (const char* spec :
       {"zc_batched:ring=on", "zc_batched:coalesce=on;wait=futex",
        "zc_async:coalesce=on", "zc_async:ring=off",
        "record:inner=(zc_batched:ring=on)", "zc_batched:flush=feedback",
        "zc_batched:flush=timer", "zc_batched:quantum_us=2000",
        "record:inner=(zc_batched:batch=8;flush=feedback)"}) {
    EXPECT_THROW(registry.validate(spec), BackendSpecError) << spec;
    EXPECT_THROW(registry.create(*enclave_, spec), BackendSpecError) << spec;
  }
}

TEST_F(BackendRegistryTest, NestedInnerSpecsAreValidated) {
  auto& registry = BackendRegistry::instance();
  // Happy paths: any registered family composes as the inner backend.
  EXPECT_NE(registry.create(*enclave_, "record:inner=(zc)"), nullptr);
  EXPECT_NE(
      registry.create(*enclave_, "record:inner=(zc_batched:workers=1;batch=4)"),
      nullptr);
  EXPECT_NE(
      registry.create(*enclave_, "record:inner=(zc_async:workers=1;queue=8)"),
      nullptr);
  EXPECT_NE(registry.create(*enclave_, "record:inner=(record:inner=(zc))"),
            nullptr);
  // validate() checks the nested spec without an enclave, recursively.
  registry.validate("record:inner=(zc_batched:batch=8;flush_us=50)");
  for (const char* spec :
       {"record:inner=(warp_drive)", "record:inner=(zc:rbf=7)",
        "record:inner=(record:inner=(zc:rbf=7))",
        "record:inner=(record:inner=(record:inner=(warp_drive)))"}) {
    EXPECT_THROW(registry.validate(spec), BackendSpecError) << spec;
    EXPECT_THROW(registry.create(*enclave_, spec), BackendSpecError) << spec;
  }
  // inner= takes exactly one spec.
  EXPECT_THROW(registry.validate("record:inner=(zc),(no_sl)"),
               BackendSpecError);
  // inner= belongs to record only.
  EXPECT_THROW(registry.validate("zc:inner=(no_sl)"), BackendSpecError);
  EXPECT_THROW(registry.validate("zc_batched:inner=(zc)"), BackendSpecError);
  EXPECT_THROW(registry.validate("zc_async:inner=(zc)"), BackendSpecError);
}

TEST_F(BackendRegistryTest, NestedSpecsInheritTheOuterDirection) {
  // record:direction=ecall taps the trusted-function plane: the inner
  // backend is built with the inherited direction and the composed spec
  // installs as the enclave's ecall backend.
  enclave_->ecalls().register_fn("tnop", [](MarshalledCall&) {});
  install_backend_spec(*enclave_,
                       "record:direction=ecall;inner=(zc_async:workers=1;"
                       "queue=4;scheduler=off)");
  EXPECT_STREQ(enclave_->backend().name(), "no_sl");
  EXPECT_STREQ(enclave_->ecall_backend().name(),
               "record[zc_async-ecall]-ecall");
  auto& tap = dynamic_cast<RecordingBackend&>(enclave_->ecall_backend());
  EXPECT_STREQ(tap.inner().name(), "zc_async-ecall");
  enclave_->set_ecall_backend(nullptr);
}

TEST_F(BackendRegistryTest, RecordFamilyWrapsAnyInnerSpec) {
  auto& registry = BackendRegistry::instance();
  // The trace-recording tap composes over any family, both directions.
  EXPECT_NE(registry.create(*enclave_, "record"), nullptr);  // inner=no_sl
  EXPECT_NE(registry.create(*enclave_, "record:inner=(zc:workers=2)"),
            nullptr);
  EXPECT_NE(registry.create(
                *enclave_,
                "record:inner=(zc_batched:workers=1;batch=4;pool=slab)"),
            nullptr);
  EXPECT_NE(registry.create(*enclave_, "record:direction=ecall"), nullptr);
  // The composed name surfaces the wrapped backend.
  const auto tap = registry.create(*enclave_, "record:inner=(zc:workers=1)");
  EXPECT_EQ(std::string(tap->name()), "record[zc]");

  // Unknown inner families and options fail like any nested spec.
  EXPECT_THROW(registry.validate("record:inner=(warp_drive)"),
               BackendSpecError);
  EXPECT_THROW(registry.validate("record:inner=(zc:rbf=7)"),
               BackendSpecError);
  // The inner spec inherits the outer direction and must not spell its
  // own.
  try {
    registry.create(*enclave_, "record:inner=(zc:direction=ecall)");
    FAIL() << "inner direction accepted";
  } catch (const BackendSpecError& e) {
    EXPECT_NE(std::string(e.what()).find("outer spec"), std::string::npos)
        << e.what();
  }
  // Recording the ecall plane needs an inner family that can serve it;
  // hotcalls cannot, and the error says so in the user's terms.
  try {
    registry.create(*enclave_,
                    "record:direction=ecall;inner=(hotcalls:workers=1)");
    FAIL() << "ecall recording over hotcalls accepted";
  } catch (const BackendSpecError& e) {
    EXPECT_NE(std::string(e.what()).find("trusted-worker plane"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(BackendRegistryTest, GateWaitPoliciesAreValidated) {
  auto& registry = BackendRegistry::instance();
  // The ZC family takes wait= (the CompletionGate policy after spin_us).
  EXPECT_NE(registry.create(*enclave_, "zc:wait=futex"), nullptr);
  EXPECT_NE(registry.create(*enclave_, "zc:wait=condvar;spin_us=0"), nullptr);
  EXPECT_NE(registry.create(*enclave_, "zc:wait=spin"), nullptr);
  EXPECT_NE(registry.create(*enclave_, "zc:wait=yield"), nullptr);
  EXPECT_NE(registry.create(*enclave_, "zc_batched:wait=futex;spin_us=0"),
            nullptr);
  EXPECT_THROW(registry.create(*enclave_, "zc:wait=banana"),
               BackendSpecError);
  // The async plane never spins: only the sleeping policies make sense.
  EXPECT_NE(registry.create(*enclave_, "zc_async:wait=futex"), nullptr);
  EXPECT_NE(registry.create(*enclave_, "zc_async:wait=condvar"), nullptr);
  EXPECT_THROW(registry.create(*enclave_, "zc_async:wait=yield"),
               BackendSpecError);
  EXPECT_THROW(registry.create(*enclave_, "zc_async:wait=spin"),
               BackendSpecError);
  // wait= is a ZC-family option; the fixed-policy baselines reject it.
  EXPECT_THROW(registry.create(*enclave_, "hotcalls:wait=futex"),
               BackendSpecError);
  EXPECT_THROW(registry.create(*enclave_, "no_sl:wait=futex"),
               BackendSpecError);
}

TEST_F(BackendRegistryTest, PoolAndCopyOptionsAreValidated) {
  auto& registry = BackendRegistry::instance();
  // The whole ZC family takes the data-plane knobs.
  EXPECT_NE(registry.create(*enclave_, "zc:pool=slab"), nullptr);
  EXPECT_NE(registry.create(*enclave_, "zc:pool=bump"), nullptr);
  EXPECT_NE(registry.create(*enclave_, "zc:pool=slab;copy=single"), nullptr);
  EXPECT_NE(registry.create(*enclave_, "zc_batched:pool=slab;copy=single"),
            nullptr);
  EXPECT_NE(registry.create(*enclave_, "zc_async:pool=slab;copy=single"),
            nullptr);
  EXPECT_NE(registry.create(*enclave_,
                            "record:inner=(zc_batched:workers=1;batch=4;"
                            "pool=slab;copy=single)"),
            nullptr);

  // The chosen discipline surfaces through CallBackend::copy_mode().
  EXPECT_EQ(registry.create(*enclave_, "zc:workers=1")->copy_mode(),
            CopyMode::kDouble);
  EXPECT_EQ(registry.create(*enclave_, "zc:copy=single")->copy_mode(),
            CopyMode::kSingle);
  EXPECT_EQ(registry.create(*enclave_, "zc_async:copy=single")->copy_mode(),
            CopyMode::kSingle);

  // Bad values name the accepted set.
  for (const char* bad : {"zc:pool=banana", "zc_batched:pool=0",
                          "zc_async:pool=arena"}) {
    try {
      registry.create(*enclave_, bad);
      FAIL() << bad << " accepted";
    } catch (const BackendSpecError& e) {
      EXPECT_NE(std::string(e.what()).find("bump"), std::string::npos)
          << e.what();
    }
  }
  for (const char* bad : {"zc:copy=banana", "zc_batched:copy=2",
                          "zc_async:copy=zero"}) {
    try {
      registry.create(*enclave_, bad);
      FAIL() << bad << " accepted";
    } catch (const BackendSpecError& e) {
      EXPECT_NE(std::string(e.what()).find("double"), std::string::npos)
          << e.what();
    }
  }

  // The fixed-policy baselines take neither knob.
  EXPECT_THROW(registry.create(*enclave_, "no_sl:pool=slab"),
               BackendSpecError);
  EXPECT_THROW(registry.create(*enclave_, "hotcalls:copy=single"),
               BackendSpecError);
  EXPECT_THROW(registry.create(*enclave_, "intel:sl=all;pool=slab"),
               BackendSpecError);
}

TEST_F(BackendRegistryTest, AsyncValueErrorsAreTyped) {
  auto& registry = BackendRegistry::instance();
  EXPECT_THROW(registry.create(*enclave_, "zc_async:workers=0"),
               BackendSpecError);
  EXPECT_THROW(registry.create(*enclave_, "zc_async:queue=0"),
               BackendSpecError);
  EXPECT_THROW(registry.create(*enclave_, "zc_async:pool_bytes=0"),
               BackendSpecError);
  EXPECT_THROW(registry.create(*enclave_, "zc_async:workers=abc"),
               BackendSpecError);
  EXPECT_THROW(registry.create(*enclave_, "zc_async:direction=sideways"),
               BackendSpecError);
  // Unknown options (incl. other backends' knobs) are rejected by name.
  EXPECT_THROW(registry.create(*enclave_, "zc_async:batch=4"),
               BackendSpecError);
  EXPECT_THROW(registry.create(*enclave_, "zc_async:warp=1"),
               BackendSpecError);
  // Valid shapes, both directions.
  EXPECT_NE(registry.create(*enclave_, "zc_async"), nullptr);
  EXPECT_NE(registry.create(*enclave_, "zc_async:workers=2;queue=16"),
            nullptr);
  EXPECT_NE(
      registry.create(*enclave_, "zc_async:direction=ecall;workers=1;queue=4"),
      nullptr);
}

TEST_F(BackendRegistryTest, SlottedPlaneKeysKeepTheirOptionLists) {
  // zc_batched and zc_async build one plane (ZcAsyncBackend), but each key
  // keeps its own option list, defaults, names and value errors.
  auto& registry = BackendRegistry::instance();
  const std::pair<const char*, std::vector<const char*>> keys[] = {
      {"zc_batched",
       {"workers=1", "scheduler=off", "batch=2", "flush_us=50", "spin_us=5",
        "wait=futex", "pool_bytes=4096", "pool=slab", "copy=single",
        "direction=ocall"}},
      {"zc_async",
       {"workers=1", "scheduler=off", "queue=4", "pool_bytes=4096",
        "pool=slab", "copy=single", "wait=futex", "direction=ocall"}},
  };
  for (const auto& [key, options] : keys) {
    std::string all = std::string(key) + ":";
    std::string names;
    for (const char* option : options) {
      const std::string spec = std::string(key) + ":" + option;
      EXPECT_NO_THROW(registry.validate(spec)) << spec;
      EXPECT_NE(registry.create(*enclave_, spec), nullptr) << spec;
      if (all.back() != ':') all += ';';
      all += option;
      if (!names.empty()) names += ',';
      names += std::string(option).substr(0, std::string(option).find('='));
    }
    auto backend = registry.create(*enclave_, all);
    ASSERT_NE(dynamic_cast<ZcAsyncBackend*>(backend.get()), nullptr) << all;
    EXPECT_STREQ(backend->name(), key);
    // The accepted list is exactly this one, in this order.
    EXPECT_NE(registry.help().find("options: " + names + "\n"),
              std::string::npos)
        << key;
  }
  // Each key's options stay its own.
  for (const char* spec : {"zc_async:batch=2", "zc_async:spin_us=5",
                           "zc_async:flush_us=50", "zc_batched:queue=4"}) {
    EXPECT_THROW(registry.validate(spec), BackendSpecError) << spec;
    EXPECT_THROW(registry.create(*enclave_, spec), BackendSpecError) << spec;
  }
  // The async key never polls: a value error, raised at create().
  EXPECT_NO_THROW(registry.validate("zc_async:wait=yield"));
  EXPECT_THROW(registry.create(*enclave_, "zc_async:wait=yield"),
               BackendSpecError);

  // Key defaults: the batched key sizes the table workers×batch and waits
  // for a batch; the async key opens the gate on every publish.
  auto batched = registry.create(*enclave_, "zc_batched:workers=3");
  const ZcAsyncConfig& b =
      dynamic_cast<ZcAsyncBackend&>(*batched).config();
  EXPECT_EQ(b.queue, 24u);
  EXPECT_EQ(b.batch, 8u);
  EXPECT_EQ(b.flush.count(), 100);
  EXPECT_EQ(b.spin.count(), 50);
  EXPECT_EQ(b.wait, GateWaitPolicy::kYield);
  auto async = registry.create(*enclave_, "zc_async:workers=3");
  const ZcAsyncConfig& a = dynamic_cast<ZcAsyncBackend&>(*async).config();
  EXPECT_EQ(a.queue, 32u);
  EXPECT_EQ(a.batch, 1u);
  EXPECT_EQ(a.spin.count(), 5);
  EXPECT_EQ(a.wait, GateWaitPolicy::kCondvar);
  // Both keys run the configless scheduler with workers= as its maximum,
  // spelled as on zc.
  EXPECT_TRUE(b.scheduler_enabled);
  EXPECT_TRUE(a.scheduler_enabled);
  EXPECT_EQ(dynamic_cast<ZcAsyncBackend&>(*async).max_workers(), 3u);
  EXPECT_FALSE(dynamic_cast<ZcAsyncBackend&>(
                   *registry.create(*enclave_, "zc_async:scheduler=off"))
                   .config()
                   .scheduler_enabled);

  // Both keys name the trusted-function plane too.
  EXPECT_STREQ(
      registry.create(*enclave_, "zc_batched:direction=ecall")->name(),
      "zc_batched-ecall");
  EXPECT_STREQ(registry.create(*enclave_, "zc_async:direction=ecall")->name(),
               "zc_async-ecall");
}

TEST_F(BackendRegistryTest, DirectionOptionIsValidatedAndScoped) {
  auto& registry = BackendRegistry::instance();
  EXPECT_THROW(registry.create(*enclave_, "zc:direction=sideways"),
               BackendSpecError);
  // hotcalls has no trusted-worker mode: the option itself is unknown.
  EXPECT_THROW(registry.create(*enclave_, "hotcalls:direction=ecall"),
               BackendSpecError);
}

TEST_F(BackendRegistryTest, EcallDirectionInstallsOnTheTrustedPlane) {
  enclave_->ecalls().register_fn("tnop", [](MarshalledCall&) {});
  install_backend_spec(*enclave_, "zc:direction=ecall;scheduler=off;workers=1");
  // The ocall backend is untouched; the ecall plane got the ZC backend.
  EXPECT_STREQ(enclave_->backend().name(), "no_sl");
  EXPECT_STREQ(enclave_->ecall_backend().name(), "zc-ecall");

  install_backend_spec(*enclave_,
                       "zc_batched:direction=ecall;workers=1;batch=2");
  EXPECT_STREQ(enclave_->ecall_backend().name(), "zc_batched-ecall");

  // An ocall-direction spec then only replaces the ocall plane.
  install_backend_spec(*enclave_, "zc:workers=2;scheduler=off");
  EXPECT_STREQ(enclave_->backend().name(), "zc");
  EXPECT_STREQ(enclave_->ecall_backend().name(), "zc_batched-ecall");
  enclave_->set_ecall_backend(nullptr);
  enclave_->set_backend(nullptr);
}

TEST_F(BackendRegistryTest, IntelEcallDirectionResolvesTrustedNames) {
  const auto tid = enclave_->ecalls().register_fn("square",
                                                  [](MarshalledCall&) {});
  (void)tid;
  // `sl=square` only exists in the *ecall* table: resolution must follow
  // the direction option.
  install_backend_spec(*enclave_,
                       "intel:direction=ecall;sl=square;workers=1");
  EXPECT_STREQ(enclave_->ecall_backend().name(), "intel_sl-ecall");
  // Same spec without direction=ecall must fail: no such ocall.
  EXPECT_THROW(
      BackendRegistry::instance().create(*enclave_, "intel:sl=square"),
      BackendSpecError);
  enclave_->set_ecall_backend(nullptr);
}

TEST_F(BackendRegistryTest, CustomBackendsPlugIntoTheSpecPlane) {
  auto& registry = BackendRegistry::instance();
  if (!registry.contains("echo_test")) {
    registry.register_backend(
        {"echo_test", "no_sl clone used by the registry unit test",
         {"tag"},
         [](Enclave& enclave, const BackendSpec& spec, CpuUsageMeter*) {
           spec.get_string("tag", "");  // typed access works for customs
           return std::make_unique<RegularBackend>(enclave);
         }});
  }
  auto backend = registry.create(*enclave_, "echo_test:tag=x");
  ASSERT_NE(backend, nullptr);
  EXPECT_STREQ(backend->name(), "no_sl");
  // Duplicate registration is rejected.
  EXPECT_THROW(registry.register_backend({"zc", "dup", {}, nullptr}),
               BackendSpecError);
}

}  // namespace
}  // namespace zc
