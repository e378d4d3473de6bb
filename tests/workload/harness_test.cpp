#include "workload/harness.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "core/zc_async.hpp"
#include "workload/synthetic.hpp"

namespace zc::workload {
namespace {

class HarnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimConfig sim;
    sim.tes_cycles = 2'000;
    sim.logical_cpus = 8;
    enclave_ = Enclave::create(sim);
    ids_ = register_synthetic_ocalls(enclave_->ocalls());
  }

  std::unique_ptr<Enclave> enclave_;
  SyntheticOcalls ids_;
};

TEST_F(HarnessTest, NoSlSpecInstallsRegularBackend) {
  install_backend(*enclave_, ModeSpec::no_sl());
  EXPECT_STREQ(enclave_->backend().name(), "no_sl");
}

TEST_F(HarnessTest, IntelSpecInstallsConfiguredBackend) {
  EXPECT_EQ(ModeSpec::intel("i-f-2", {"f", "f#alias"}, 2).spec,
            "intel:sl=f,f#alias;workers=2");
  // Installed with an effectively unbounded rbf so the switchless-path
  // assertions hold on few-core hosts too.
  const auto spec =
      ModeSpec::parse("intel:sl=f,f#alias;workers=2;rbf=2000000000", "i-f-2");
  install_backend(*enclave_, spec);
  EXPECT_STREQ(enclave_->backend().name(), "intel_sl");
  EXPECT_EQ(enclave_->backend().active_workers(), 2u);
  // Configured ids go switchless.
  FArgs args;
  EXPECT_EQ(enclave_->ocall(ids_.f_a, args), CallPath::kSwitchless);
  GArgs gargs;
  gargs.pauses = 0;
  EXPECT_EQ(enclave_->ocall(ids_.g_a, gargs), CallPath::kRegular);
}

TEST_F(HarnessTest, ZcSpecInstallsZcBackend) {
  install_backend(*enclave_, ModeSpec::zc_mode("scheduler=off,workers=1"));
  EXPECT_STREQ(enclave_->backend().name(), "zc");
  FArgs args;
  EXPECT_EQ(enclave_->ocall(ids_.f_a, args), CallPath::kSwitchless);
}

TEST_F(HarnessTest, AsyncPlaneServesBothSlottedKeys) {
  // zc_batched and zc_async build the one slotted plane, so pipelined
  // drivers accept either; a synchronous family has no plane.
  for (const char* spec :
       {"zc_async:workers=1;scheduler=off;queue=4",
        "zc_batched:workers=1;scheduler=off;batch=2"}) {
    install_backend(*enclave_, ModeSpec::parse(spec, "slotted"));
    ZcAsyncBackend* plane = async_plane(*enclave_);
    ASSERT_NE(plane, nullptr) << spec;
    EXPECT_EQ(plane, &enclave_->backend()) << spec;
    FArgs args;
    CallDesc desc;
    desc.fn_id = ids_.f_a;
    desc.args = &args;
    desc.args_size = sizeof(args);
    CallFuture future = plane->submit(desc);
    EXPECT_EQ(future.wait(), CallPath::kSwitchless) << spec;
  }
  install_backend(*enclave_, ModeSpec::zc_mode("scheduler=off,workers=1"));
  EXPECT_EQ(async_plane(*enclave_), nullptr);
}

TEST_F(HarnessTest, HotcallsIsAFirstClassMode) {
  install_backend(*enclave_, ModeSpec::hotcalls(2));
  EXPECT_STREQ(enclave_->backend().name(), "hotcalls");
  EXPECT_EQ(enclave_->backend().active_workers(), 2u);
  FArgs args;
  EXPECT_EQ(enclave_->ocall(ids_.f_a, args), CallPath::kSwitchless);
  enclave_->set_backend(nullptr);
}

TEST_F(HarnessTest, MeterReachesIntelWorkers) {
  CpuUsageMeter meter(8);
  // rbs = 1e9 keeps workers spinning (never sleep).
  auto spec = ModeSpec::parse("intel:sl=f;workers=2;rbs=1000000000");
  install_backend(*enclave_, spec, &meter);
  meter.begin_window();
  // Busy-waiting workers accumulate CPU even with no calls.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_GT(meter.window_cpu_ns(), 10'000'000u);  // >=10ms of worker spin
  // Detach worker threads from the local meter before it is destroyed.
  install_backend(*enclave_, ModeSpec::no_sl());
}

TEST_F(HarnessTest, MeasureReportsWallAndCpu) {
  CpuUsageMeter meter(1);
  const auto slot = meter.register_current_thread();
  const Measured m = measure(meter, [&] {
    const std::uint64_t start = wall_ns();
    volatile std::uint64_t sink = 0;
    while (wall_ns() - start < 30'000'000) sink = sink + 1;
    meter.checkpoint(slot);
  });
  EXPECT_GT(m.seconds, 0.025);
  EXPECT_GT(m.cpu_percent, 40.0);
}

TEST_F(HarnessTest, SimThreadScopeRegistersWithMeter) {
  CpuUsageMeter meter(1);
  meter.begin_window();
  {
    std::jthread t([&] {
      SimThreadScope scope(*enclave_, &meter);
      const std::uint64_t start = wall_ns();
      volatile std::uint64_t sink = 0;
      while (wall_ns() - start < 30'000'000) sink = sink + 1;
      scope.checkpoint();
    });
  }
  EXPECT_GT(meter.window_cpu_ns(), 15'000'000u);
}

TEST_F(HarnessTest, ModeLabelsRoundTrip) {
  EXPECT_EQ(ModeSpec::no_sl().label, "no_sl");
  EXPECT_EQ(ModeSpec::intel("i-frw-4", {}, 4).label, "i-frw-4");
  EXPECT_EQ(ModeSpec::intel("i-frw-4", {}, 4).spec, "intel:workers=4");
  EXPECT_EQ(ModeSpec::zc_mode().label, "zc");
  EXPECT_EQ(ModeSpec::zc_mode("workers=4").spec, "zc:workers=4");
  EXPECT_EQ(ModeSpec::hotcalls(3).spec, "hotcalls:workers=3");
}

TEST_F(HarnessTest, ParseValidatesAgainstRegistry) {
  const auto mode = ModeSpec::parse("zc:workers=2", "zc-2");
  EXPECT_EQ(mode.label, "zc-2");
  EXPECT_EQ(ModeSpec::parse("zc:workers=2").label, "zc:workers=2");
  EXPECT_THROW(ModeSpec::parse("warp_drive"), BackendSpecError);
  EXPECT_THROW(ModeSpec::parse("zc:rbf=7"), BackendSpecError);
}

}  // namespace
}  // namespace zc::workload
