// HostProfiler unit behaviour plus its integration with the kernel's
// profiled stepping path.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sim/kernel.hpp"
#include "telemetry/host_profiler.hpp"

namespace puno::telemetry {
namespace {

TEST(HostProfiler, BucketsAccumulateByIndex) {
  HostProfiler p;
  p.declare_tickable(0, "noc.mesh");
  p.declare_hook(0, "telemetry.sampler");
  p.tickable_cost(0, 100);
  p.tickable_cost(0, 50);
  p.hook_cost(0, 30);
  p.event_cost(4, 20);

  ASSERT_EQ(p.tickables().size(), 1u);
  EXPECT_EQ(p.tickables()[0].name, "noc.mesh");
  EXPECT_EQ(p.tickables()[0].calls, 2u);
  EXPECT_EQ(p.tickables()[0].ticks, 150u);
  ASSERT_EQ(p.hooks().size(), 1u);
  EXPECT_EQ(p.hooks()[0].ticks, 30u);
  EXPECT_EQ(p.events().calls, 4u);
  EXPECT_EQ(p.events().ticks, 20u);
  EXPECT_EQ(p.total_ticks(), 200u);
}

TEST(HostProfiler, CostBeforeDeclareStillCounts) {
  HostProfiler p;
  p.tickable_cost(2, 40);  // indices 0..1 never declared
  ASSERT_GE(p.tickables().size(), 3u);
  EXPECT_EQ(p.tickables()[2].ticks, 40u);
  EXPECT_EQ(p.total_ticks(), 40u);
}

TEST(HostProfiler, ReportNamesEveryComponent) {
  HostProfiler p;
  p.declare_tickable(0, "noc.mesh");
  p.tickable_cost(0, 1000);
  p.event_cost(1, 500);
  std::ostringstream os;
  p.write_report(os);
  const std::string report = os.str();
  EXPECT_NE(report.find("noc.mesh"), std::string::npos);
  EXPECT_NE(report.find("kernel.events"), std::string::npos);
  EXPECT_NE(report.find("%"), std::string::npos);
}

TEST(HostProfiler, JsonFormIsWellFormed) {
  HostProfiler p;
  p.declare_tickable(0, "noc.mesh");
  p.tickable_cost(0, 123);
  std::ostringstream os;
  p.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"components\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"noc.mesh\""), std::string::npos);
  EXPECT_NE(json.find("\"ticks\":123"), std::string::npos);
  EXPECT_NE(json.find("\"total_ticks\":"), std::string::npos);
}

struct SpinTickable final : sim::Tickable {
  void tick(Cycle) override {
    // Enough work to register non-zero ticks on any sane TSC: 64 stores
    // the compiler must keep.
    [[maybe_unused]] volatile int sink = 0;
    for (int i = 0; i < 64; ++i) sink = i;
  }
};

TEST(HostProfilerIntegration, KernelAttributesCostsToNames) {
  sim::Kernel kernel;
  SpinTickable t;
  kernel.add_tickable(t, "spin.tickable");
  bool hook_ran = false;
  kernel.add_post_cycle_hook([&](Cycle) { hook_ran = true; },
                             "spin.hook");
  kernel.schedule(1, [] {});

  HostProfiler p;
  kernel.set_profiler(&p);
  for (int i = 0; i < 100; ++i) kernel.step();
  kernel.set_profiler(nullptr);

  EXPECT_TRUE(hook_ran);
  ASSERT_EQ(p.tickables().size(), 1u);
  EXPECT_EQ(p.tickables()[0].name, "spin.tickable");
  EXPECT_EQ(p.tickables()[0].calls, 100u);
  EXPECT_GT(p.tickables()[0].ticks, 0u);
  ASSERT_EQ(p.hooks().size(), 1u);
  EXPECT_EQ(p.hooks()[0].name, "spin.hook");
  EXPECT_EQ(p.hooks()[0].calls, 100u);
  EXPECT_EQ(p.events().calls, 1u) << "one scheduled event ran";
}

TEST(HostProfilerIntegration, LateAttachReplaysDeclarations) {
  sim::Kernel kernel;
  SpinTickable t;
  kernel.add_tickable(t, "declared.before.attach");
  HostProfiler p;
  kernel.set_profiler(&p);  // must replay existing registrations
  kernel.step();
  kernel.set_profiler(nullptr);
  ASSERT_EQ(p.tickables().size(), 1u);
  EXPECT_EQ(p.tickables()[0].name, "declared.before.attach");
}

TEST(HostProfilerIntegration, DetachedKernelStepsWithoutProfiler) {
  sim::Kernel kernel;
  SpinTickable t;
  kernel.add_tickable(t, "spin.tickable");
  for (int i = 0; i < 10; ++i) kernel.step();
  EXPECT_EQ(kernel.now(), 10u);
}

}  // namespace
}  // namespace puno::telemetry
