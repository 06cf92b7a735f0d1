// Tiny-scale smoke of every workload on a seed the measured runs do not
// use: each must check clean (error_rate 0), and a traced run must report
// the whole per-layer ledger without dropping spans.
#include <gtest/gtest.h>

#include <string>

#include "layers.hpp"
#include "world.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kSmokeSeed = 987654321;

Options smoke(const std::string& workload, bool trace) {
  Options opt;
  opt.workload = workload;
  opt.seed = kSmokeSeed;
  opt.seconds = 0.2;
  opt.trace = trace;
  opt.scale = 0.1;
  return opt;
}

class Smoke : public ::testing::TestWithParam<std::string> {};

TEST_P(Smoke, UntracedRunChecksCleanAndReportsEveryEndToEndMetric) {
  const Report r = run_workload(smoke(GetParam(), false));
  ASSERT_TRUE(r.correct()) << r.failure;
  EXPECT_GT(r.attempted, 0u);
  EXPECT_EQ(r.failed, 0u);  // error_rate == 0
  for (const MetricSpec& spec : end_to_end_metrics()) {
    if (std::string(spec.name) == "error_rate") continue;  // added by main
    EXPECT_GT(r.value(spec.name), 0.0) << spec.name;
  }
}

TEST_P(Smoke, TracedRunReportsTheLedgerWithoutDrops) {
  const Report r = run_workload(smoke(GetParam(), true));
  ASSERT_TRUE(r.correct()) << r.failure;
  EXPECT_EQ(r.failed, 0u);
  for (const MetricSpec& spec : per_layer_metrics()) {
    const bool present = std::any_of(
        r.metrics.begin(), r.metrics.end(),
        [&](const Metric& m) { return m.name == spec.name; });
    EXPECT_TRUE(present) << spec.name;
  }
  EXPECT_EQ(r.value("obs.tracer_dropped"), 0.0);
  EXPECT_GT(r.value("obs.trace_overhead_ratio"), 0.0);
  EXPECT_GT(r.value("core.extract_ns_per_frame"), 0.0);
  EXPECT_FALSE(r.chrome_trace.empty());
  if (GetParam() == "bus_adapt") {
    EXPECT_GE(r.value("runtime.drift_alarms"), 1.0);
    EXPECT_GE(r.value("runtime.candidates_started"), 1.0);
    EXPECT_GE(r.value("runtime.promotions"), 1.0);
  }
  if (GetParam() == "fleet_wire") {
    EXPECT_GT(r.value("fleet.wire.decode_ns_per_frame"), 0.0);
    EXPECT_EQ(r.value("fleet.accept_ratio"), 1.0);
  }
  if (GetParam() == "bus_burst") {
    EXPECT_GT(r.value("pipeline.speedup_vs_1_worker"), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke,
                         ::testing::ValuesIn(workload_names()));

}  // namespace
}  // namespace perfbench
