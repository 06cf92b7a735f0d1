// Observability layer tests: histogram bucket/percentile math, registry
// series identity, Prometheus/JSONL exposition (including label
// escaping), trace-ring wraparound, and concurrent-increment safety (run
// under TSan in CI).  The last test pins the layer's core contract: a
// detector run with metrics and tracing attached is bit-identical to the
// same run without them.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "faults/fault.hpp"
#include "scenario_harness.hpp"
#include "sim/scenario.hpp"

namespace {

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  obs::Histogram h({10, 20, 40});
  h.observe(10);  // == bound: lands in that bucket, not the next
  h.observe(11);
  h.observe(40);
  h.observe(41);  // overflow
  const obs::HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(s.counts[0], 1u);
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.counts[3], 1u);
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 10u + 11u + 40u + 41u);
  EXPECT_EQ(s.max, 41u);
}

TEST(Histogram, PercentilesReportBucketUpperBounds) {
  obs::Histogram h({100, 200, 300, 400});
  for (int i = 0; i < 50; ++i) h.observe(100);
  for (int i = 0; i < 40; ++i) h.observe(200);
  for (int i = 0; i < 9; ++i) h.observe(300);
  h.observe(5000);  // one overflow observation
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.p50(), 100u);
  EXPECT_EQ(s.p90(), 200u);
  EXPECT_EQ(s.p99(), 300u);
  // The overflow bucket reports the exact observed max, not +Inf.
  EXPECT_EQ(s.quantile(1.0), 5000u);
  EXPECT_DOUBLE_EQ(s.mean(), (50 * 100 + 40 * 200 + 9 * 300 + 5000) / 100.0);
}

TEST(Histogram, QuantileUsesNearestRank) {
  // Seven samples with ranks 6 and 7 in different buckets: p90 is rank
  // ceil(0.9 * 7) = 7; rounding 6.3 would read rank 6.
  obs::Histogram h({100, 200, 300});
  for (int i = 0; i < 5; ++i) h.observe(100);
  h.observe(200);  // rank 6
  h.observe(300);  // rank 7
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.p90(), 300u);
  EXPECT_EQ(s.quantile(0.7), 100u);        // rank ceil(4.9) = 5
  EXPECT_EQ(s.quantile(0.8), 200u);        // rank ceil(5.6) = 6
  EXPECT_EQ(s.quantile(0.0), 100u);        // clamped to rank 1
}

TEST(Histogram, EmptySnapshotIsAllZero) {
  obs::Histogram h({1, 2});
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p50(), 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(MetricsRegistry, SeriesIdentityIgnoresLabelOrder) {
  obs::MetricsRegistry reg;
  obs::Counter* a = reg.counter("frames_total", {{"sa", "0x10"}, {"ecu", "3"}});
  obs::Counter* b = reg.counter("frames_total", {{"ecu", "3"}, {"sa", "0x10"}});
  obs::Counter* c = reg.counter("frames_total", {{"ecu", "4"}, {"sa", "0x10"}});
  EXPECT_EQ(a, b);  // same series, any label order
  EXPECT_NE(a, c);
  a->add(2);
  EXPECT_EQ(b->value(), 2u);

  // Histogram bounds belong to the series: a second lookup keeps the first
  // grid.
  obs::Histogram* h1 = reg.histogram("lat_ns", {}, {10, 20});
  obs::Histogram* h2 = reg.histogram("lat_ns", {}, {999});
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h2->bounds().size(), 2u);
}

TEST(MetricsRegistry, SamplesAreDeterministicallyOrdered) {
  obs::MetricsRegistry reg;
  reg.counter("z_total")->add(1);
  reg.gauge("a_depth_total")->set(-5);
  reg.counter("m_total", {{"k", "v"}});
  const auto samples = reg.samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "a_depth_total");
  EXPECT_EQ(samples[0].gauge_value, -5);
  EXPECT_EQ(samples[1].name, "m_total");
  EXPECT_EQ(samples[2].name, "z_total");
}

TEST(Exposition, PrometheusEscapesLabelValues) {
  obs::MetricsRegistry reg;
  reg.counter("odd_labels_total",
              {{"path", "a\\b"}, {"quote", "x\"y"}, {"nl", "p\nq"}})
      ->add(7);
  const std::string text = obs::to_prometheus(reg.samples());
  EXPECT_NE(text.find("# TYPE odd_labels_total counter"), std::string::npos);
  EXPECT_NE(text.find("path=\"a\\\\b\""), std::string::npos);
  EXPECT_NE(text.find("quote=\"x\\\"y\""), std::string::npos);
  EXPECT_NE(text.find("nl=\"p\\nq\""), std::string::npos);
  EXPECT_NE(text.find(" 7\n"), std::string::npos);
}

TEST(Exposition, PrometheusHistogramBucketsAreCumulative) {
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.histogram("lat_ns", {}, {10, 20});
  h->observe(5);
  h->observe(15);
  h->observe(100);
  const std::string text = obs::to_prometheus(reg.samples());
  EXPECT_NE(text.find("# TYPE lat_ns histogram"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_bucket{le=\"10\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_bucket{le=\"20\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_sum 120\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_count 3\n"), std::string::npos);
}

TEST(Exposition, JsonlLeadsWithManifestAndOneObjectPerLine) {
  obs::MetricsRegistry reg;
  reg.counter("frames_total")->add(3);
  reg.histogram("lat_ns", {}, {10})->observe(4);
  obs::RunManifest manifest = obs::RunManifest::create("test_obs");
  manifest.seeds.emplace_back("matrix", 42u);
  const std::string text = obs::to_jsonl(reg.samples(), &manifest);
  ASSERT_EQ(text.rfind("{\"manifest\":", 0), 0u);
  EXPECT_NE(text.find("\"tool\":\"test_obs\""), std::string::npos);
  EXPECT_NE(text.find("\"matrix\":42"), std::string::npos);
  EXPECT_NE(text.find("{\"metric\":\"frames_total\",\"kind\":\"counter\""),
            std::string::npos);
  EXPECT_NE(text.find("\"p99\":"), std::string::npos);
  // Three lines: manifest + two series, each newline-terminated.
  std::size_t lines = 0;
  for (const char c : text) lines += (c == '\n') ? 1 : 0;
  EXPECT_EQ(lines, 3u);
}

TEST(Tracer, RingKeepsTheMostRecentEventsPerThread) {
  obs::Tracer tracer(/*ring_capacity=*/8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    tracer.record("span", /*start_ns=*/i, /*dur_ns=*/1);
  }
  EXPECT_EQ(tracer.total_recorded(), 20u);
  const std::vector<obs::TraceEvent> events = tracer.collect();
  ASSERT_EQ(events.size(), 8u);  // the window survives, oldest first
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].start_ns, 12u + i);
  }
}

TEST(Tracer, ChromeJsonHasCompleteEventsAndManifest) {
  obs::Tracer tracer(16);
  {
    obs::TraceSpan span(&tracer, "unit.test_span");
  }
  const obs::RunManifest manifest = obs::RunManifest::create("test_obs");
  const std::string json = tracer.chrome_trace_json(&manifest);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"unit.test_span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"otherData\":"), std::string::npos);
}

TEST(Tracer, NullTracerSpansAreNoops) {
  // Must not crash or record anywhere; this is the disabled-observability
  // hot path every pipeline call site takes by default.
  obs::TraceSpan span(nullptr, "ignored");
}

TEST(Concurrency, RelaxedInstrumentsCountExactlyUnderContention) {
  // Run under TSan in CI: concurrent add/observe on shared instruments
  // must be race-free and lose nothing.
  obs::MetricsRegistry reg;
  obs::Counter* counter = reg.counter("hammer_total");
  obs::Histogram* hist = reg.histogram("hammer_ns", {}, {1, 2, 4, 8});
  obs::Gauge* gauge = reg.gauge("hammer_bytes");
  obs::Tracer tracer(64);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->add();
        hist->observe(static_cast<std::uint64_t>(i % 10));
        gauge->add(t % 2 == 0 ? 1 : -1);
        if (i % 1000 == 0) {
          tracer.record("hammer", static_cast<std::uint64_t>(i), 1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const obs::HistogramSnapshot s = hist->snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(s.max, 9u);
  EXPECT_EQ(gauge->value(), 0);
  EXPECT_EQ(tracer.total_recorded(),
            static_cast<std::uint64_t>(kThreads) * (kPerThread / 1000));
}

TEST(Manifest, JsonQuoteEscapesControlCharacters) {
  EXPECT_EQ(obs::json_quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(obs::json_quote(std::string(1, '\x01')), "\"\\u0001\"");
}

// The layer's core contract: attaching a registry and tracer must not
// change a single verdict.  Scenario fingerprints hash every per-cell
// confusion count, so equality here is bit-exactness of the detector
// output, not a statistical similarity.
TEST(Observability, ScenarioFingerprintIsBitIdenticalWithInstrumentation) {
  sim::Scenario scenario;
  scenario.attack = sim::AttackKind::kHijack;
  scenario.faults = faults::emi_storm();

  sim::ScenarioRunner plain_runner(harness::kMatrixSeed);
  const sim::ScenarioResult plain = plain_runner.run(scenario);

  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  sim::ScenarioRunner instrumented_runner(harness::kMatrixSeed);
  instrumented_runner.set_observability(&registry, &tracer);
  const sim::ScenarioResult instrumented = instrumented_runner.run(scenario);

  EXPECT_EQ(plain.metrics.fingerprint(), instrumented.metrics.fingerprint());

  // And the instrumentation was actually live, not silently detached.
  std::uint64_t submitted = 0;
  for (const obs::MetricSample& s : registry.samples()) {
    if (s.name == "frames_submitted_total") submitted += s.counter_value;
  }
  EXPECT_GT(submitted, 0u);
  EXPECT_GT(tracer.total_recorded(), 0u);
}

}  // namespace
