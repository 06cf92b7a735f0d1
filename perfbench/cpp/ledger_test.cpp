// Unit tests for the ledger's derivations on synthetic inputs.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "ledger.hpp"

namespace perfbench {
namespace {

obs::TraceEvent span(const char* name, std::uint64_t start, std::uint64_t end,
                     std::uint32_t tid) {
  obs::TraceEvent e;
  e.name = name;
  e.start_ns = start;
  e.dur_ns = end - start;
  e.tid = tid;
  return e;
}

TEST(BusesPerCore, FramesPerCpuSecondInSaturatedBuses) {
  EXPECT_DOUBLE_EQ(buses_per_core(3800, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(buses_per_core(1900, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(buses_per_core(950, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(buses_per_core(1000, 0.0), 0.0);
}

TEST(ExactQuantile, NearestRankOverUnsortedSamples) {
  const std::vector<std::uint64_t> s = {50, 10, 40, 20, 30};
  EXPECT_EQ(exact_quantile(s, 0.5), 30u);   // rank ceil(2.5) = 3
  EXPECT_EQ(exact_quantile(s, 0.2), 10u);   // rank 1
  EXPECT_EQ(exact_quantile(s, 0.21), 20u);  // rank ceil(1.05) = 2
  EXPECT_EQ(exact_quantile(s, 0.99), 50u);  // rank 5
  EXPECT_EQ(exact_quantile(s, 1.0), 50u);
  EXPECT_EQ(exact_quantile({}, 0.5), 0u);
  // Even count: the median is the lower middle sample, never a mean.
  EXPECT_EQ(exact_quantile({1, 2, 3, 4}, 0.5), 2u);
}

TEST(ExactQuantile, P99NeedsTheSampleCountItClaims) {
  // With 1000 samples p99 is rank 990: ten samples lie above it.
  std::vector<std::uint64_t> s;
  for (std::uint64_t i = 1; i <= 1000; ++i) s.push_back(i);
  EXPECT_EQ(exact_quantile(s, 0.99), 990u);
}

TEST(LatencyLog, ReportsTheMedianOfExactPerUnitQuantiles) {
  LatencyLog log;
  const std::size_t n = LatencyLog::kMinUnitSamples;
  std::vector<std::uint64_t> units[3];
  std::mt19937_64 rng(42);
  for (int u = 0; u < 3; ++u) {
    // Unit 1 runs twice as slow: one slow unit must not move the medians.
    std::uniform_int_distribution<std::uint64_t> d(1000, u == 1 ? 400000 : 200000);
    for (std::size_t i = 0; i < n; ++i) {
      units[u].push_back(d(rng));
      log.add(units[u].back());
    }
    log.end_unit();
  }
  log.finish();
  EXPECT_EQ(log.count(), 3 * n);
  ASSERT_EQ(log.units(), 3u);
  std::vector<double> p50;
  std::vector<double> p99;
  for (const auto& u : units) {
    p50.push_back(static_cast<double>(exact_quantile(u, 0.50)));
    p99.push_back(static_cast<double>(exact_quantile(u, 0.99)));
  }
  EXPECT_EQ(log.p50_ns(), median(p50));
  EXPECT_EQ(log.p99_ns(), median(p99));
}

TEST(LatencyLog, ShortUnitsMergeAndAShortRemainderJoinsThePreviousUnit) {
  LatencyLog log;
  const std::size_t n = LatencyLog::kMinUnitSamples;
  std::vector<std::uint64_t> all;
  for (std::size_t i = 0; i < n + n / 2; ++i) {
    all.push_back(i);
    log.add(i);
    if (i % 100 == 99) log.end_unit();  // too short: keeps accumulating
  }
  EXPECT_EQ(log.units(), 1u);  // closed once it reached n samples
  log.finish();  // n/2 - 1 left over: folded into the unit before
  EXPECT_EQ(log.units(), 1u);
  EXPECT_EQ(log.p99_ns(), static_cast<double>(exact_quantile(all, 0.99)));
  LatencyLog tiny;
  tiny.add(7);
  tiny.finish();  // no full unit at all: the remainder is the unit
  EXPECT_EQ(tiny.p50_ns(), 7.0);
  EXPECT_EQ(LatencyLog{}.p99_ns(), 0.0);
}

TEST(Median, MiddleValueOrMeanOfTheTwoMiddle) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(SelfTime, ContainmentAcrossTwoSerializedThreads) {
  // Thread 0 calls into a layer that hands each frame to thread 1 and
  // waits: thread 1's spans lie inside thread 0's span in time.
  const std::vector<obs::TraceEvent> events = {
      span("caller", 0, 100, 0),
      span("worker.extract", 10, 30, 1),
      span("worker.detect", 40, 50, 1),
      span("caller.inner", 60, 70, 0),
      span("worker.collect", 62, 65, 1),
      span("late", 90, 120, 1),  // overlaps the caller's end: not a child
  };
  const std::vector<std::uint64_t> self = self_times(events);
  EXPECT_EQ(self[0], 100u - 20u - 10u - 10u);  // 60
  EXPECT_EQ(self[1], 20u);
  EXPECT_EQ(self[2], 10u);
  EXPECT_EQ(self[3], 7u);
  EXPECT_EQ(self[4], 3u);
  EXPECT_EQ(self[5], 30u);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Two children that overlap each other (their own threads) cover the
  // union of their intervals, not the sum.
  const std::vector<obs::TraceEvent> events = {
      span("parent", 0, 100, 0),
      span("a", 10, 40, 1),
      span("b", 30, 60, 2),
  };
  EXPECT_EQ(self_times(events)[0], 50u);
}

TEST(Accumulate, SumsPerNameAcrossPhases) {
  SpanLedger ledger;
  accumulate({span("x", 0, 10, 0), span("y", 2, 5, 1)}, &ledger);
  accumulate({span("x", 100, 104, 0)}, &ledger);
  EXPECT_EQ(ledger["x"].count, 2u);
  EXPECT_EQ(ledger["x"].total_ns, 14u);
  EXPECT_EQ(ledger["x"].self_ns, 7u + 4u);
  EXPECT_EQ(ledger["y"].self_ns, 3u);
  EXPECT_EQ(ledger["x"].durations_ns.size(), 2u);
}

}  // namespace
}  // namespace perfbench
