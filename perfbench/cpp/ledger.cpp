#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double buses_per_core(std::uint64_t frames, double cpu_seconds) {
  if (cpu_seconds <= 0.0) return 0.0;
  return static_cast<double>(frames) / cpu_seconds / kSaturatedBusFramesPerS;
}

namespace {

/// 1-based nearest rank of quantile q among n samples, clamped to [1, n].
std::uint64_t nearest_rank(double q, std::uint64_t n) {
  const double r = std::ceil(q * static_cast<double>(n));
  if (r < 1.0) return 1;
  if (r > static_cast<double>(n)) return n;
  return static_cast<std::uint64_t>(r);
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::uint64_t exact_quantile(std::vector<std::uint64_t> samples, double q) {
  if (samples.empty()) return 0;
  const std::uint64_t rank = nearest_rank(q, samples.size());
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

void LatencyLog::add(std::uint64_t ns) {
  current_.push_back(ns);
  ++count_;
}

void LatencyLog::end_unit() {
  if (current_.size() >= kMinUnitSamples) close();
}

void LatencyLog::finish() {
  if (current_.empty()) return;
  if (current_.size() < kMinUnitSamples && !p50_.empty()) {
    p50_.pop_back();
    p99_.pop_back();
    current_.insert(current_.end(), previous_.begin(), previous_.end());
  }
  close();
}

void LatencyLog::close() {
  p50_.push_back(static_cast<double>(exact_quantile(current_, 0.50)));
  p99_.push_back(static_cast<double>(exact_quantile(current_, 0.99)));
  previous_.swap(current_);
  current_.clear();
}

double LatencyLog::p50_ns() const { return median(p50_); }
double LatencyLog::p99_ns() const { return median(p99_); }

std::vector<std::uint64_t> self_times(
    const std::vector<obs::TraceEvent>& events) {
  // Sorted by start, longer first on ties, a span's contained spans are
  // the ones that follow it and start before it ends; sweeping them in
  // start order merges their intervals into a union.
  std::vector<std::size_t> order(events.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (events[a].start_ns != events[b].start_ns) {
      return events[a].start_ns < events[b].start_ns;
    }
    return events[a].dur_ns > events[b].dur_ns;
  });
  std::vector<std::uint64_t> self(events.size(), 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const obs::TraceEvent& outer = events[order[i]];
    const std::uint64_t end = outer.start_ns + outer.dur_ns;
    std::uint64_t covered = 0;
    std::uint64_t run_start = 0;
    std::uint64_t run_end = 0;
    bool in_run = false;
    for (std::size_t j = i + 1;
         j < order.size() && events[order[j]].start_ns < end; ++j) {
      const obs::TraceEvent& inner = events[order[j]];
      const std::uint64_t inner_end = inner.start_ns + inner.dur_ns;
      if (inner_end > end) continue;  // overlaps, not contained
      if (in_run && inner.start_ns <= run_end) {
        run_end = std::max(run_end, inner_end);
        continue;
      }
      if (in_run) covered += run_end - run_start;
      run_start = inner.start_ns;
      run_end = inner_end;
      in_run = true;
    }
    if (in_run) covered += run_end - run_start;
    self[order[i]] = outer.dur_ns - std::min(covered, outer.dur_ns);
  }
  return self;
}

void accumulate(const std::vector<obs::TraceEvent>& events,
                SpanLedger* ledger) {
  const std::vector<std::uint64_t> self = self_times(events);
  for (std::size_t i = 0; i < events.size(); ++i) {
    SpanTotals& t = (*ledger)[events[i].name];
    ++t.count;
    t.total_ns += events[i].dur_ns;
    t.self_ns += self[i];
    t.durations_ns.push_back(events[i].dur_ns);
  }
}

}  // namespace perfbench
