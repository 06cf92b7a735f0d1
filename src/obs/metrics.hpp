// Zero-hot-path-overhead metrics for the always-on monitor.
//
// A deployed vProfile IDS has to answer "how fast are we detecting, where
// is the time going, and which source addresses are hot" without slowing
// the detection path that answers it.  Every instrument here is therefore
// a handle to pre-registered relaxed-atomic storage: recording is one or
// two fetch_adds, never a lock, never an allocation.  The registry pays
// its mutex only at registration (once per series) and at export time.
//
// Series are identified by metric name + sorted label pairs, e.g.
// `detect_latency_ns{sa="0x12"}`.  Names follow the project convention
// enforced by vprofile_lint's `metric-name` rule: snake_case with a unit
// suffix (`_ns`, `_bytes`, `_total`).  Export formats (Prometheus text
// exposition, JSONL) live in obs/export.hpp.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace obs {

/// Label pairs identifying one series of a metric family.  Order given by
/// the caller is irrelevant; the registry canonicalizes by sorting.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time level (queue depth, cluster count).  Signed so deltas
/// can go both ways.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Plain-value view of a histogram at one instant.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  /// Ascending inclusive upper bounds; counts has one extra slot for the
  /// overflow (+Inf) bucket.
  std::vector<std::uint64_t> bounds;
  std::vector<std::uint64_t> counts;

  /// Upper bound of the bucket holding the q-quantile (q in [0,1]), found
  /// by nearest rank ceil(q * count); the overflow bucket reports the
  /// exact observed max.  0 when empty.
  std::uint64_t quantile(double q) const;
  std::uint64_t p50() const { return quantile(0.50); }
  std::uint64_t p90() const { return quantile(0.90); }
  std::uint64_t p99() const { return quantile(0.99); }
  double mean() const {
    return count != 0
               ? static_cast<double>(sum) / static_cast<double>(count)
               : 0.0;
  }
};

/// Fixed-bucket histogram.  Bucket bounds are immutable after
/// construction, so observe() is a binary search plus relaxed fetch_adds —
/// safe and cheap from any number of threads.
class Histogram {
 public:
  /// `bounds` are ascending inclusive upper bounds (an observation lands
  /// in the first bucket whose bound is >= the value); one overflow bucket
  /// is appended implicitly.
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void observe(std::uint64_t value);
  HistogramSnapshot snapshot() const;
  const std::vector<std::uint64_t>& bounds() const { return bounds_; }

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Power-of-two latency grid: 128 ns .. ~1.07 s in 24 buckets — fine
/// enough for p50/p90/p99 on a path that costs microseconds, wide enough
/// to catch a stalled stage.
std::vector<std::uint64_t> default_latency_bounds_ns();

/// One exported sample, used by the exporters and tests.
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Labels labels;  // sorted
  Kind kind = Kind::kCounter;
  std::uint64_t counter_value = 0;
  std::int64_t gauge_value = 0;
  HistogramSnapshot histogram;
};

/// Owns every instrument; get-or-create by (name, labels) with stable
/// pointers for the lifetime of the registry.  Thread-safe; the returned
/// handles are the lock-free hot-path API.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(const std::string& name, const Labels& labels = {});
  Gauge* gauge(const std::string& name, const Labels& labels = {});
  /// Repeated calls with the same (name, labels) return the first
  /// histogram regardless of `bounds` — bounds belong to the series.
  Histogram* histogram(const std::string& name, const Labels& labels = {},
                       std::vector<std::uint64_t> bounds =
                           default_latency_bounds_ns());

  /// Every series, sorted by (name, labels) — a deterministic export
  /// order no matter the registration interleaving.
  std::vector<MetricSample> samples() const;

 private:
  struct Entry {
    MetricSample::Kind kind;
    std::string name;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry_for(const std::string& name, const Labels& labels,
                   MetricSample::Kind kind);

  mutable std::mutex mu_;
  /// Keyed by name + canonical label serialization; std::map keeps
  /// iteration (and thus export) deterministic.
  std::map<std::string, Entry> series_;
};

}  // namespace obs
