#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace obs {

namespace {

/// Canonical series key: `name{k1=v1,k2=v2}` with labels sorted by key.
/// Values are length-prefixed to keep the key injective even if a label
/// value contains '=' or ','.
std::string series_key(const std::string& name, const Labels& sorted) {
  std::string key = name;
  key += '{';
  for (const auto& [k, v] : sorted) {
    key += k;
    key += '=';
    key += std::to_string(v.size());
    key += ':';
    key += v;
    key += ',';
  }
  key += '}';
  return key;
}

Labels sorted_labels(const Labels& labels) {
  Labels out = labels;
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      std::fprintf(stderr,
                   "obs::Histogram: bucket bounds must be strictly "
                   "ascending (bound[%zu]=%llu <= bound[%zu]=%llu)\n",
                   i, static_cast<unsigned long long>(bounds_[i]), i - 1,
                   static_cast<unsigned long long>(bounds_[i - 1]));
      std::abort();
    }
  }
}

void Histogram::observe(std::uint64_t value) {
  // First bucket whose inclusive upper bound covers the value; past the
  // last bound it is the overflow bucket (Prometheus `le="+Inf"`).
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.bounds = bounds_;
  s.counts.reserve(counts_.size());
  for (const auto& c : counts_) {
    s.counts.push_back(c.load(std::memory_order_relaxed));
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  return s;
}

std::uint64_t HistogramSnapshot::quantile(double q) const {
  if (count == 0) {
    return 0;
  }
  // Nearest rank of the q-quantile observation: ceil(q * count), 1-based,
  // clamped to [1, count].
  const double r = std::ceil(std::clamp(q, 0.0, 1.0) *
                             static_cast<double>(count));
  const auto rank = std::clamp<std::uint64_t>(static_cast<std::uint64_t>(r),
                                              1, count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) {
      // Overflow bucket has no finite bound; the observed max is the
      // tightest statement we can make.
      return i < bounds.size() ? bounds[i] : max;
    }
  }
  return max;
}

std::vector<std::uint64_t> default_latency_bounds_ns() {
  std::vector<std::uint64_t> bounds;
  bounds.reserve(24);
  for (std::uint64_t b = 128; bounds.size() < 24; b *= 2) {
    bounds.push_back(b);  // 128 ns, 256 ns, ... ~1.07 s
  }
  return bounds;
}

MetricsRegistry::Entry& MetricsRegistry::entry_for(const std::string& name,
                                                   const Labels& labels,
                                                   MetricSample::Kind kind) {
  Labels sorted = sorted_labels(labels);
  std::string key = series_key(name, sorted);
  auto [it, inserted] = series_.try_emplace(std::move(key));
  Entry& e = it->second;
  if (inserted) {
    e.kind = kind;
    e.name = name;
    e.labels = std::move(sorted);
  } else if (e.kind != kind) {
    std::fprintf(stderr,
                 "obs::MetricsRegistry: series '%s' re-registered with a "
                 "different instrument kind\n",
                 name.c_str());
    std::abort();
  }
  return e;
}

Counter* MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entry_for(name, labels, MetricSample::Kind::kCounter);
  if (!e.counter) {
    e.counter = std::make_unique<Counter>();
  }
  return e.counter.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entry_for(name, labels, MetricSample::Kind::kGauge);
  if (!e.gauge) {
    e.gauge = std::make_unique<Gauge>();
  }
  return e.gauge.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name,
                                      const Labels& labels,
                                      std::vector<std::uint64_t> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entry_for(name, labels, MetricSample::Kind::kHistogram);
  if (!e.histogram) {
    e.histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return e.histogram.get();
}

std::vector<MetricSample> MetricsRegistry::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(series_.size());
  for (const auto& [key, e] : series_) {
    MetricSample s;
    s.name = e.name;
    s.labels = e.labels;
    s.kind = e.kind;
    switch (e.kind) {
      case MetricSample::Kind::kCounter:
        s.counter_value = e.counter->value();
        break;
      case MetricSample::Kind::kGauge:
        s.gauge_value = e.gauge->value();
        break;
      case MetricSample::Kind::kHistogram:
        s.histogram = e.histogram->snapshot();
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace obs
