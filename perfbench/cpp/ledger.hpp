// Derivations the frame-cost ledger reports: saturated buses per core,
// exact latency quantiles, and per-layer self time from trace spans.
//
// Each is a pure function of recorded numbers so the benchmark's unit
// tests can check it on synthetic inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace_span.hpp"

namespace perfbench {

/// Frames per second on a 250 kb/s J1939 bus saturated with extended
/// frames: the paper's unit of "one bus".
inline constexpr double kSaturatedBusFramesPerS = 1900.0;

/// Frames with a verdict per CPU-second, in saturated buses.  Returns 0
/// when no CPU time was measured.
double buses_per_core(std::uint64_t frames, double cpu_seconds);

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> values);

/// Nearest-rank quantile: the smallest sample x such that at least
/// ceil(q * n) samples are <= x.  q in (0, 1]; the samples need not be
/// sorted.  Returns 0 for an empty set.
std::uint64_t exact_quantile(std::vector<std::uint64_t> samples, double q);

/// Per-frame latencies in integer nanoseconds, grouped into units of
/// work.  Each unit's p50 and p99 are exact nearest-rank quantiles over its
/// samples; the run reports the median over units, so a burst of load from
/// outside the process moves a few units rather than the run's tail.
/// Memory is bounded by the unit size, not the run length.
class LatencyLog {
 public:
  /// A unit needs this many samples (p99 then has >= 20 beyond it);
  /// a shorter one keeps accumulating into the next.
  static constexpr std::size_t kMinUnitSamples = 2000;

  void add(std::uint64_t ns);
  /// Closes the current unit if it is long enough.
  void end_unit();
  /// Closes what remains; a short remainder joins the previous unit.
  void finish();

  std::uint64_t count() const { return count_; }
  std::size_t units() const { return p50_.size(); }
  /// Medians over units (0 before any unit closed).
  double p50_ns() const;
  double p99_ns() const;

 private:
  void close();

  std::vector<std::uint64_t> current_;
  std::vector<std::uint64_t> previous_;  // last closed unit, for finish()
  std::vector<double> p50_;
  std::vector<double> p99_;
  std::uint64_t count_ = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by other spans that lie wholly inside it, on any thread.
/// Nesting by time containment is sound only when the threads involved
/// are serialized (a lockstep caller waiting on its worker); spans that
/// merely overlap are not children.  Result is indexed like `events`.
std::vector<std::uint64_t> self_times(
    const std::vector<obs::TraceEvent>& events);

/// Per-name totals over one or more traced phases.
struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::vector<std::uint64_t> durations_ns;
};

using SpanLedger = std::map<std::string, SpanTotals>;

/// Folds one phase's spans (with their self times) into `ledger`.
void accumulate(const std::vector<obs::TraceEvent>& events, SpanLedger* ledger);

}  // namespace perfbench
