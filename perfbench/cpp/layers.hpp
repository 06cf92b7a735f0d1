// The metric catalogue and the per-layer side of a report: host facts,
// single-threaded probes that call core and io directly on a workload's
// pool, and the metrics derived from pipeline spans and supervisor
// counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "dsp/trace.hpp"
#include "ledger.hpp"
#include "obs/manifest.hpp"
#include "obs/trace_span.hpp"
#include "runtime/supervisor.hpp"
#include "world.hpp"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Metrics of an untraced run, in report order.  error_rate is printed
/// with them; the JSON carries it as failed / attempted as well.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Metrics of a traced run, in report order.
const std::vector<MetricSpec>& per_layer_metrics();
/// Adds 0 for every per-layer metric a workload does not measure (its
/// frames never cross that layer).
void complete_per_layer(Report* report);

/// The end-to-end metrics of an untraced run: buses_per_core and
/// frames_per_s as medians over the stopwatch's units, latency quantiles
/// as medians over the log's units (closing its last one; the sample and
/// unit counts become facts), the median set-up time and the process's
/// peak resident set.
void end_to_end(const Stopwatch& watch, LatencyLog* latency,
                const std::vector<double>& setup_s, Report* report);

/// nproc, CPU model, resolved SIMD backend, build type and git describe
/// of the built tree, added to `report` as facts.
void stamp_host_facts(Report* report);

/// The report's facts and the workload seed as a RunManifest, for the
/// Chrome trace's otherData.
obs::RunManifest manifest_of(const Report& report, std::uint64_t seed);

/// core.extract_ns_per_frame, core.extract_failures (one pass, exact),
/// core.score_ns_per_frame.batch1 and .batched (`batched` frames per
/// BatchScorer call).  Each timing repeats passes over the pool until
/// `min_seconds` have elapsed.
void core_probes(const vprofile::Model& model,
                 const std::vector<dsp::Trace>& pool, std::size_t batched,
                 double min_seconds, Report* report);

/// io.crc32_mib_per_s over the given byte strings.
void crc_probe(const std::vector<std::string>& payloads, double min_seconds,
               Report* report);

/// Mean duration of the spans called `name`, or 0 when there are none.
double mean_ns(const SpanLedger& spans, const char* name);
/// Summed self time of the spans called `name` per `frames`.
double self_ns_per(const SpanLedger& spans, const char* name,
                   std::uint64_t frames);

/// pipeline.queue_wait_ns_p50, pipeline.{extract,detect,collect}_ns_per_frame
/// and pipeline.worker_busy_share (work spans over `worker_seconds`, the
/// traced wall time times the worker count).
void pipeline_metrics(const SpanLedger& spans, double worker_seconds,
                      Report* report);

/// runtime.* behaviour counts and obs.recorder.incidents.
void runtime_counts(const runtime::SupervisorStats& stats,
                    std::uint64_t incidents, Report* report);

/// Everything a traced run accumulates across its phases.
struct TraceTotals {
  SpanLedger spans;
  std::uint64_t dropped = 0;
  std::vector<double> traced_buses_per_core;
  std::vector<double> untraced_buses_per_core;

  /// Folds one traced phase's spans into the totals and keeps its tracer
  /// (the last one is written out as the Chrome trace).
  void absorb(std::unique_ptr<obs::Tracer> tracer);
  /// obs.trace_overhead_ratio, obs.tracer_dropped, and the last traced
  /// phase as the report's Chrome trace.
  void finish(std::uint64_t seed, Report* report) const;

 private:
  std::unique_ptr<obs::Tracer> last_;
};

}  // namespace perfbench
