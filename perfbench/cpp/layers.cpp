#include "layers.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <optional>
#include <thread>

#include "core/batch_scorer.hpp"
#include "core/extractor.hpp"
#include "io/checksum.hpp"
#include "linalg/simd_dispatch.hpp"
#include "obs/trace_span.hpp"

namespace perfbench {
namespace {

/// Stores of probe results land here so the timed calls stay observable.
volatile std::uint64_t g_probe_sink = 0;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t begin = line.find_first_not_of(' ', colon + 1);
    return begin == std::string::npos ? "" : line.substr(begin);
  }
  return "unknown";
}

/// Repeats `pass` (which returns the frames it handled) until at least
/// `min_seconds` of wall time have elapsed; returns ns per frame.
template <typename Pass>
double ns_per_frame(double min_seconds, Pass&& pass) {
  std::uint64_t frames = 0;
  const std::uint64_t t0 = now_ns();
  std::uint64_t elapsed = 0;
  do {
    frames += pass();
    elapsed = now_ns() - t0;
  } while (static_cast<double>(elapsed) < min_seconds * 1e9);
  return frames == 0 ? 0.0
                     : static_cast<double>(elapsed) / static_cast<double>(frames);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"buses_per_core", "buses"}, {"frames_per_s", "frames/s"},
      {"latency_p50_us", "us"},    {"latency_p99_us", "us"},
      {"setup_s", "s"},            {"peak_rss_mib", "MiB"},
      {"error_rate", "ratio"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"fleet.wire.decode_ns_per_frame", "ns"},
      {"fleet.wire.decode_mib_per_s", "MiB/s"},
      {"fleet.wire.bytes_per_frame", "bytes"},
      {"io.crc32_mib_per_s", "MiB/s"},
      {"fleet.ingest_self_ns_per_frame", "ns"},
      {"fleet.register_ms_per_tenant", "ms"},
      {"fleet.wire.errors", "count"},
      {"fleet.accept_ratio", "ratio"},
      {"runtime.submit_self_ns_per_frame", "ns"},
      {"runtime.poll_ns_p99", "ns"},
      {"runtime.finish_ms", "ms"},
      {"runtime.drift_alarms", "count"},
      {"runtime.candidates_started", "count"},
      {"runtime.promotions", "count"},
      {"runtime.rollbacks", "count"},
      {"runtime.checkpoints_committed", "count"},
      {"runtime.gate_accept_ratio", "ratio"},
      {"obs.recorder.incidents", "count"},
      {"pipeline.queue_wait_ns_p50", "ns"},
      {"pipeline.queue_high_watermark", "count"},
      {"pipeline.extract_ns_per_frame", "ns"},
      {"pipeline.detect_ns_per_frame", "ns"},
      {"pipeline.collect_ns_per_frame", "ns"},
      {"pipeline.worker_busy_share", "ratio"},
      {"pipeline.speedup_vs_1_worker", "ratio"},
      {"core.extract_ns_per_frame", "ns"},
      {"core.extract_failures", "count"},
      {"core.score_ns_per_frame.batch1", "ns"},
      {"core.score_ns_per_frame.batched", "ns"},
      {"core.train_s", "s"},
      {"obs.trace_overhead_ratio", "ratio"},
      {"obs.tracer_dropped", "count"},
  };
  return specs;
}

void complete_per_layer(Report* report) {
  for (const MetricSpec& spec : per_layer_metrics()) {
    const bool present =
        std::any_of(report->metrics.begin(), report->metrics.end(),
                    [&](const Metric& m) { return m.name == spec.name; });
    if (!present) report->add(spec.name, 0.0, spec.unit);
  }
}

void end_to_end(const Stopwatch& watch, LatencyLog* latency,
                const std::vector<double>& setup_s, Report* report) {
  latency->finish();
  report->fact("latency.samples", std::to_string(latency->count()) + " in " +
                                      std::to_string(latency->units()) +
                                      " units");
  report->add("buses_per_core", watch.median_buses_per_core(), "buses");
  report->add("frames_per_s", watch.median_frames_per_s(), "frames/s");
  report->add("latency_p50_us", latency->p50_ns() * 1e-3, "us");
  report->add("latency_p99_us", latency->p99_ns() * 1e-3, "us");
  report->add("setup_s", median(setup_s), "s");
  report->add("peak_rss_mib", peak_rss_mib(), "MiB");
}

void stamp_host_facts(Report* report) {
  report->fact("host.nproc",
               std::to_string(std::thread::hardware_concurrency()));
  report->fact("host.cpu_model", cpu_model());
  report->fact("host.simd_backend",
               linalg::simd::to_string(
                   linalg::simd::resolve(linalg::simd::Backend::kAuto)));
  report->fact("build.type", PERFBENCH_BUILD_TYPE);
  report->fact("build.git_describe", PERFBENCH_GIT_DESCRIBE);
}

obs::RunManifest manifest_of(const Report& report, std::uint64_t seed) {
  obs::RunManifest m = obs::RunManifest::create("vprofile_perfbench");
  m.git_describe = PERFBENCH_GIT_DESCRIBE;
  m.seeds.emplace_back("workload", seed);
  m.config = report.facts;
  return m;
}

void core_probes(const vprofile::Model& model,
                 const std::vector<dsp::Trace>& pool, std::size_t batched,
                 double min_seconds, Report* report) {
  std::vector<vprofile::EdgeSet> sets;
  std::uint64_t failures = 0;
  for (const dsp::Trace& trace : pool) {
    if (auto es = vprofile::extract_edge_set(trace, model.extraction())) {
      sets.push_back(std::move(*es));
    } else {
      ++failures;
    }
  }
  std::uint64_t sink = 0;
  const double extract_ns = ns_per_frame(min_seconds, [&] {
    for (const dsp::Trace& trace : pool) {
      const auto es = vprofile::extract_edge_set(trace, model.extraction());
      sink += es ? es->sa : 0u;
    }
    return pool.size();
  });

  const vprofile::ScoringPlan plan(model);
  vprofile::BatchScorer scorer(plan);
  const vprofile::DetectionConfig dc;
  std::vector<const vprofile::EdgeSet*> ptrs;
  for (const vprofile::EdgeSet& es : sets) ptrs.push_back(&es);
  const std::size_t width_max = std::max<std::size_t>(batched, 1);
  std::vector<vprofile::Detection> out(width_max);
  auto score_pass = [&](std::size_t width) {
    for (std::size_t i = 0; i < ptrs.size(); i += width) {
      const std::size_t n = std::min(width, ptrs.size() - i);
      scorer.detect(ptrs.data() + i, n, dc, out.data());
      sink += static_cast<std::uint64_t>(out[0].verdict);
    }
    return ptrs.size();
  };
  const double batch1_ns =
      ns_per_frame(min_seconds, [&] { return score_pass(1); });
  const double batched_ns =
      ns_per_frame(min_seconds, [&] { return score_pass(width_max); });
  g_probe_sink = sink;

  report->add("core.extract_ns_per_frame", extract_ns, "ns");
  report->add("core.extract_failures", static_cast<double>(failures), "count");
  report->add("core.score_ns_per_frame.batch1", batch1_ns, "ns");
  report->add("core.score_ns_per_frame.batched", batched_ns, "ns");
}

void crc_probe(const std::vector<std::string>& payloads, double min_seconds,
               Report* report) {
  std::uint64_t bytes_per_pass = 0;
  for (const std::string& p : payloads) bytes_per_pass += p.size();
  std::uint64_t sink = 0;
  const double ns_per_payload = ns_per_frame(min_seconds, [&] {
    for (const std::string& p : payloads) sink += io::crc32(p);
    return payloads.size();
  });
  g_probe_sink = sink;
  const double bytes_per_payload = ratio(static_cast<double>(bytes_per_pass),
                                         static_cast<double>(payloads.size()));
  report->add("io.crc32_mib_per_s",
              ratio(bytes_per_payload * 1e9, ns_per_payload) / (1024.0 * 1024.0),
              "MiB/s");
}

double mean_ns(const SpanLedger& spans, const char* name) {
  const auto it = spans.find(name);
  if (it == spans.end() || it->second.count == 0) return 0.0;
  return static_cast<double>(it->second.total_ns) /
         static_cast<double>(it->second.count);
}

double self_ns_per(const SpanLedger& spans, const char* name,
                   std::uint64_t frames) {
  const auto it = spans.find(name);
  if (it == spans.end()) return 0.0;
  return ratio(static_cast<double>(it->second.self_ns),
               static_cast<double>(frames));
}

void pipeline_metrics(const SpanLedger& spans, double worker_seconds,
                      Report* report) {
  const auto queue = spans.find("pipeline.queue");
  report->add("pipeline.queue_wait_ns_p50",
              queue == spans.end()
                  ? 0.0
                  : static_cast<double>(
                        exact_quantile(queue->second.durations_ns, 0.5)),
              "ns");
  report->add("pipeline.extract_ns_per_frame",
              mean_ns(spans, "pipeline.extract"), "ns");
  report->add("pipeline.detect_ns_per_frame", mean_ns(spans, "pipeline.detect"),
              "ns");
  report->add("pipeline.collect_ns_per_frame",
              mean_ns(spans, "pipeline.collect"), "ns");
  double busy_ns = 0.0;
  for (const char* name :
       {"pipeline.extract", "pipeline.detect", "pipeline.collect"}) {
    const auto it = spans.find(name);
    if (it != spans.end()) busy_ns += static_cast<double>(it->second.total_ns);
  }
  report->add("pipeline.worker_busy_share", ratio(busy_ns * 1e-9, worker_seconds),
              "ratio");
}

void runtime_counts(const runtime::SupervisorStats& s, std::uint64_t incidents,
                    Report* report) {
  report->add("runtime.drift_alarms", static_cast<double>(s.drift_alarms),
              "count");
  report->add("runtime.candidates_started",
              static_cast<double>(s.candidates_started), "count");
  report->add("runtime.promotions", static_cast<double>(s.promotions), "count");
  report->add("runtime.rollbacks", static_cast<double>(s.rollbacks), "count");
  report->add("runtime.checkpoints_committed",
              static_cast<double>(s.checkpoints_committed), "count");
  const std::uint64_t considered = s.gate.accepted + s.gate.rejected_verdict +
                                   s.gate.rejected_margin +
                                   s.gate.refused_by_updater;
  report->add("runtime.gate_accept_ratio",
              ratio(static_cast<double>(s.gate.accepted),
                    static_cast<double>(considered)),
              "ratio");
  report->add("obs.recorder.incidents", static_cast<double>(incidents),
              "count");
}

void TraceTotals::absorb(std::unique_ptr<obs::Tracer> tracer) {
  accumulate(tracer->collect(), &spans);
  dropped += tracer->dropped_total();
  last_ = std::move(tracer);
}

void TraceTotals::finish(std::uint64_t seed, Report* report) const {
  report->add("obs.trace_overhead_ratio",
              ratio(median(traced_buses_per_core),
                    median(untraced_buses_per_core)),
              "ratio");
  report->add("obs.tracer_dropped", static_cast<double>(dropped), "count");
  if (last_ != nullptr) {
    const obs::RunManifest manifest = manifest_of(*report, seed);
    report->chrome_trace = last_->chrome_trace_json(&manifest);
  }
}

}  // namespace perfbench
