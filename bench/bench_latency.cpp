// Microbenchmarks (google-benchmark) backing the paper's latency claims
// (Section 1.3): vProfile "minimizes latency since it requires analyzing
// only a section at the beginning of messages" and uses a single-feature
// detection step cheap enough for embedded hardware.
//
// Benchmarked stages: waveform synthesis (simulator cost, not part of a
// deployment), edge-set extraction, Euclidean and Mahalanobis distances,
// full detection, online update, and training.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_common.hpp"
#include "core/batch_scorer.hpp"
#include "core/detector.hpp"
#include "core/extractor.hpp"
#include "core/online_update.hpp"
#include "core/trainer.hpp"
#include "linalg/mahalanobis.hpp"
#include "linalg/simd_dispatch.hpp"
#include "sim/presets.hpp"
#include "sim/vehicle.hpp"

namespace {

/// Lazily built shared state so every benchmark reuses one capture set.
struct Shared {
  sim::Vehicle vehicle{sim::vehicle_a(), bench::bench_seed("latency")};
  vprofile::ExtractionConfig extraction =
      sim::default_extraction(vehicle.config());
  std::vector<sim::Capture> captures;
  std::vector<vprofile::EdgeSet> edge_sets;
  vprofile::Model model;

  static Shared& get() {
    static Shared s;
    return s;
  }

 private:
  Shared()
      : captures(vehicle.capture(1200, analog::Environment::reference())),
        model(make_model()) {
    for (const auto& cap : captures) {
      if (auto es = vprofile::extract_edge_set(cap.codes, extraction)) {
        edge_sets.push_back(std::move(*es));
      }
    }
  }

  vprofile::Model make_model() {
    std::vector<vprofile::EdgeSet> sets;
    for (const auto& cap :
         vehicle.capture(1500, analog::Environment::reference())) {
      if (auto es = vprofile::extract_edge_set(cap.codes, extraction)) {
        sets.push_back(std::move(*es));
      }
    }
    vprofile::TrainingConfig cfg;
    cfg.metric = vprofile::DistanceMetric::kMahalanobis;
    cfg.extraction = extraction;
    auto outcome =
        vprofile::train_with_database(sets, vehicle.database(), cfg);
    if (!outcome.ok()) throw std::runtime_error(outcome.error);
    return std::move(*outcome.model);
  }
};

void BM_WaveformSynthesis(benchmark::State& state) {
  Shared& s = Shared::get();
  canbus::DataFrame frame;
  frame.id = s.vehicle.config().ecus[0].messages[0].id;
  frame.payload = {1, 2, 3, 4, 5, 6, 7, 8};
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.vehicle.synthesize_message(
        frame, 0, analog::Environment::reference()));
  }
}
BENCHMARK(BM_WaveformSynthesis);

void BM_EdgeSetExtraction(benchmark::State& state) {
  Shared& s = Shared::get();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vprofile::extract_edge_set(
        s.captures[i % s.captures.size()].codes, s.extraction));
    ++i;
  }
}
BENCHMARK(BM_EdgeSetExtraction);

void BM_EuclideanDistance(benchmark::State& state) {
  Shared& s = Shared::get();
  const auto& x = s.edge_sets.front().samples;
  const auto& mu = s.model.clusters().front().mean;
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::euclidean_distance(x, mu));
  }
}
BENCHMARK(BM_EuclideanDistance);

void BM_MahalanobisDistance(benchmark::State& state) {
  Shared& s = Shared::get();
  const auto& x = s.edge_sets.front().samples;
  const auto& cl = s.model.clusters().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        linalg::mahalanobis_distance_inv(x, cl.mean, cl.inv_covariance));
  }
}
BENCHMARK(BM_MahalanobisDistance);

void BM_Detection(benchmark::State& state) {
  Shared& s = Shared::get();
  const vprofile::DetectionConfig dc{4.0};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vprofile::detect(s.model, s.edge_sets[i % s.edge_sets.size()], dc));
    ++i;
  }
}
BENCHMARK(BM_Detection);

/// SoA batch scoring over the whole capture set, one backend per arm.
/// The benchmark name carries the backend label and the batch-size Arg,
/// so BENCH_latency.json sections read e.g. BM_BatchDetect/avx2/batch:32.
/// Compare against BM_Detection (the per-frame path) at batch:1-era cost.
void BM_BatchDetect(benchmark::State& state,
                    linalg::simd::Backend requested) {
  Shared& s = Shared::get();
  const vprofile::ScoringPlan plan(s.model, requested);
  if (plan.backend() != requested) {
    state.SkipWithError("requested backend unavailable on this host");
    return;
  }
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  vprofile::BatchScorer scorer(plan);
  std::vector<const vprofile::EdgeSet*> ptrs;
  ptrs.reserve(s.edge_sets.size());
  for (const vprofile::EdgeSet& es : s.edge_sets) ptrs.push_back(&es);
  std::vector<vprofile::Detection> out(ptrs.size());
  const vprofile::DetectionConfig dc{4.0};
  for (auto _ : state) {
    for (std::size_t i = 0; i < ptrs.size(); i += batch) {
      const std::size_t chunk = std::min(batch, ptrs.size() - i);
      scorer.detect(ptrs.data() + i, chunk, dc, out.data() + i);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * static_cast<std::int64_t>(ptrs.size())));
}
BENCHMARK_CAPTURE(BM_BatchDetect, scalar, linalg::simd::Backend::kScalar)
    ->ArgName("batch")
    ->Arg(8)
    ->Arg(32);
BENCHMARK_CAPTURE(BM_BatchDetect, avx2, linalg::simd::Backend::kAvx2)
    ->ArgName("batch")
    ->Arg(8)
    ->Arg(32);

void BM_DetectionEndToEnd(benchmark::State& state) {
  // Extraction + detection: the full per-message cost a deployment pays.
  Shared& s = Shared::get();
  const vprofile::DetectionConfig dc{4.0};
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& cap = s.captures[i % s.captures.size()];
    auto es = vprofile::extract_edge_set(cap.codes, s.extraction);
    if (es) {
      benchmark::DoNotOptimize(vprofile::detect(s.model, *es, dc));
    }
    ++i;
  }
}
BENCHMARK(BM_DetectionEndToEnd);

void BM_OnlineUpdate(benchmark::State& state) {
  Shared& s = Shared::get();
  vprofile::Model model = s.model;
  vprofile::OnlineUpdater updater(&model, 1u << 30);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        updater.update(s.edge_sets[i % s.edge_sets.size()]));
    ++i;
  }
}
BENCHMARK(BM_OnlineUpdate);

void BM_Training(benchmark::State& state) {
  Shared& s = Shared::get();
  const std::vector<vprofile::EdgeSet> sets(
      s.edge_sets.begin(),
      s.edge_sets.begin() +
          std::min<std::size_t>(s.edge_sets.size(), 800));
  vprofile::TrainingConfig cfg;
  cfg.metric = vprofile::DistanceMetric::kMahalanobis;
  cfg.extraction = s.extraction;
  const auto db = s.vehicle.database();
  for (auto _ : state) {
    benchmark::DoNotOptimize(vprofile::train_with_database(sets, db, cfg));
  }
}
BENCHMARK(BM_Training)->Unit(benchmark::kMillisecond);

/// ConsoleReporter that additionally lands every run in the bench JSON
/// report: one section per benchmark, wall_ns = adjusted real time per
/// iteration, so the BENCH_latency.json percentiles summarize the
/// distribution across the benchmarked stages.
class ReportingConsole : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      // GetAdjustedRealTime() is per-iteration time in run.time_unit.
      const double to_ns =
          1e9 / benchmark::GetTimeUnitMultiplier(run.time_unit);
      bench::report_section_ns(
          run.benchmark_name(),
          static_cast<std::uint64_t>(run.GetAdjustedRealTime() * to_ns),
          {{"iterations", static_cast<double>(run.iterations)},
           {"cpu_ns", run.GetAdjustedCPUTime() * to_ns}});
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  bench::open_report("latency");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ReportingConsole display;
  benchmark::RunSpecifiedBenchmarks(&display);
  benchmark::Shutdown();
  return 0;
}
