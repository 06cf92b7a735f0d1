// bus_burst: one unsupervised bus in the default `vprofile_monitor`
// shape.  A pipeline::DetectionPipeline with nproc - 1 workers (the
// generator takes the last core), default queue capacity and batch size.
//
// Closed loop, one generator thread, a fixed in-flight window of two full
// batches per worker: the next frame is offered when a slot frees, i.e.
// when the sink has seen an earlier frame's verdict.  Traffic is
// vehicle_a with the paper's 20% hijack share.  No wire and no
// supervisor: extraction, batched scoring and the ring-queue hand-off do
// all of the work.
#include <algorithm>
#include <memory>
#include <optional>
#include <semaphore>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "layers.hpp"
#include "ledger.hpp"
#include "obs/trace_span.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/attack.hpp"
#include "sim/presets.hpp"
#include "world.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kPool = 512;
constexpr std::size_t kTrainCaptures = 1000;
constexpr double kHijackShare = 0.2;
/// Frames copied out of the pool per untimed batch.
constexpr std::size_t kPrepFrames = 1024;
/// Timed wall time per unit of the median rates: short, so that a stall
/// of one worker (which holds every later verdict in the in-order
/// collector) spoils few units.
constexpr double kUnitSeconds = 0.01;
/// Frames per traced (and paired untraced) phase, before scaling.
constexpr std::size_t kPhaseFrames = 16384;

struct World {
  TrainingSet training;
  std::optional<vprofile::Model> model;  // trained at set-up
  std::vector<dsp::Trace> pool;
  std::vector<Outcome> expected;  // detect() verdict per pool capture
};

std::size_t default_workers() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 1 ? n - 1 : 1;
}

/// In-flight frames: two full batches per worker.
std::size_t window_frames(std::size_t workers) {
  return 2 * workers * pipeline::PipelineConfig{}.batch_size;
}

/// One pipeline driven through a closed-loop window.  Results are checked
/// in the sink against the pool's reference verdicts.
class Burst {
 public:
  Burst(const World& w, std::size_t workers, obs::Tracer* tracer,
        LatencyLog* latency)
      : w_(w),
        window_(window_frames(workers)),
        latency_(latency),
        slots_(static_cast<std::ptrdiff_t>(window_)),
        submit_ns_(window_),
        pool_index_(window_),
        pipe_(*w.model, config(workers, tracer),
              [this](pipeline::FrameResult&& r) { on_result(r); }) {}

  /// Offers `count` frames starting at pool position `next`, then waits
  /// until every one has its verdict.  Only the offering and the wait are
  /// timed; copying the captures out of the pool is not.
  void serve(std::size_t count, std::size_t* next, Stopwatch* watch) {
    std::vector<dsp::Trace> batch;
    std::vector<std::size_t> index;
    batch.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
      index.push_back((*next + k) % w_.pool.size());
      batch.push_back(w_.pool[index.back()]);
    }
    *next += count;
    watch->start();
    for (std::size_t k = 0; k < count; ++k) {
      slots_.acquire();
      const std::size_t slot = offered_ % window_;
      pool_index_[slot] = index[k];
      submit_ns_[slot] = now_ns();
      pipe_.submit(std::move(batch[k]));
      ++offered_;
    }
    for (std::size_t k = 0; k < window_; ++k) slots_.acquire();
    watch->stop();
    slots_.release(static_cast<std::ptrdiff_t>(window_));
  }

  void finish() { pipe_.finish(); }
  std::uint64_t offered() const { return offered_; }
  std::uint64_t verdicts() const { return verdicts_; }
  std::uint64_t mismatches() const { return mismatches_; }
  const std::string& first_mismatch() const { return first_mismatch_; }
  pipeline::CountersSnapshot counters() const { return pipe_.counters(); }

 private:
  static pipeline::PipelineConfig config(std::size_t workers,
                                         obs::Tracer* tracer) {
    pipeline::PipelineConfig pc;
    pc.num_workers = workers;
    pc.tracer = tracer;
    return pc;
  }

  // Runs on worker threads, serialized and in capture order.
  void on_result(const pipeline::FrameResult& r) {
    const std::size_t slot = r.seq % window_;
    if (latency_ != nullptr) latency_->add(now_ns() - submit_ns_[slot]);
    const Outcome got = outcome_of(r);
    const Outcome& want = w_.expected[pool_index_[slot]];
    if (got == want) {
      ++verdicts_;
    } else if (mismatches_++ == 0) {
      first_mismatch_ = "frame " + std::to_string(r.seq) + " (pool capture " +
                        std::to_string(pool_index_[slot]) + "): pipeline gave " +
                        to_string(got) + ", detect gives " + to_string(want);
    }
    slots_.release();
  }

  const World& w_;
  const std::size_t window_;
  LatencyLog* latency_;
  std::counting_semaphore<> slots_;
  std::vector<std::uint64_t> submit_ns_;
  std::vector<std::size_t> pool_index_;
  std::uint64_t offered_ = 0;
  // Written by the sink; read by the generator after it has taken back
  // every slot, which orders the reads after the writes.
  std::uint64_t verdicts_ = 0;
  std::uint64_t mismatches_ = 0;
  std::string first_mismatch_;
  pipeline::DetectionPipeline pipe_;  // last: its workers use the above
};

struct Phase {
  Stopwatch watch;
  std::uint64_t verdicts = 0;
  std::size_t high_watermark = 0;
};

/// Runs one pipeline for `seconds` of timed wall time or `frames` frames.
Phase run_phase(const World& w, std::size_t workers, double seconds,
                std::uint64_t frames, obs::Tracer* tracer,
                LatencyLog* latency, Report* report) {
  Phase p;
  Burst burst(w, workers, tracer, latency);
  std::size_t next = 0;
  std::uint64_t unit_verdicts = 0;
  while (seconds > 0.0 ? p.watch.wall_s() < seconds : burst.offered() < frames) {
    std::size_t count = kPrepFrames;
    if (seconds <= 0.0) {
      count = static_cast<std::size_t>(
          std::min<std::uint64_t>(count, frames - burst.offered()));
    }
    const std::uint64_t before = burst.verdicts();
    burst.serve(count, &next, &p.watch);
    unit_verdicts += burst.verdicts() - before;
    if (p.watch.unit_wall_s() >= kUnitSeconds) {
      p.watch.end_unit(unit_verdicts);
      if (latency != nullptr) latency->end_unit();
      unit_verdicts = 0;
    }
  }
  burst.finish();
  report->attempted += burst.offered();
  report->failed += burst.offered() - burst.verdicts();
  if (burst.mismatches() != 0) report->fail(burst.first_mismatch());
  p.verdicts = burst.verdicts();
  p.high_watermark = burst.counters().queue_high_watermark;
  return p;
}

World make_world(const Options& opt) {
  sim::Vehicle vehicle(sim::vehicle_a(), derive_seed(opt.seed, 21));
  World w{simulate_training(vehicle, kTrainCaptures),
          std::nullopt, {}, {}};
  w.pool = codes_of(sim::make_hijack_stream(vehicle, scaled(kPool, opt, 64),
                                            kHijackShare,
                                            analog::Environment::reference()));
  return w;
}

}  // namespace

void run_bus_burst(const Options& opt, Report& report) {
  World w = make_world(opt);
  const std::size_t workers = default_workers();

  std::vector<double> setup_s;
  std::vector<double> train_s;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const std::uint64_t t0 = now_ns();
    vprofile::Model model = train(w.training);
    const std::uint64_t t1 = now_ns();
    {
      pipeline::PipelineConfig pc;
      pc.num_workers = workers;
      pipeline::DetectionPipeline pipe(model, pc, [](pipeline::FrameResult&&) {});
      setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
    train_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    w.model.emplace(std::move(model));
  }
  const vprofile::DetectionConfig detection;
  for (const dsp::Trace& trace : w.pool) {
    w.expected.push_back(reference_outcome(*w.model, trace, detection));
  }

  report.fact("workload.shape",
              "closed loop, 1 generator thread, in-flight window " +
                  std::to_string(window_frames(workers)) +
                  " frames, pipeline workers " + std::to_string(workers));
  report.fact("workload.workers", std::to_string(workers));
  report.fact("pool.captures", std::to_string(w.pool.size()));
  report.fact("pool.training_captures", std::to_string(w.training.traces.size()));

  if (!opt.trace) {
    LatencyLog latency;
    const Phase p =
        run_phase(w, workers, opt.seconds, 0, nullptr, &latency, &report);
    end_to_end(p.watch, &latency, setup_s, &report);
    return;
  }

  // Traced run: phases of N workers untraced and traced in turn, then one
  // untraced 1-worker phase on the same pool for the speed-up.
  const std::uint64_t phase_frames = scaled(kPhaseFrames, opt, 256);
  TraceTotals totals;
  std::vector<double> untraced_fps;
  double timed_s = 0.0;
  double traced_wall_s = 0.0;
  std::size_t high_watermark = 0;
  do {
    const Phase u =
        run_phase(w, workers, 0.0, phase_frames, nullptr, nullptr, &report);
    totals.untraced_buses_per_core.push_back(
        buses_per_core(u.verdicts, u.watch.cpu_s()));
    untraced_fps.push_back(static_cast<double>(u.verdicts) / u.watch.wall_s());
    auto tracer = std::make_unique<obs::Tracer>(5 * phase_frames + 1024);
    const Phase t = run_phase(w, workers, 0.0, phase_frames, tracer.get(),
                              nullptr, &report);
    totals.traced_buses_per_core.push_back(
        buses_per_core(t.verdicts, t.watch.cpu_s()));
    totals.absorb(std::move(tracer));
    traced_wall_s += t.watch.wall_s();
    high_watermark = std::max(high_watermark, t.high_watermark);
    timed_s += u.watch.wall_s() + t.watch.wall_s();
  } while (timed_s < opt.seconds && report.correct());
  const Phase one = run_phase(w, 1, 0.0, phase_frames, nullptr, nullptr, &report);
  const double one_fps = static_cast<double>(one.verdicts) / one.watch.wall_s();

  pipeline_metrics(totals.spans, traced_wall_s * static_cast<double>(workers),
                   &report);
  report.add("pipeline.queue_high_watermark", static_cast<double>(high_watermark),
             "count");
  report.add("pipeline.speedup_vs_1_worker", median(untraced_fps) / one_fps,
             "ratio");
  core_probes(*w.model, w.pool, pipeline::PipelineConfig{}.batch_size, 0.2, &report);
  report.add("core.train_s", median(train_s), "s");
  totals.finish(opt.seed, &report);
  complete_per_layer(&report);
}

}  // namespace perfbench
