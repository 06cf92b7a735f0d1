// bus_adapt: one supervised bus in the `vprofile_monitor --service` shape.
// A lockstep runtime::Supervisor with online update, drift sentinel,
// gated updater, holdout validation, flight recorder and checkpoints,
// polled on a virtual clock after every frame.
//
// Closed loop, one generator thread, one frame in flight.  The traffic is
// a fixed session script: vehicle_b captures under a sawtooth drift ramp,
// with the paper's 20% SA-swap hijack frames arriving in bursts.  Each
// session starts a fresh supervisor on the trained model, so every
// session makes the same verdicts, drift alarms and promotions; sessions
// repeat until the timed budget is spent.  That keeps the behaviour
// counts exact across runs and lets one untimed scalar-kernel session
// serve as the reference for all of them.
//
// Each session runs with the whole process on one CPU (see OneCpu): the
// hop then costs a context switch, not a cross-CPU wake-up, whose cost in
// a shared virtual machine depends on how much CPU time the host is taking
// back at that moment.  Between sessions, untimed, the process moves to
// the next CPU it may use, so the run's median spans every CPU.
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "faults/fault.hpp"
#include "layers.hpp"
#include "ledger.hpp"
#include "linalg/simd_dispatch.hpp"
#include "obs/trace_span.hpp"
#include "runtime/supervisor.hpp"
#include "sim/attack.hpp"
#include "sim/presets.hpp"
#include "world.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kSessionFrames = 8192;
constexpr std::size_t kTrainCaptures = 1000;
constexpr std::size_t kBenignPool = 512;
constexpr std::size_t kHijackPool = 128;
/// Hijack bursts: the last 10 frames of every 50 (20%).
constexpr std::size_t kBurstPeriod = 50;
constexpr std::size_t kBurstFrames = 10;
/// Sawtooth drift: +kDriftMax codes over kDriftPeriod frames, then back
/// to zero (the tap recovers), so alarms, retrains and promotions recur.
constexpr std::size_t kDriftPeriod = 1024;
constexpr double kDriftMax = 30.0;
/// Frames prepared (drift applied) per untimed batch.
constexpr std::size_t kPrepFrames = 512;
constexpr std::uint64_t kTickNs = 1'000'000;
constexpr std::uint64_t kCheckpointEvery = 3000;

struct World {
  TrainingSet training;
  std::optional<vprofile::Model> model;  // trained at set-up
  std::vector<dsp::Trace> benign;
  std::vector<dsp::Trace> hijack;
  double max_code = 0.0;
  std::size_t session_frames = 0;
  std::string checkpoint_dir;
};

/// Drift and gate tuning follows the soak suite's drift-promotion scenario:
/// a margin and gate loose enough that drifted benign frames keep feeding
/// the retrain candidate, so drift ends in a promotion, not a rollback.
runtime::SupervisorConfig adapt_config(const World& w, obs::Tracer* tracer) {
  runtime::SupervisorConfig sc;
  sc.lockstep = true;
  sc.pipeline.num_workers = 1;
  sc.pipeline.tracer = tracer;
  sc.pipeline.detection.margin = 30.0;
  sc.online_update = true;
  sc.drift.delta = 0.25;
  sc.drift.lambda = 60.0;
  sc.drift.min_samples = 48;
  sc.gate.max_distance_fraction = 1.0;
  sc.retrain_batch = 48;
  sc.validation_window = 48;
  sc.validation_max_regressions = 6;
  sc.checkpoint_dir = w.checkpoint_dir;
  sc.checkpoint_every = kCheckpointEvery;
  sc.flight_recorder = true;
  sc.recorder.bus = "vehicle_b";
  return sc;
}

/// Frame `i` of the session script, drift applied.
dsp::Trace script_frame(const World& w, std::size_t i) {
  const bool hijack = i % kBurstPeriod >= kBurstPeriod - kBurstFrames;
  const std::size_t burst = i / kBurstPeriod;
  const dsp::Trace& src =
      hijack ? w.hijack[(burst * kBurstFrames + i % kBurstFrames) % w.hijack.size()]
             : w.benign[i % w.benign.size()];
  const double shift = kDriftMax * static_cast<double>(i % kDriftPeriod) /
                       static_cast<double>(kDriftPeriod);
  return faults::apply_slow_drift(src, shift, w.max_code);
}

struct Session {
  std::vector<Outcome> outcomes;
  std::uint64_t fingerprint = 0;
  runtime::SupervisorStats stats;
  std::uint64_t incidents = 0;
  std::uint64_t frames_before_promotion = 0;
};

/// One session.  `reference` runs it untimed and checks every frame
/// scored before the first promotion against detect() on the same trace.
Session run_session(const World& w, obs::Tracer* tracer, Stopwatch* watch,
                    LatencyLog* latency, bool reference, Report* report) {
  Session s;
  s.outcomes.reserve(w.session_frames);
  std::vector<Outcome> initial;  // detect() on frames the initial model scores
  runtime::Supervisor sup(
      *w.model, adapt_config(w, tracer),
      [&](const pipeline::FrameResult& r) { s.outcomes.push_back(outcome_of(r)); });
  const vprofile::DetectionConfig detection =
      adapt_config(w, nullptr).pipeline.detection;
  std::vector<dsp::Trace> batch;
  for (std::size_t start = 0; start < w.session_frames; start += kPrepFrames) {
    const std::size_t end = std::min(w.session_frames, start + kPrepFrames);
    batch.clear();
    for (std::size_t i = start; i < end; ++i) batch.push_back(script_frame(w, i));
    if (reference) {
      for (std::size_t k = 0; k < batch.size(); ++k) {
        if (sup.stats().promotions == 0) {
          initial.push_back(reference_outcome(*w.model, batch[k], detection));
        }
        sup.submit(batch[k]);
        sup.poll((start + k + 1) * kTickNs);
      }
      continue;
    }
    watch->start();
    for (std::size_t k = 0; k < batch.size(); ++k) {
      const std::uint64_t t0 = now_ns();
      {
        obs::TraceSpan span(tracer, "runtime.submit");
        sup.submit(std::move(batch[k]));
      }
      latency->add(now_ns() - t0);
      obs::TraceSpan span(tracer, "runtime.poll");
      sup.poll((start + k + 1) * kTickNs);
    }
    watch->stop();
  }
  if (watch != nullptr) watch->start();
  {
    obs::TraceSpan span(tracer, "runtime.finish");
    sup.finish();
  }
  if (watch != nullptr) watch->stop();
  // The sink runs on the worker after submit() has returned; its records
  // are only read once finish() has joined the worker.
  for (std::size_t i = 0; i < initial.size(); ++i) {
    if (i >= s.outcomes.size() || !(s.outcomes[i] == initial[i])) {
      ++report->failed;
      report->fail("frame " + std::to_string(i) + ": supervisor gave " +
                   (i < s.outcomes.size() ? to_string(s.outcomes[i])
                                          : std::string("no verdict")) +
                   ", detect gives " + to_string(initial[i]));
    }
  }
  s.frames_before_promotion = initial.size();
  s.fingerprint = sup.fingerprint();
  s.stats = sup.stats();
  s.incidents = sup.flight_recorder()->incidents_emitted();
  return s;
}

/// A timed session must repeat the reference session verdict for verdict.
void check_session(const Session& got, const Session& want, std::size_t index,
                   Report* report) {
  const std::string where = "session " + std::to_string(index);
  for (std::size_t i = 0; i < want.outcomes.size(); ++i) {
    if (i >= got.outcomes.size()) {
      report->failed += want.outcomes.size() - i;
      report->fail(where + " frame " + std::to_string(i) + ": no verdict");
      return;
    }
    if (!(got.outcomes[i] == want.outcomes[i])) {
      ++report->failed;
      report->fail(where + " frame " + std::to_string(i) + ": got " +
                   to_string(got.outcomes[i]) + ", scalar reference " +
                   to_string(want.outcomes[i]));
    }
  }
  if (got.fingerprint != want.fingerprint) {
    report->fail(where + ": supervisor fingerprint differs from the scalar "
                         "reference");
  }
}

World make_world(const Options& opt) {
  sim::Vehicle vehicle(sim::vehicle_b(), derive_seed(opt.seed, 11));
  World w{simulate_training(vehicle, kTrainCaptures),
          std::nullopt, {}, {}, 0.0, scaled(kSessionFrames, opt, 4096), ""};
  const analog::Environment env = analog::Environment::reference();
  w.benign = codes_of(sim::make_normal_stream(vehicle, scaled(kBenignPool, opt, 64), env));
  w.hijack = codes_of(
      sim::make_hijack_stream(vehicle, scaled(kHijackPool, opt, 16), 1.0, env));
  w.max_code = vehicle.config().adc.max_code();
  w.checkpoint_dir = scratch_dir(opt, "bus_adapt-checkpoints");
  return w;
}

}  // namespace

void run_bus_adapt(const Options& opt, Report& report) {
  OneCpu pin;
  report.fact("workload.cpu", "one at a time, the next allowed CPU per session");
  World w = make_world(opt);
  report.fact("workload.shape",
              "closed loop, 1 generator thread, 1 frame in flight, lockstep "
              "supervisor, online update + recorder + checkpoints");
  report.fact("workload.session_frames", std::to_string(w.session_frames));
  report.fact("pool.captures", std::to_string(w.benign.size()) + " benign, " +
                                   std::to_string(w.hijack.size()) + " hijack");
  report.fact("pool.training_captures", std::to_string(w.training.traces.size()));

  std::vector<double> setup_s;
  std::vector<double> train_s;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const std::uint64_t t0 = now_ns();
    vprofile::Model model = train(w.training);
    const std::uint64_t t1 = now_ns();
    {
      runtime::Supervisor sup(model, adapt_config(w, nullptr));
      setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      sup.finish();  // not set-up: drains and commits the final checkpoint
    }
    train_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    w.model.emplace(std::move(model));
  }

  linalg::simd::set_force_scalar_override(1);
  const Session ref = run_session(w, nullptr, nullptr, nullptr, true, &report);
  linalg::simd::set_force_scalar_override(-1);
  if (ref.stats.drift_alarms == 0 || ref.stats.candidates_started == 0 ||
      ref.stats.promotions == 0) {
    report.fail("session script produced no drift alarm, candidate or "
                "promotion; the workload does not exercise model updates");
  }
  report.fact("workload.frames_before_first_promotion",
              std::to_string(ref.frames_before_promotion));

  Stopwatch watch;
  LatencyLog latency;
  std::size_t sessions = 0;
  TraceTotals totals;
  auto run_checked = [&](obs::Tracer* tracer, Stopwatch* sw) {
    pin.next();
    const Session s = run_session(w, tracer, sw, &latency, false, &report);
    sw->end_unit(s.outcomes.size());
    latency.end_unit();
    report.attempted += w.session_frames;
    check_session(s, ref, sessions++, &report);
    return s;
  };
  if (!opt.trace) {
    while (watch.wall_s() < opt.seconds && report.correct()) {
      run_checked(nullptr, &watch);
    }
    std::filesystem::remove_all(w.checkpoint_dir);
    report.fact("workload.sessions", std::to_string(sessions));
    end_to_end(watch, &latency, setup_s, &report);
    return;
  }

  // Traced run: sessions untraced and traced in turn.
  double timed_s = 0.0;
  std::uint64_t traced_frames = 0;
  double traced_wall_s = 0.0;
  Session traced;
  do {
    Stopwatch plain;
    const Session u = run_checked(nullptr, &plain);
    totals.untraced_buses_per_core.push_back(
        buses_per_core(u.outcomes.size(), plain.cpu_s()));
    auto tracer = std::make_unique<obs::Tracer>();
    Stopwatch sw;
    traced = run_checked(tracer.get(), &sw);
    totals.traced_buses_per_core.push_back(
        buses_per_core(traced.outcomes.size(), sw.cpu_s()));
    totals.absorb(std::move(tracer));
    traced_frames += traced.outcomes.size();
    traced_wall_s += sw.wall_s();
    timed_s += plain.wall_s() + sw.wall_s();
  } while (timed_s < opt.seconds && report.correct());
  std::filesystem::remove_all(w.checkpoint_dir);

  const SpanLedger& spans = totals.spans;
  report.add("runtime.submit_self_ns_per_frame",
             self_ns_per(spans, "runtime.submit", traced_frames), "ns");
  const auto poll = spans.find("runtime.poll");
  report.add("runtime.poll_ns_p99",
             poll == spans.end()
                 ? 0.0
                 : static_cast<double>(exact_quantile(poll->second.durations_ns, 0.99)),
             "ns");
  report.add("runtime.finish_ms", mean_ns(spans, "runtime.finish") * 1e-6, "ms");
  runtime_counts(traced.stats, traced.incidents, &report);
  pipeline_metrics(spans, traced_wall_s, &report);
  core_probes(*w.model, w.benign, pipeline::PipelineConfig{}.batch_size, 0.2, &report);
  report.add("core.train_s", median(train_s), "s");
  totals.finish(opt.seed, &report);
  complete_per_layer(&report);
}

}  // namespace perfbench
