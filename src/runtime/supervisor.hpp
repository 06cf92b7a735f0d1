// Self-healing supervision around pipeline::FrameScorer.
//
// The scorer turns traces into verdicts; the supervisor keeps the
// *monitor* alive and the *model* honest across hours of unattended
// operation:
//
//  * Watchdog — judges liveness from handled-frame progress on an
//    externally supplied clock (poll(now_ns)).  A planned worker stall
//    (faults::WorkerStallPlan) parks its frame, and every frame offered
//    after it, in a backlog; a watchdog restart or give-up emits the
//    stalled frame as a worker_error and scores the backlog in order.
//    Restarts back off exponentially up to a budget.
//  * Drift sentinel — Page–Hinkley over per-cluster distance streams;
//    an alarm escalates healthy -> drifting and starts a retrain
//    candidate.
//  * Guarded retraining — gate-accepted (Algorithm 4 + verdict gate)
//    edge sets fold into a *copy* of the live model; when the batch is
//    full the candidate must re-classify a held-back window of recent
//    benign frames without regressions before it is promoted.  Promotion
//    swaps the model and rebuilds the scoring plan at the next control
//    point; regression rolls the candidate back and degrades health
//    instead.
//  * Checkpointing — the live model is committed to a CheckpointStore
//    periodically, at promotion, and at shutdown; load() recovers to
//    last-good when the latest checkpoint is corrupt.
//  * Overload governor — when the backlog behind a stalled frame crosses
//    the high-water mark the supervisor sheds load deterministically
//    (keep 1 of every decimation_stride frames) until it falls below the
//    low-water mark.
//
// Threading contract: the supervisor owns no threads.  One producer thread
// calls submit()/poll()/finish(); each frame is scored on that thread and
// its result handled — and forwarded to the caller's sink, in capture
// order — before submit() returns, unless a planned stall holds it in the
// backlog, which then drains on the poll() or finish() that releases the
// stall.  The entire supervised run — verdicts, promotions, restarts — is
// therefore a pure function of (model, config, input stream, poll clock):
// the soak harness's bit-identical-fingerprint guarantee.  health(),
// stats(), pipeline_counters(), fingerprint() and trigger_incident() may
// be called from any thread (status endpoints, fleet snapshots).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/online_update.hpp"
#include "faults/runtime_fault.hpp"
#include "obs/flight_recorder.hpp"
#include "pipeline/pipeline.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/drift_sentinel.hpp"
#include "runtime/watchdog.hpp"

namespace obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace obs

namespace runtime {

struct SupervisorConfig {
  /// Scoring settings.  A supervisor reads only `detection`,
  /// `keep_edge_set` (forced on while online updates are enabled),
  /// `metrics` and `tracer`; the worker, queue, batch and stage_hook
  /// fields do not apply to inline scoring.
  pipeline::PipelineConfig pipeline;
  WatchdogConfig watchdog;
  DriftConfig drift;
  vprofile::GatedUpdateConfig gate;

  /// Checkpoint directory; empty disables checkpointing.
  std::string checkpoint_dir;
  /// Commit every N handled frames (0 = only at promotion and finish()).
  std::uint64_t checkpoint_every = 0;

  /// Master switch for the drift -> retrain -> promote loop.
  bool online_update = true;
  /// Gate-accepted edge sets per retrain candidate.
  std::size_t retrain_batch = 128;
  /// Held-back recent benign frames the candidate must re-classify.
  std::size_t validation_window = 64;
  /// 1-in-N holdout split: every N-th gate-eligible benign frame is held
  /// back for the validation window INSTEAD of being offered to the
  /// candidate, keeping validation disjoint from the update stream (a
  /// window the candidate has already absorbed cannot expose it).  0 is
  /// normalized to 1; 1 holds back everything, starving the candidate.
  std::size_t validation_holdout_stride = 4;
  /// Candidate anomalies allowed on that window before rollback.
  std::size_t validation_max_regressions = 0;

  /// Overload governor over the backlog behind a stalled frame;
  /// high_water 0 disables.  While active, only every decimation_stride-th
  /// offered frame is forwarded.
  std::size_t governor_high_water = 0;
  std::size_t governor_low_water = 0;
  std::size_t decimation_stride = 2;

  /// No effect: every frame is handled before submit() returns (see the
  /// threading contract).  Kept for callers that still set it.
  bool lockstep = false;
  /// Injected runtime failures (soak harness).  Stall plans are keyed on
  /// the supervisor's global frame index.
  faults::RuntimeFaultPlan fault_plan;

  /// Flight recorder: per-frame evidence ring + freeze-on-trigger
  /// incident bundles (obs/flight_recorder.hpp).  Sizing, incident_dir
  /// and the manifest come from `recorder`; the supervisor itself wires
  /// the verdict/extract-error name tables, the context callback, and —
  /// unless `recorder` already sets them — the pipeline's metrics
  /// registry and tracer.  Triggers: anomalous/degraded verdicts, drift
  /// alarms, watchdog restarts, retrain rollbacks, governor activation,
  /// and trigger_incident().
  bool flight_recorder = false;
  obs::FlightRecorderConfig recorder;
};

struct SupervisorStats {
  std::uint64_t frames_offered = 0;    // submit() calls
  std::uint64_t frames_submitted = 0;  // forwarded to scoring
  std::uint64_t frames_decimated = 0;  // shed by the governor
  std::uint64_t frames_handled = 0;    // results seen (ordered)
  std::uint64_t worker_errors = 0;
  std::uint64_t restarts = 0;
  std::uint64_t stalls_detected = 0;
  std::uint64_t drift_alarms = 0;
  std::uint64_t candidates_started = 0;
  std::uint64_t promotions = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t checkpoints_committed = 0;
  vprofile::GatedUpdateStats gate;
};

class Supervisor {
 public:
  /// Called on the producer thread, in capture order, with every handled
  /// result; result.seq carries the supervisor's global frame index.  Runs
  /// without the supervisor's lock, so it may call the accessors.
  using ResultSink = std::function<void(const pipeline::FrameResult&)>;

  Supervisor(vprofile::Model model, SupervisorConfig config,
             ResultSink sink = nullptr);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Offers one trace.  Returns the frame's global index, or std::nullopt
  /// when the governor shed it or intake has finished.  Single producer.
  std::optional<std::uint64_t> submit(dsp::Trace trace);

  /// Supervision tick on the caller's clock (virtual or wall).  Runs the
  /// watchdog (which may drain a stalled backlog) and applies any pending
  /// promotion / checkpoint.
  void poll(std::uint64_t now_ns);

  /// Drains the backlog, applies pending control actions, commits the
  /// final checkpoint.  Idempotent.
  void finish();

  HealthState health() const;
  const vprofile::Model& model() const { return *model_; }
  SupervisorStats stats() const;
  /// Operator-requested incident (signal handler, status endpoint, CLI).
  /// Any thread; `detail` must have static storage duration.  No-op
  /// without a flight recorder.
  void trigger_incident(const char* detail);
  /// The flight recorder, or null when config.flight_recorder is off.
  obs::FlightRecorder* flight_recorder() { return recorder_.get(); }
  const obs::FlightRecorder* flight_recorder() const {
    return recorder_.get();
  }
  /// Counters of every frame forwarded to scoring.
  pipeline::CountersSnapshot pipeline_counters() const;
  /// Order-exact digest of every handled result (verdict, distance bits)
  /// plus the shed-frame count — the soak harness's equivalence check.
  std::uint64_t fingerprint() const;

 private:
  /// Scores one frame on the caller's thread and handles its result.
  void score_and_handle(pipeline::Frame&& frame);
  void handle(pipeline::FrameResult&& result);
  /// True when an unspent planned stall names frame `seq`.
  bool stall_planned(std::uint64_t seq) const;
  /// Spends every planned stall already reached and empties the backlog:
  /// the stalled frame becomes a worker_error, the rest score in order.
  void drain_backlog();
  /// Applies pending promotion / checkpoint decisions.  Must be called
  /// without mu_ held.
  void apply_control();
  /// Swaps in a promoted model and rebuilds the scoring plan.  Call with
  /// an empty backlog and without mu_ held.
  void install_model(vprofile::Model model);
  void validate_candidate_locked();
  /// Bundle "context" object: detection config, deterministic counters,
  /// supervisor stats.  Takes mu_; call without it held.
  std::string context_json() const;

  SupervisorConfig config_;
  ResultSink sink_;
  std::unique_ptr<const vprofile::Model> model_;
  pipeline::Counters counters_;
  /// Scoring operands for model_, rebuilt at promotion; the scorer
  /// borrows plan_, config_.pipeline and counters_.
  std::optional<vprofile::ScoringPlan> plan_;
  std::optional<pipeline::FrameScorer> scorer_;
  Watchdog watchdog_;
  DriftSentinel sentinel_;
  std::optional<CheckpointStore> store_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  /// Caller's clock from the last poll(); stamps evidence records, so
  /// under a virtual clock the records stay deterministic.
  std::atomic<std::uint64_t> last_poll_ns_{0};

  // Producer-thread state (never read elsewhere, so not under mu_).
  /// Global index of the next forwarded frame.
  std::uint64_t next_seq_ = 0;
  /// One flag per config_.fault_plan.stalls entry: reached and released.
  std::vector<bool> stall_spent_;
  /// A stalled frame and every frame offered after it, in order.
  std::deque<pipeline::Frame> backlog_;

  mutable std::mutex mu_;
  std::uint64_t fingerprint_ = 0xcbf29ce484222325ULL;
  HealthState health_ = HealthState::kHealthy;
  bool finished_ = false;
  bool governor_active_ = false;
  std::uint64_t decimation_counter_ = 0;

  /// Retrain candidate (unique_ptr: GatedUpdater keeps a stable Model*).
  std::unique_ptr<vprofile::Model> candidate_;
  std::unique_ptr<vprofile::GatedUpdater> gated_;
  std::deque<vprofile::EdgeSet> validation_window_;
  std::uint64_t holdout_tick_ = 0;
  std::optional<vprofile::Model> pending_promotion_;
  bool checkpoint_due_ = false;

  SupervisorStats stats_;
  vprofile::GatedUpdateStats gate_accum_;  // completed candidates' gate stats

  struct Instruments {
    obs::Counter* submitted = nullptr;
    obs::Counter* decimated = nullptr;
    obs::Counter* promotions = nullptr;
    obs::Counter* rollbacks = nullptr;
    obs::Counter* checkpoints = nullptr;
    obs::Counter* drift_alarms = nullptr;
    obs::Gauge* health = nullptr;
    obs::Gauge* governor_active = nullptr;
  } instruments_;
};

}  // namespace runtime
