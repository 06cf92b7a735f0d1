#include "runtime/supervisor.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <utility>

#include "core/detector.hpp"
#include "core/extractor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "pipeline/counters.hpp"

namespace runtime {
namespace {

/// FNV-1a fold (determinism, not cryptography) — same discipline as the
/// scenario fingerprints: run-to-run comparison only, never golden
/// constants.
std::uint64_t fnv1a_u64(std::uint64_t hash, std::uint64_t value) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
  for (std::size_t i = 0; i < sizeof(value); ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// One code per way a frame can end, for the fingerprint.
std::uint64_t outcome_code(const pipeline::FrameResult& r) {
  if (r.dropped) return 1;
  if (r.worker_error) return 2;
  if (r.extract_error != vprofile::ExtractError::kNone) {
    return 16 + static_cast<std::uint64_t>(r.extract_error);
  }
  return 32 + static_cast<std::uint64_t>(r.detection->verdict);
}

void add_gate_stats(vprofile::GatedUpdateStats& into,
                    const vprofile::GatedUpdateStats& from) {
  into.accepted += from.accepted;
  into.rejected_verdict += from.rejected_verdict;
  into.rejected_margin += from.rejected_margin;
  into.refused_by_updater += from.refused_by_updater;
}

/// Verdict-code -> name table for the flight recorder (obs/ renders
/// producer enums through tables so it never depends on the detector).
const char* const* verdict_name_table() {
  static const std::array<const char*, vprofile::kNumVerdicts> table = [] {
    std::array<const char*, vprofile::kNumVerdicts> t{};
    for (std::size_t i = 0; i < t.size(); ++i) {
      t[i] = vprofile::to_string(static_cast<vprofile::Verdict>(i));
    }
    return t;
  }();
  return table.data();
}

const char* const* extract_error_name_table() {
  static const std::array<const char*, pipeline::kNumExtractErrors> table =
      [] {
        std::array<const char*, pipeline::kNumExtractErrors> t{};
        for (std::size_t i = 0; i < t.size(); ++i) {
          t[i] = vprofile::to_string(static_cast<vprofile::ExtractError>(i));
        }
        return t;
      }();
  return table.data();
}

/// Shortest round-trippable rendering; non-finite values become quoted
/// strings ("inf"/"-inf"/"nan") so bundle context stays valid JSON — the
/// same convention the flight recorder uses for evidence features.
void append_json_double(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "\"nan\"";
    return;
  }
  if (std::isinf(v)) {
    out += std::signbit(v) ? "\"-inf\"" : "\"inf\"";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_json_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

/// Flattens one handled result into the recorder's fixed-size row.
obs::EvidenceRecord make_evidence(const pipeline::FrameResult& r,
                                  std::uint64_t tick_ns,
                                  std::uint32_t generation) {
  obs::EvidenceRecord rec;
  rec.seq = r.seq;
  rec.tick_ns = tick_ns;
  rec.sa = r.sa;
  rec.dropped = r.dropped;
  rec.worker_error = r.worker_error;
  rec.extract_error = static_cast<std::uint8_t>(r.extract_error);
  rec.model_generation = generation;
  if (r.detection.has_value()) {
    const vprofile::Detection& det = *r.detection;
    rec.verdict = static_cast<std::uint8_t>(det.verdict);
    rec.min_distance = det.min_distance;
    rec.confidence = det.confidence;
    if (det.expected_cluster.has_value()) {
      rec.expected_cluster = static_cast<std::int32_t>(*det.expected_cluster);
    }
    if (det.predicted_cluster.has_value()) {
      rec.predicted_cluster = static_cast<std::int32_t>(*det.predicted_cluster);
    }
  }
  if (r.edge_set.has_value()) {
    const std::size_t dim =
        std::min(r.edge_set->samples.size(), obs::kMaxEvidenceDim);
    rec.dim = static_cast<std::uint16_t>(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      rec.features[i] = r.edge_set->samples[i];
    }
  }
  return rec;
}

}  // namespace

Supervisor::Supervisor(vprofile::Model model, SupervisorConfig config,
                       ResultSink sink)
    : config_(std::move(config)),
      sink_(std::move(sink)),
      model_(std::make_unique<const vprofile::Model>(std::move(model))),
      watchdog_(config_.watchdog),
      sentinel_(model_->clusters().size(), config_.drift),
      stall_spent_(config_.fault_plan.stalls.size(), false) {
  if (config_.online_update) config_.pipeline.keep_edge_set = true;
  config_.pipeline.stage_hook = nullptr;
  if (config_.validation_holdout_stride == 0) {
    config_.validation_holdout_stride = 1;
  }
  if (!config_.checkpoint_dir.empty()) {
    store_.emplace(config_.checkpoint_dir);
  }
  if (obs::MetricsRegistry* reg = config_.pipeline.metrics) {
    watchdog_.bind_metrics(reg);
    instruments_.submitted = reg->counter("frames_submitted_total");
    instruments_.decimated = reg->counter("runtime_frames_decimated_total");
    instruments_.promotions = reg->counter("runtime_promotions_total");
    instruments_.rollbacks = reg->counter("runtime_rollbacks_total");
    instruments_.checkpoints = reg->counter("runtime_checkpoints_total");
    instruments_.drift_alarms = reg->counter("runtime_drift_alarms_total");
    // vprofile-lint: allow(metric-name) — enum-valued state, unitless
    instruments_.health = reg->gauge("runtime_health_state");
    // vprofile-lint: allow(metric-name) — boolean gauge, unitless
    instruments_.governor_active = reg->gauge("runtime_governor_active");
  }
  if (config_.flight_recorder) {
    obs::FlightRecorderConfig rc = config_.recorder;
    rc.verdict_names = verdict_name_table();
    rc.num_verdicts = vprofile::kNumVerdicts;
    rc.extract_error_names = extract_error_name_table();
    rc.num_extract_errors = pipeline::kNumExtractErrors;
    if (rc.metrics == nullptr) rc.metrics = config_.pipeline.metrics;
    if (rc.tracer == nullptr) rc.tracer = config_.pipeline.tracer;
    rc.context_json = [this] { return context_json(); };
    recorder_ = std::make_unique<obs::FlightRecorder>(std::move(rc));
  }
  plan_.emplace(*model_);
  scorer_.emplace(*plan_, config_.pipeline, counters_);
}

Supervisor::~Supervisor() { finish(); }

void Supervisor::score_and_handle(pipeline::Frame&& frame) {
  pipeline::FrameResult result;
  scorer_->score(&frame, 1, &result);
  // The result path keeps the span name a pipeline worker gives it.
  obs::TraceSpan span(config_.pipeline.tracer, "pipeline.collect");
  handle(std::move(result));
}

void Supervisor::handle(pipeline::FrameResult&& result) {
  const std::uint64_t global = result.seq;
  bool drift_alarm = false;
  std::uint32_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    generation = static_cast<std::uint32_t>(stats_.promotions);
    ++stats_.frames_handled;
    fingerprint_ = fnv1a_u64(fingerprint_, global);
    fingerprint_ = fnv1a_u64(fingerprint_, outcome_code(result));
    if (result.worker_error) ++stats_.worker_errors;
    if (result.ok()) {
      const vprofile::Detection& det = *result.detection;
      fingerprint_ = fnv1a_u64(
          fingerprint_, std::bit_cast<std::uint64_t>(det.min_distance));
      if (det.expected_cluster && !det.is_degraded()) {
        if (sentinel_.observe(*det.expected_cluster, det.min_distance)) {
          drift_alarm = true;
          ++stats_.drift_alarms;
          if (instruments_.drift_alarms != nullptr) {
            instruments_.drift_alarms->add();
          }
          if (config_.online_update && health_ == HealthState::kHealthy) {
            health_ = HealthState::kDrifting;
            candidate_ = std::make_unique<vprofile::Model>(*model_);
            gated_ = std::make_unique<vprofile::GatedUpdater>(
                candidate_.get(), config_.gate);
            ++stats_.candidates_started;
          }
        }
      }
      if (config_.online_update && det.verdict == vprofile::Verdict::kOk &&
          result.edge_set) {
        // Holdout split: window frames and update frames are disjoint, so
        // validation exercises data the candidate has never absorbed.
        const bool held_out =
            holdout_tick_++ % config_.validation_holdout_stride == 0;
        if (held_out) {
          validation_window_.push_back(*result.edge_set);
          while (validation_window_.size() > config_.validation_window) {
            validation_window_.pop_front();
          }
        } else if (gated_ != nullptr) {
          gated_->consider(*result.edge_set, det);
          if (gated_->stats().accepted >= config_.retrain_batch) {
            validate_candidate_locked();
          }
        }
      }
    }
    if (config_.checkpoint_every != 0 && store_.has_value() &&
        stats_.frames_handled % config_.checkpoint_every == 0) {
      checkpoint_due_ = true;
    }
  }
  if (recorder_ != nullptr) {
    // Outside mu_: record() is lock-free but an armed trigger may emit a
    // bundle here, and bundle context re-enters the supervisor's locked
    // accessors.  Results are handled on the producer thread only, so the
    // recorder's single-writer contract holds.
    recorder_->record(make_evidence(
        result, last_poll_ns_.load(std::memory_order_relaxed), generation));
    if (result.detection.has_value() && result.detection->is_anomaly()) {
      const bool degraded = result.detection->is_degraded();
      recorder_->request_trigger(
          degraded ? obs::IncidentCause::kDegradedVerdict
                   : obs::IncidentCause::kAnomalyVerdict,
          global,
          verdict_name_table()[static_cast<std::size_t>(
              result.detection->verdict)]);
    }
    if (drift_alarm) {
      recorder_->request_trigger(obs::IncidentCause::kDriftAlarm, global,
                                 "drift sentinel alarm");
    }
  }
  if (sink_) sink_(result);
}

void Supervisor::validate_candidate_locked() {
  // The candidate earned a promotion attempt; it must re-classify the
  // held-out benign window without regressions.  The live model called
  // every one of these frames kOk when it stored them, and the holdout
  // split guarantees the candidate never absorbed any of them, so an
  // anomaly here is the candidate's doing.
  std::size_t regressions = 0;
  const vprofile::DetectionConfig& dc = config_.pipeline.detection;
  for (const vprofile::EdgeSet& es : validation_window_) {
    if (vprofile::detect(*candidate_, es, dc).is_anomaly()) ++regressions;
  }
  if (regressions <= config_.validation_max_regressions) {
    pending_promotion_ = std::move(*candidate_);
    health_ = HealthState::kRetraining;  // promotion lands at the next
                                         // control point
  } else {
    ++stats_.rollbacks;
    if (instruments_.rollbacks != nullptr) instruments_.rollbacks->add();
    health_ = HealthState::kDegraded;
    if (recorder_ != nullptr) {
      // Arming is one CAS — safe under mu_ (never blocks or re-enters).
      recorder_->request_trigger(obs::IncidentCause::kRetrainRollback,
                                 stats_.frames_handled,
                                 "candidate validation regressions");
    }
  }
  add_gate_stats(gate_accum_, gated_->stats());
  candidate_.reset();
  gated_.reset();
}

std::optional<std::uint64_t> Supervisor::submit(dsp::Trace trace) {
  apply_control();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (finished_) return std::nullopt;
    ++stats_.frames_offered;
    if (config_.governor_high_water != 0) {
      // Depth of the backlog behind the stalled frame (0 when none).
      const std::size_t depth = backlog_.empty() ? 0 : backlog_.size() - 1;
      if (!governor_active_ && depth >= config_.governor_high_water) {
        governor_active_ = true;
        if (recorder_ != nullptr) {
          recorder_->request_trigger(obs::IncidentCause::kOverloadShed,
                                     stats_.frames_offered,
                                     "governor high-water crossed");
        }
      } else if (governor_active_ && depth <= config_.governor_low_water) {
        governor_active_ = false;
      }
      if (instruments_.governor_active != nullptr) {
        instruments_.governor_active->set(governor_active_ ? 1 : 0);
      }
      if (governor_active_) {
        const std::uint64_t tick = decimation_counter_++;
        if (config_.decimation_stride == 0 ||
            tick % config_.decimation_stride != 0) {
          ++stats_.frames_decimated;
          if (instruments_.decimated != nullptr) instruments_.decimated->add();
          return std::nullopt;
        }
      }
    }
    ++stats_.frames_submitted;
  }
  counters_.add_submitted();
  if (instruments_.submitted != nullptr) instruments_.submitted->add();
  pipeline::Frame frame{next_seq_++, std::move(trace), 0};
  const std::uint64_t global = frame.seq;
  if (backlog_.empty() && !stall_planned(global)) {
    score_and_handle(std::move(frame));
  } else {
    backlog_.push_back(std::move(frame));
  }
  apply_control();
  return global;
}

bool Supervisor::stall_planned(std::uint64_t seq) const {
  for (std::size_t i = 0; i < stall_spent_.size(); ++i) {
    if (!stall_spent_[i] && config_.fault_plan.stalls[i].frame_index == seq) {
      return true;
    }
  }
  return false;
}

void Supervisor::drain_backlog() {
  // Every stall whose frame was already forwarded is spent, so frames
  // behind the stalled one score normally; stalls for frames not yet
  // forwarded stay armed.
  for (std::size_t i = 0; i < stall_spent_.size(); ++i) {
    if (config_.fault_plan.stalls[i].frame_index < next_seq_) {
      stall_spent_[i] = true;
    }
  }
  if (backlog_.empty()) return;
  handle(scorer_->abandon(backlog_.front().seq));
  backlog_.pop_front();
  while (!backlog_.empty()) {
    pipeline::Frame frame = std::move(backlog_.front());
    backlog_.pop_front();
    score_and_handle(std::move(frame));
  }
}

void Supervisor::poll(std::uint64_t now_ns) {
  last_poll_ns_.store(now_ns, std::memory_order_relaxed);
  apply_control();
  Watchdog::Action action = Watchdog::Action::kNone;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (finished_) return;
    action = watchdog_.poll(now_ns, stats_.frames_handled, !backlog_.empty());
    if (action != Watchdog::Action::kNone) ++stats_.stalls_detected;
    if (action == Watchdog::Action::kGiveUp) {
      health_ = HealthState::kDegraded;
    }
  }
  if (action == Watchdog::Action::kRestart ||
      action == Watchdog::Action::kGiveUp) {
    // Either way the stalled frame is given up and the backlog scored;
    // give-up additionally pins health at degraded.
    drain_backlog();
    watchdog_.notify_restarted(now_ns);
    std::uint64_t handled = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.restarts;
      handled = stats_.frames_handled;
    }
    if (recorder_ != nullptr) {
      recorder_->request_trigger(obs::IncidentCause::kWatchdogRestart, handled,
                                 action == Watchdog::Action::kGiveUp
                                     ? "watchdog gave up"
                                     : "watchdog restart");
    }
  }
}

void Supervisor::trigger_incident(const char* detail) {
  if (recorder_ == nullptr) return;
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seq = stats_.frames_handled;
  }
  recorder_->request_trigger(obs::IncidentCause::kOperator, seq,
                             detail != nullptr ? detail : "operator request");
}

void Supervisor::install_model(vprofile::Model model) {
  scorer_.reset();
  plan_.reset();
  {
    std::lock_guard<std::mutex> lock(mu_);
    model_ = std::make_unique<const vprofile::Model>(std::move(model));
    sentinel_.reset_all();
    validation_window_.clear();
    if (health_ != HealthState::kDegraded) health_ = HealthState::kHealthy;
    ++stats_.promotions;
  }
  if (instruments_.promotions != nullptr) instruments_.promotions->add();
  plan_.emplace(*model_);
  scorer_.emplace(*plan_, config_.pipeline, counters_);
}

void Supervisor::apply_control() {
  std::optional<vprofile::Model> promote;
  bool checkpoint = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_promotion_.has_value()) {
      promote = std::move(pending_promotion_);
      pending_promotion_.reset();
    }
    if (checkpoint_due_) {
      checkpoint = true;
      checkpoint_due_ = false;
    }
  }
  if (promote.has_value()) {
    // Frames already forwarded are handled by the model that was live
    // when they arrived.
    drain_backlog();
    install_model(std::move(*promote));
    checkpoint = true;  // a promoted model is immediately made durable
  }
  if (checkpoint && store_.has_value()) {
    std::string error;
    if (store_->commit(*model_, &error)) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.checkpoints_committed;
      if (instruments_.checkpoints != nullptr) instruments_.checkpoints->add();
    }
  }
  if (instruments_.health != nullptr) {
    instruments_.health->set(static_cast<std::int64_t>(health()));
  }
}

void Supervisor::finish() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (finished_) return;
  }
  apply_control();
  drain_backlog();
  std::optional<vprofile::Model> promote;
  {
    std::lock_guard<std::mutex> lock(mu_);
    finished_ = true;
    // A promotion decided by the very last frames still lands.
    if (pending_promotion_.has_value()) {
      promote = std::move(pending_promotion_);
      pending_promotion_.reset();
    }
  }
  if (promote.has_value()) install_model(std::move(*promote));
  if (store_.has_value()) {
    std::string error;
    if (store_->commit(*model_, &error)) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.checkpoints_committed;
      if (instruments_.checkpoints != nullptr) instruments_.checkpoints->add();
    }
  }
  // After the drain: no more records arrive, so an armed/open incident is
  // emitted now with whatever post-window it collected.  mu_ is not held
  // (the bundle context callback takes it).
  if (recorder_ != nullptr) recorder_->flush();
}

std::string Supervisor::context_json() const {
  // Deterministic fields only: wall-time totals (extract_ns/detect_ns)
  // vary run to run, and bundles must stay byte-stable under replay.
  const pipeline::CountersSnapshot counters = pipeline_counters();
  SupervisorStats s;
  HealthState health_now;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = stats_;
    s.gate = gate_accum_;
    if (gated_ != nullptr) add_gate_stats(s.gate, gated_->stats());
    health_now = health_;
  }
  const vprofile::DetectionConfig& dc = config_.pipeline.detection;
  std::string out = "{\"detection\":{\"margin\":";
  append_json_double(out, dc.margin);
  out += ",\"saturation_code\":";
  append_json_double(out, dc.saturation_code);
  out += ",\"dead_code\":";
  append_json_double(out, dc.dead_code);
  out += ",\"degraded_fraction\":";
  append_json_double(out, dc.degraded_fraction);
  out += ",\"flat_run_min\":";
  append_json_u64(out, dc.flat_run_min);
  out += "},\"counters\":{\"submitted\":";
  append_json_u64(out, counters.submitted.value());
  out += ",\"completed\":";
  append_json_u64(out, counters.completed.value());
  out += ",\"dropped\":";
  append_json_u64(out, counters.dropped.value());
  out += ",\"worker_errors\":";
  append_json_u64(out, counters.worker_errors);
  out += ",\"extract_errors\":[";
  for (std::size_t i = 0; i < counters.extract_errors.size(); ++i) {
    if (i != 0) out += ',';
    append_json_u64(out, counters.extract_errors[i]);
  }
  out += "],\"verdicts\":[";
  for (std::size_t i = 0; i < counters.verdicts.size(); ++i) {
    if (i != 0) out += ',';
    append_json_u64(out, counters.verdicts[i]);
  }
  out += "]},\"supervisor\":{\"health\":\"";
  out += to_string(health_now);
  out += "\",\"frames_offered\":";
  append_json_u64(out, s.frames_offered);
  out += ",\"frames_submitted\":";
  append_json_u64(out, s.frames_submitted);
  out += ",\"frames_decimated\":";
  append_json_u64(out, s.frames_decimated);
  out += ",\"frames_handled\":";
  append_json_u64(out, s.frames_handled);
  out += ",\"restarts\":";
  append_json_u64(out, s.restarts);
  out += ",\"stalls_detected\":";
  append_json_u64(out, s.stalls_detected);
  out += ",\"drift_alarms\":";
  append_json_u64(out, s.drift_alarms);
  out += ",\"candidates_started\":";
  append_json_u64(out, s.candidates_started);
  out += ",\"promotions\":";
  append_json_u64(out, s.promotions);
  out += ",\"rollbacks\":";
  append_json_u64(out, s.rollbacks);
  out += ",\"checkpoints_committed\":";
  append_json_u64(out, s.checkpoints_committed);
  out += ",\"gate\":{\"accepted\":";
  append_json_u64(out, s.gate.accepted);
  out += ",\"rejected_verdict\":";
  append_json_u64(out, s.gate.rejected_verdict);
  out += ",\"rejected_margin\":";
  append_json_u64(out, s.gate.rejected_margin);
  out += ",\"refused_by_updater\":";
  append_json_u64(out, s.gate.refused_by_updater);
  out += "}}}";
  return out;
}

HealthState Supervisor::health() const {
  std::lock_guard<std::mutex> lock(mu_);
  return health_;
}

SupervisorStats Supervisor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SupervisorStats s = stats_;
  s.gate = gate_accum_;
  if (gated_ != nullptr) add_gate_stats(s.gate, gated_->stats());
  return s;
}

pipeline::CountersSnapshot Supervisor::pipeline_counters() const {
  return counters_.snapshot();
}

std::uint64_t Supervisor::fingerprint() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t h = fnv1a_u64(fingerprint_, stats_.frames_decimated);
  h = fnv1a_u64(h, stats_.promotions);
  h = fnv1a_u64(h, stats_.rollbacks);
  return h;
}

}  // namespace runtime
