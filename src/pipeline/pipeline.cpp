#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"

namespace pipeline {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// The one scoring routine both the workers and the sequential reference
/// run — sharing it is what makes pipeline-vs-sequential equivalence a
/// property of the code rather than a hope.
FrameResult score_frame(const vprofile::Model& model, const dsp::Trace& trace,
                        const vprofile::DetectionConfig& dc,
                        bool keep_edge_set, std::uint64_t* extract_ns,
                        std::uint64_t* detect_ns) {
  FrameResult result;
  const auto t0 = Clock::now();
  vprofile::ExtractError err = vprofile::ExtractError::kNone;
  auto edge_set = vprofile::extract_edge_set(trace, model.extraction(), &err);
  const auto t1 = Clock::now();
  *extract_ns = ns_between(t0, t1);
  if (!edge_set) {
    result.extract_error = err;
    *detect_ns = 0;
    return result;
  }
  result.sa = edge_set->sa;
  result.detection = vprofile::detect(model, *edge_set, dc);
  *detect_ns = ns_between(t1, Clock::now());
  if (keep_edge_set) result.edge_set = std::move(*edge_set);
  return result;
}

}  // namespace

FrameScorer::FrameScorer(const vprofile::ScoringPlan& plan,
                         const PipelineConfig& config, Counters& counters)
    : config_(config), counters_(counters), scorer_(plan) {
  if (config_.metrics != nullptr) {
    // Resolve every fixed series up front: the registry mutex is paid
    // here, once, and scoring only ever touches lock-free handles.
    obs::MetricsRegistry& reg = *config_.metrics;
    obs_.completed = reg.counter("frames_completed_total");
    obs_.errors = reg.counter("errors_total");
    obs_.extract_latency = reg.histogram("extract_latency_ns");
    obs_.detect_latency = reg.histogram("detect_latency_ns");
  }
  const std::size_t batch_max = std::max<std::size_t>(1, config_.batch_size);
  slots_.reserve(batch_max);
  to_score_.reserve(batch_max);
  score_slot_.reserve(batch_max);
  detections_.reserve(batch_max);
}

// Sanctioned boundary: the registry mutex is paid at most once per SA
// (first frame from that address); afterwards the cache hits.
// vprofile-lint: cold
obs::Histogram* FrameScorer::sa_histogram(std::uint8_t sa) {
  obs::Histogram*& h = obs_.detect_by_sa[sa];
  if (h == nullptr) {
    char label[8];
    std::snprintf(label, sizeof(label), "0x%02X", sa);
    h = config_.metrics->histogram("detect_latency_ns", {{"sa", label}});
  }
  return h;
}

// vprofile-lint: hot
void FrameScorer::score(const Frame* frames, std::size_t count,
                        FrameResult* out) {
  obs::Tracer* const tracer = config_.tracer;
  const std::uint64_t t_start = tracer != nullptr ? tracer->now_ns() : 0;

  // Stage 1 — per frame: hook + extraction, individually contained.  A
  // throwing stage (extractor bug, hostile input, injected fault) must
  // cost exactly one frame, not the caller — an escaped exception from a
  // worker std::thread is std::terminate for the whole monitor.
  slots_.clear();
  slots_.resize(count);
  to_score_.clear();
  score_slot_.clear();
  for (std::size_t k = 0; k < count; ++k) {
    const Frame& frame = frames[k];
    Slot& slot = slots_[k];
    slot.result.seq = frame.seq;
    if (tracer != nullptr && frame.submit_ns != 0) {
      tracer->record("pipeline.queue", frame.submit_ns,
                     t_start - frame.submit_ns);
    }
    try {
      if (config_.stage_hook) config_.stage_hook(frame.seq, frame.trace);
      const auto t0 = Clock::now();
      vprofile::ExtractError err = vprofile::ExtractError::kNone;
      slot.edge_set = vprofile::extract_edge_set(
          frame.trace, scorer_.plan().model().extraction(), &err);
      slot.extract_ns = ns_between(t0, Clock::now());
      if (slot.edge_set) {
        slot.result.sa = slot.edge_set->sa;
        to_score_.push_back(&*slot.edge_set);
        score_slot_.push_back(k);
      } else {
        slot.result.extract_error = err;
      }
    } catch (...) {
      slot = Slot{};
      slot.result.seq = frame.seq;
      slot.result.worker_error = true;
    }
  }

  // Stage 2 — the batch: every surviving edge set scored through the
  // shared plan in one SoA pass.  Detection cost is attributed evenly
  // across the batch (remainder to the first frame) — telemetry only,
  // verdicts never depend on timing.
  if (!to_score_.empty()) {
    detections_.clear();
    detections_.resize(to_score_.size());
    const auto td0 = Clock::now();
    bool batch_failed = false;
    try {
      scorer_.detect(to_score_.data(), to_score_.size(), config_.detection,
                     detections_.data());
    } catch (...) {
      batch_failed = true;
    }
    const std::uint64_t batch_ns = ns_between(td0, Clock::now());
    const std::uint64_t share = batch_ns / to_score_.size();
    const std::uint64_t remainder = batch_ns % to_score_.size();
    for (std::size_t k = 0; k < to_score_.size(); ++k) {
      Slot& slot = slots_[score_slot_[k]];
      if (batch_failed) {
        const std::uint64_t seq = slot.result.seq;
        slot = Slot{};
        slot.result.seq = seq;
        slot.result.worker_error = true;
        continue;
      }
      slot.detect_ns = share + (k == 0 ? remainder : 0);
      slot.result.detection = detections_[k];
      if (config_.keep_edge_set) {
        slot.result.edge_set = std::move(*slot.edge_set);
      }
    }
  }

  // Stage 3 — per frame, in batch order: accounting, instruments, spans.
  for (std::size_t k = 0; k < count; ++k) {
    account(slots_[k], t_start);
    out[k] = std::move(slots_[k].result);
  }
}

FrameResult FrameScorer::abandon(std::uint64_t seq) {
  Slot slot;
  slot.result.seq = seq;
  slot.result.worker_error = true;
  account(slot, config_.tracer != nullptr ? config_.tracer->now_ns() : 0);
  return std::move(slot.result);
}

void FrameScorer::account(const Slot& slot, std::uint64_t t_start) {
  const FrameResult& result = slot.result;
  counters_.add_completed(slot.extract_ns, slot.detect_ns);
  if (result.worker_error) {
    counters_.add_worker_error();
  } else {
    counters_.add_outcome(result.extract_error, result.detection);
  }
  if (obs_.completed != nullptr) {
    obs_.completed->add();
    if (result.worker_error) obs_.errors->add();
    obs_.extract_latency->observe(slot.extract_ns);
    obs_.detect_latency->observe(slot.detect_ns);
    if (result.ok()) sa_histogram(result.sa)->observe(slot.detect_ns);
  }
  if (obs::Tracer* const tracer = config_.tracer) {
    // Durations are the scorer's own measurements; start offsets are
    // approximate (stages of one batch interleave).
    tracer->record("pipeline.extract", t_start, slot.extract_ns);
    tracer->record("pipeline.detect", t_start + slot.extract_ns,
                   slot.detect_ns);
  }
}

DetectionPipeline::DetectionPipeline(const vprofile::Model& model,
                                     PipelineConfig config, ResultSink sink)
    : config_(std::move(config)),
      plan_(model),
      queue_(config_.queue_capacity),
      collector_(std::move(sink)) {
  if (config_.num_workers == 0) {
    throw std::invalid_argument("DetectionPipeline: need at least one worker");
  }
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *config_.metrics;
    obs_.submitted = reg.counter("frames_submitted_total");
    obs_.dropped = reg.counter("frames_dropped_total");
    // vprofile-lint: allow(metric-name) — depth is unitless by design
    obs_.queue_depth = reg.gauge("queue_depth");
  }
  workers_.reserve(config_.num_workers);
  for (std::size_t i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

DetectionPipeline::~DetectionPipeline() { finish(); }

std::optional<std::uint64_t> DetectionPipeline::submit(dsp::Trace trace) {
  obs::TraceSpan span(config_.tracer, "pipeline.submit");
  // One lock covers seq assignment *and* the enqueue/drop decision, so the
  // collector always sees a dense sequence space: every assigned seq is
  // either in the queue or already emitted as dropped.  Backpressure in
  // blocking mode stalls all producers here, which is the intent.
  std::lock_guard<std::mutex> lock(submit_mu_);
  if (finished_) return std::nullopt;
  const std::uint64_t seq = next_seq_;
  Frame frame{seq, std::move(trace),
              config_.tracer != nullptr ? config_.tracer->now_ns() : 0};
  bool accepted;
  if (config_.block_when_full) {
    accepted = queue_.push(std::move(frame));
  } else {
    accepted = queue_.try_push(std::move(frame));
  }
  ++next_seq_;
  counters_.add_submitted();
  if (obs_.submitted != nullptr) {
    obs_.submitted->add();
    obs_.queue_depth->set(static_cast<std::int64_t>(queue_.size()));
  }
  if (accepted) return seq;

  counters_.add_dropped();
  if (obs_.dropped != nullptr) obs_.dropped->add();
  FrameResult dropped;
  dropped.seq = seq;
  dropped.dropped = true;
  collector_.submit(seq, std::move(dropped));
  return std::nullopt;
}

void DetectionPipeline::finish() {
  {
    std::lock_guard<std::mutex> lock(submit_mu_);
    finished_ = true;
  }
  queue_.close();
  // Serialize joining so concurrent finish() calls are safe: the second
  // caller blocks here until the first has joined everything, then sees
  // every worker unjoinable.
  std::lock_guard<std::mutex> join_lock(join_mu_);
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Drained means conserved: every submitted frame is now completed or
  // dropped and every completed frame has exactly one outcome.  This is
  // the pipeline's core accounting invariant — enforced unconditionally
  // (assert() is compiled out in the default RelWithDebInfo build).
  const CountersSnapshot snap = counters_.snapshot();
  if (!snap.consistent()) {
    std::fprintf(stderr,
                 "DetectionPipeline::finish(): counter conservation violated "
                 "(submitted=%llu completed=%llu dropped=%llu "
                 "extract_failures=%llu classified=%llu worker_errors=%llu)\n",
                 static_cast<unsigned long long>(snap.submitted.value()),
                 static_cast<unsigned long long>(snap.completed.value()),
                 static_cast<unsigned long long>(snap.dropped.value()),
                 static_cast<unsigned long long>(snap.extract_failures()),
                 static_cast<unsigned long long>(snap.classified()),
                 static_cast<unsigned long long>(snap.worker_errors));
    std::abort();
  }
}

CountersSnapshot DetectionPipeline::counters() const {
  return counters_.snapshot(queue_.high_watermark());
}

void DetectionPipeline::worker_loop() {
  FrameScorer scorer(plan_, config_, counters_);
  const std::size_t batch_max = std::max<std::size_t>(1, config_.batch_size);
  std::vector<Frame> frames;
  std::vector<FrameResult> results(batch_max);
  frames.reserve(batch_max);
  while (queue_.pop_some(&frames, batch_max) > 0) {
    scorer.score(frames.data(), frames.size(), results.data());
    if (obs_.queue_depth != nullptr) {
      obs_.queue_depth->set(static_cast<std::int64_t>(queue_.size()));
    }
    for (std::size_t k = 0; k < frames.size(); ++k) {
      obs::TraceSpan collect_span(config_.tracer, "pipeline.collect");
      collector_.submit(results[k].seq, std::move(results[k]));
    }
  }
}

std::vector<FrameResult> score_sequential(
    const vprofile::Model& model, const std::vector<dsp::Trace>& traces,
    const vprofile::DetectionConfig& dc) {
  std::vector<FrameResult> results;
  results.reserve(traces.size());
  std::uint64_t seq = 0;
  for (const dsp::Trace& trace : traces) {
    std::uint64_t extract_ns = 0;
    std::uint64_t detect_ns = 0;
    FrameResult r =
        score_frame(model, trace, dc, false, &extract_ns, &detect_ns);
    r.seq = seq++;
    results.push_back(std::move(r));
  }
  return results;
}

}  // namespace pipeline
