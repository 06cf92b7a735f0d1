// Streaming capture -> extract -> detect pipeline.
//
// The batch path (sim::Experiment) scores recorded captures one at a time;
// a deployed vProfile monitor has to keep up with a live bus.  Two layers:
//
//  * FrameScorer — single-threaded: extract (Algorithm 1) -> batched
//    detect (Algorithm 3) -> FrameResult, with per-frame exception
//    containment, counters, metric instruments and trace spans.  The one
//    place a trace becomes a verdict; runtime::Supervisor calls it inline.
//  * DetectionPipeline — a worker pool of FrameScorers behind a bounded
//    queue, re-ordering verdicts back into capture order:
//
//   submit(trace)                    worker pool                sink
//   ------------- > RingQueue > FrameScorer per worker > OrderedCollector
//    (seq assigned)  (bounded,        (parallel)            (capture order)
//                    backpressure)
//
// Workers drain the queue in batches (PipelineConfig::batch_size): each
// frame is still extracted (and fault-contained) individually, but the
// surviving edge sets are scored together through a vprofile::BatchScorer
// over one shared ScoringPlan — the SIMD/batched hot path.
//
// Guarantees:
//  * Every submitted frame produces exactly one FrameResult at the sink,
//    in submission order, even when workers finish out of order and even
//    for frames dropped by a full queue in non-blocking mode.
//  * Scoring is bit-identical to calling extract_edge_set() + detect()
//    sequentially: the batch scorer's kernels mirror the one-frame
//    reference operation-for-operation, so nothing about a frame's result
//    depends on scheduling, batch boundaries, or the backend that
//    VPROFILE_FORCE_SCALAR and the CPU resolve (linalg/simd_dispatch.hpp).
//  * finish() drains: it stops intake, waits for every accepted frame to
//    be scored and emitted, then joins the workers.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

#include "core/batch_scorer.hpp"
#include "core/detector.hpp"
#include "core/extractor.hpp"
#include "core/model.hpp"
#include "dsp/trace.hpp"
#include "pipeline/counters.hpp"
#include "pipeline/ordered_collector.hpp"
#include "pipeline/ring_queue.hpp"

namespace obs {
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
class Tracer;
}  // namespace obs

namespace pipeline {

/// Pipeline tuning knobs.
struct PipelineConfig {
  /// Worker threads running extraction + detection.
  std::size_t num_workers = 1;
  /// Ring capacity between submit() and the workers.
  std::size_t queue_capacity = 256;
  /// true: submit() blocks while the queue is full (lossless, offline
  /// scoring).  false: submit() drops the frame and records it (live
  /// monitor that must never stall the tap).
  bool block_when_full = true;
  /// Frames a worker pulls from the queue per wait and scores as one SoA
  /// batch.  1 degrades to the per-frame path; larger batches amortize the
  /// queue hand-off and feed the SIMD kernels full quads.  Verdicts do not
  /// depend on this value (see the bit-identity guarantee above).
  std::size_t batch_size = 8;
  vprofile::DetectionConfig detection;
  /// Attach the extracted edge set to each ok() FrameResult.  Off by
  /// default (results stay small); the supervised runtime turns it on so
  /// gated online updates can fold verdict-approved edge sets without
  /// re-extracting.  Scoring is bit-identical either way.
  bool keep_edge_set = false;
  /// Test hook run by the FrameScorer before a frame is extracted (the
  /// robustness tests use it to crash a stage on cue).  A throw from the
  /// hook — like a throw from any stage — is contained: the frame becomes
  /// a worker_error result and the worker survives.  Null (the default)
  /// costs nothing.
  std::function<void(std::uint64_t seq, const dsp::Trace& trace)> stage_hook;
  /// Optional observability sinks; null = zero overhead (scoring is
  /// bit-identical either way — instruments only ever read the results).
  /// Both must outlive the pipeline (or scorer) that uses them.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

/// One frame's outcome, emitted in capture order.
struct FrameResult {
  std::uint64_t seq = 0;
  /// Frame rejected by a full queue (non-blocking mode); nothing else set.
  bool dropped = false;
  /// A stage threw while scoring this frame (contained per-frame: the
  /// worker survives, the frame gets this error outcome instead of a
  /// verdict).  Nothing else is set.
  bool worker_error = false;
  /// kNone iff extraction succeeded and `detection` is set.
  vprofile::ExtractError extract_error = vprofile::ExtractError::kNone;
  /// SA decoded from the trace; only valid when ok().
  std::uint8_t sa = 0;
  std::optional<vprofile::Detection> detection;
  /// The scored edge set, retained only when PipelineConfig::keep_edge_set
  /// is on and extraction succeeded.
  std::optional<vprofile::EdgeSet> edge_set;

  bool ok() const {
    return !dropped && !worker_error &&
           extract_error == vprofile::ExtractError::kNone;
  }
  /// Extraction succeeded but the detector refused a confident verdict
  /// (quality gating; see Verdict::kDegraded).
  bool degraded() const { return ok() && detection->is_degraded(); }
};

/// One frame handed to a FrameScorer.
struct Frame {
  std::uint64_t seq = 0;
  dsp::Trace trace;
  /// Tracer timestamp at enqueue; 0 when tracing is off or the frame was
  /// never queued.  Lets the scorer emit the queue-wait span without a
  /// second submit-side clock.
  std::uint64_t submit_ns = 0;
};

/// Turns traces into FrameResults: extract -> BatchScorer::detect, one
/// call per batch of frames.  Single-threaded (it owns BatchScorer
/// scratch); share the plan and the Counters, not the scorer.
///
/// A throwing stage (extractor bug, hostile input, PipelineConfig::
/// stage_hook) costs exactly its frame, which becomes a worker_error
/// result; the scorer stays usable.  Every scored frame is counted into
/// `counters` and, when config.metrics / config.tracer are set, observed
/// into the frame instruments and the pipeline.extract / pipeline.detect
/// spans.  The plan, config and counters must outlive the scorer.
class FrameScorer {
 public:
  FrameScorer(const vprofile::ScoringPlan& plan, const PipelineConfig& config,
              Counters& counters);

  FrameScorer(const FrameScorer&) = delete;
  FrameScorer& operator=(const FrameScorer&) = delete;

  /// Scores frames[0..count) into out[0..count), in order; out[k].seq is
  /// frames[k].seq.  Traces are only read.
  void score(const Frame* frames, std::size_t count, FrameResult* out);

  /// Accounts frame `seq` as a worker_error without scoring it — the
  /// outcome of a stage that never returned.  Same counters, instruments
  /// and spans as a stage that threw.
  FrameResult abandon(std::uint64_t seq);

 private:
  struct Slot {
    FrameResult result;
    std::optional<vprofile::EdgeSet> edge_set;
    std::uint64_t extract_ns = 0;
    std::uint64_t detect_ns = 0;
  };

  /// Pre-registered metric handles, resolved once in the constructor so
  /// scoring never touches the registry mutex.  All null when
  /// config.metrics is null.
  struct Instruments {
    obs::Counter* completed = nullptr;
    obs::Counter* errors = nullptr;
    obs::Histogram* extract_latency = nullptr;
    obs::Histogram* detect_latency = nullptr;
    /// Lazily resolved per-source-address series (detect_latency_ns{sa}).
    std::array<obs::Histogram*, 256> detect_by_sa{};
  };

  obs::Histogram* sa_histogram(std::uint8_t sa);
  /// Counts, observes and traces one finished slot.
  void account(const Slot& slot, std::uint64_t t_start);

  const PipelineConfig& config_;
  Counters& counters_;
  vprofile::BatchScorer scorer_;
  Instruments obs_;
  // Per-batch workspace, reserved once so steady state never allocates
  // for batch bookkeeping (the EdgeSets themselves come from extraction).
  std::vector<Slot> slots_;
  std::vector<const vprofile::EdgeSet*> to_score_;
  std::vector<std::size_t> score_slot_;  // slot index per to_score_ entry
  std::vector<vprofile::Detection> detections_;
};

/// Worker-pool pipeline over one trained model.  The model must outlive
/// the pipeline and is never mutated through it.
class DetectionPipeline {
 public:
  using ResultSink = std::function<void(FrameResult&&)>;

  /// Starts the workers.  The sink is called in strict capture order from
  /// worker threads (serialized by the collector); keep it cheap.  Throws
  /// std::invalid_argument for zero workers.
  DetectionPipeline(const vprofile::Model& model, PipelineConfig config,
                    ResultSink sink);

  /// Drains and joins (finish()) if the caller did not.
  ~DetectionPipeline();

  DetectionPipeline(const DetectionPipeline&) = delete;
  DetectionPipeline& operator=(const DetectionPipeline&) = delete;

  /// Enqueues one message-aligned trace; thread-safe.  Returns the frame's
  /// sequence number, or std::nullopt when the frame was not accepted —
  /// dropped by a full queue in non-blocking mode (still emitted to the
  /// sink as a dropped FrameResult, in order) or refused after finish()
  /// (not emitted: it was never part of the stream).
  std::optional<std::uint64_t> submit(dsp::Trace trace);

  /// Stops intake, waits until every accepted frame has been scored and
  /// emitted, joins the workers.  Idempotent.
  void finish();

  /// Observability.  Stable after finish(); a live approximation before.
  CountersSnapshot counters() const;
  std::size_t queue_depth() const { return queue_.size(); }

  const PipelineConfig& config() const { return config_; }

 private:
  /// Submit-side metric handles (the scorers own the frame instruments).
  /// All null when config_.metrics is null.
  struct Instruments {
    obs::Counter* submitted = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Gauge* queue_depth = nullptr;
  };

  void worker_loop();

  PipelineConfig config_;
  /// Immutable scoring operands (resolved backend, cached Cholesky
  /// factors), shared read-only by every worker's FrameScorer.  Built once
  /// here — "model load" time.
  vprofile::ScoringPlan plan_;
  Counters counters_;
  Instruments obs_;
  RingQueue<Frame> queue_;
  OrderedCollector<FrameResult> collector_;
  std::vector<std::thread> workers_;
  std::mutex submit_mu_;  // serializes seq assignment with enqueue/drop
  std::mutex join_mu_;    // serializes worker joining across finish() calls
  std::uint64_t next_seq_ = 0;
  bool finished_ = false;
};

/// Reference single-threaded scoring of a whole batch — the equivalence
/// oracle for the pipeline (and the "sequential" arm of bench_pipeline).
/// Produces exactly the FrameResult stream a 1..N-worker pipeline emits.
std::vector<FrameResult> score_sequential(const vprofile::Model& model,
                                          const std::vector<dsp::Trace>& traces,
                                          const vprofile::DetectionConfig& dc);

}  // namespace pipeline
