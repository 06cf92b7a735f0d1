// Streaming capture -> extract -> detect pipeline.
//
// The batch path (sim::Experiment) scores recorded captures one at a time;
// a deployed vProfile monitor has to keep up with a live bus.  This
// pipeline runs Algorithm 1 + Algorithm 3 on a worker pool behind a
// bounded queue and re-orders verdicts back into capture order:
//
//   submit(trace)                    worker pool                sink
//   ------------- > RingQueue > extract + batched detect > OrderedCollector
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
#include <atomic>
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
  /// Test/fault-injection hook run in the worker before a frame is scored
  /// (runtime fault profiles use it to wedge or crash a stage on cue).  A
  /// throw from the hook — like a throw from any stage — is contained:
  /// the frame becomes a worker_error result and the worker survives.
  /// Null (the default) costs nothing.
  std::function<void(std::uint64_t seq, const dsp::Trace& trace)> stage_hook;
  /// Optional observability sinks; null = zero overhead (scoring is
  /// bit-identical either way — instruments only ever read the results).
  /// Both must outlive the pipeline.
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
  struct Job {
    std::uint64_t seq = 0;
    dsp::Trace trace;
    /// Tracer timestamp at enqueue; 0 when tracing is off.  Lets the
    /// worker emit the queue-wait span without a second submit-side clock.
    std::uint64_t submit_ns = 0;
  };

  /// Pre-registered metric handles, resolved once in the constructor so
  /// the hot path never touches the registry mutex.  All null when
  /// config_.metrics is null.
  struct Instruments {
    obs::Counter* submitted = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* errors = nullptr;
    obs::Histogram* extract_latency = nullptr;
    obs::Histogram* detect_latency = nullptr;
    obs::Gauge* queue_depth = nullptr;
    /// Lazily resolved per-source-address series (detect_latency_ns{sa}).
    /// Benign races: the registry hands every thread the same pointer.
    std::array<std::atomic<obs::Histogram*>, 256> detect_by_sa{};
  };

  obs::Histogram* sa_histogram(std::uint8_t sa);
  void worker_loop();

  const vprofile::Model& model_;
  PipelineConfig config_;
  /// Immutable scoring operands (resolved backend, cached Cholesky
  /// factors), shared read-only by every worker's BatchScorer.  Built once
  /// here — "model load" time.
  vprofile::ScoringPlan plan_;
  Counters counters_;
  Instruments obs_;
  RingQueue<Job> queue_;
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
