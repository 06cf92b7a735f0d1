// Shared pieces of the frame-cost benchmark: run options, the report a
// workload fills, timing of the measured sections, simulated training
// material and the per-frame reference verdicts.
//
// Simulation (sim/analog/canbus/dsp/faults) only generates load; nothing
// in it is ever inside a timed section.
#pragma once

#include <sched.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/detector.hpp"
#include "core/model.hpp"
#include "core/trainer.hpp"
#include "dsp/trace.hpp"
#include "ledger.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/attack.hpp"
#include "sim/vehicle.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the report, the Chrome trace and scratch checkpoints;
  /// "" writes no files (checkpoints then go to the system temp dir).
  std::string out_dir;
  /// Multiplies pool, session and phase sizes.  1 in measured runs; the
  /// smoke tests run a small fraction.
  double scale = 1.0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced.  A run that fails its correctness
/// check sets `failure`; main() then prints no metric.
struct Report {
  std::string workload;
  std::string failure;  // first failed check, naming tenant or frame
  std::uint64_t attempted = 0;  // frames offered
  std::uint64_t failed = 0;     // frames without a verdict or with a wrong one
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> facts;
  std::string chrome_trace;  // traced runs only

  bool correct() const { return failure.empty() && failed == 0; }
  void add(std::string name, double value, std::string unit);
  void fact(std::string key, std::string value);
  /// Records the first failure; later ones only count.
  void fail(const std::string& why);
  /// Value of a metric already added, or 0.
  double value(const std::string& name) const;
};

/// Stamps host facts, then runs the workload named by opt.workload;
/// throws std::invalid_argument for an unknown name.
Report run_workload(const Options& opt);
void run_fleet_wire(const Options& opt, Report& report);
void run_bus_adapt(const Options& opt, Report& report);
void run_bus_burst(const Options& opt, Report& report);

/// Names of the workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// max(min, round(n * opt.scale)).
std::size_t scaled(std::size_t n, const Options& opt, std::size_t min = 1);
/// Independent sub-seed for one use of the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

std::uint64_t now_ns();
double process_cpu_s();
double peak_rss_mib();

/// Wall and process-CPU time summed over the timed sections only, and
/// the frame rates of the run's units of work.  A unit is one or more
/// timed sections closed by end_unit(); end-to-end rates are reported as
/// medians over units, so a burst of load from outside the process moves
/// a few units rather than the whole run.
class Stopwatch {
 public:
  void start();
  void stop();
  double wall_s() const { return wall_s_; }
  double cpu_s() const { return cpu_s_; }
  /// Closes the current unit: `frames` verdicts over the time the timed
  /// sections accumulated since the previous unit closed.
  void end_unit(std::uint64_t frames);
  /// Wall time accumulated in the unit still open.
  double unit_wall_s() const { return wall_s_ - unit_wall0_; }
  double median_frames_per_s() const { return median(frames_per_s_); }
  double median_buses_per_core() const { return median(buses_per_core_); }

 private:
  std::uint64_t wall0_ = 0;
  double cpu0_ = 0.0;
  double wall_s_ = 0.0;
  double cpu_s_ = 0.0;
  double unit_wall0_ = 0.0;
  double unit_cpu0_ = 0.0;
  std::vector<double> frames_per_s_;
  std::vector<double> buses_per_core_;
};

/// Set-up is repeated this many times per run and reported as a median.
inline constexpr std::size_t kSetupRepeats = 31;

/// Training material for one vehicle, kept as captures so every set-up
/// pays extraction as well as training.
struct TrainingSet {
  vprofile::ExtractionConfig extraction;
  vprofile::SaDatabase database;
  std::vector<dsp::Trace> traces;
};
TrainingSet simulate_training(sim::Vehicle& vehicle, std::size_t count);
/// extract_edge_set over the captures + train_with_database.  Throws
/// std::runtime_error when training fails.
vprofile::Model train(const TrainingSet& set);

std::vector<dsp::Trace> codes_of(std::vector<sim::LabeledCapture>&& stream);

/// How one frame ended, coded as the supervisor's fingerprint codes it,
/// plus the bits of the scored distance.
struct Outcome {
  std::uint64_t code = 0;
  std::uint64_t distance_bits = 0;
  bool operator==(const Outcome&) const = default;
};
Outcome outcome_of(const pipeline::FrameResult& result);
/// extract_edge_set + vprofile::detect: the one-frame scalar reference.
Outcome reference_outcome(const vprofile::Model& model, const dsp::Trace& trace,
                          const vprofile::DetectionConfig& detection);
std::string to_string(const Outcome& outcome);

/// FNV-1a fold of one u64, as the fleet chains supervisor fingerprints.
std::uint64_t fnv_fold(std::uint64_t hash, std::uint64_t value);
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// Restricts the calling thread, and every thread it starts afterwards,
/// to one CPU (the last one it may use) and restores the previous mask on
/// destruction.  The lockstep workloads run their serialized loop on one
/// core: in a shared virtual machine, waking the worker on another core
/// costs anything from microseconds to milliseconds, depending on how much
/// CPU time the host is taking back at that moment.
class OneCpu {
 public:
  OneCpu();
  ~OneCpu();
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;
  /// Moves every thread of the process to the next CPU of the original
  /// mask, cyclically.  Called between units of work, it spreads a run
  /// evenly over the CPUs it may use, so a run is not at the mercy of
  /// whatever the host happens to co-schedule on one of them.
  void next();

 private:
  cpu_set_t saved_;
  int cpu_ = -1;
};

/// Directory for a run's scratch files (created), under opt.out_dir.
std::string scratch_dir(const Options& opt, const std::string& name);

}  // namespace perfbench
