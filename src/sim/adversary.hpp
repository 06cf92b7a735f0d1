// Adaptive adversary co-evolution harness: searches the Sagong-style
// attack parameter space against the full detector stack and reports the
// detection frontier.
//
// The paper's evaluation (and the 30-cell golden scenario matrix) fixes
// attack parameters up front.  Sagong et al. ("Mitigating Vulnerabilities
// of Voltage-based Intrusion Detection Systems in CAN", 2019) show that a
// voltage IDS is only as strong as its weakest point in attack-parameter
// space: overcurrent shaping, voltage-corruption bursts and
// drift-exploiting slow masquerades can all be *tuned* against the
// detector.  AdversarySearch turns that observation into a benchmark: for
// each attack family it sweeps a coarse parameter grid, hill-climbs
// toward the detector's weakest cell, and scores every candidate against
// four defense arms:
//
//   plain       margin-only detector; extraction failures pass silently
//               (the naive monitor's blind spot)
//   gated       quality gating on (scenario_detection_config): degraded
//               captures and extraction failures count as detections
//   sentinel    gated + a Page–Hinkley drift sentinel over the distance
//               stream; a sentinel alarm detects the *campaign* even when
//               every individual frame stays under the margin
//   supervised  the full runtime Supervisor (drift ->
//               retrain -> validate -> promote/rollback), so evasions of
//               a retraining deployment are distinguished from evasions
//               of the static model — and silent poisoning (a promotion
//               under attack with no rollback) is reported as such
//
// Determinism: the harness reuses ScenarioRunner's model cache and FNV
// seed discipline (derive_stream_seed); every candidate evaluation is a
// pure function of (runner seed, config, parameter point), transforms are
// parameter-deterministic (no RNG), and candidate results are stored by
// index — so the frontier report is bit-identical across runs and across
// worker counts (tests/test_frontier.cpp holds both).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "runtime/drift_sentinel.hpp"
#include "sim/scenario.hpp"

namespace obs {
class Counter;
class Gauge;
class MetricsRegistry;
class Tracer;
}  // namespace obs

namespace sim {

/// The searched attack families (each maps to one src/faults transform).
enum class AttackFamily {
  kOvercurrent,      // foreign frames + overcurrent shaping
  kCorruptionBurst,  // foreign frames + voltage-corruption bursts
  kDriftMasquerade,  // benign traffic walked away by a duty-cycled ramp
};

inline constexpr std::size_t kNumAttackFamilies = 3;

const char* to_string(AttackFamily family);

/// The defense arms every candidate point is scored against.
enum class DefenseArm { kPlain, kGated, kSentinel, kSupervised };

inline constexpr std::size_t kNumDefenseArms = 4;

const char* to_string(DefenseArm arm);

/// One point in a family's parameter space.  The meaning of each slot is
/// family-specific (see AdversarySearch::param_specs); unused slots are
/// pinned to zero.  Voltage-magnitude dimensions (offsets, amplitudes,
/// ramp rates) are fractions of ADC full scale so one spec covers both
/// digitizer presets.
inline constexpr std::size_t kNumAttackParams = 4;
using AttackPoint = std::array<double, kNumAttackParams>;

/// One searchable parameter dimension.
struct ParamSpec {
  const char* name = "unused";
  double lo = 0.0;
  double hi = 0.0;
  std::size_t grid = 1;  // coarse-sweep points along this dimension
};

/// Outcome of one defense arm at one attack point.
struct ArmOutcome {
  /// Detected attack frames / attack frames (stream-level alarms force
  /// this to 1: the campaign was caught even if single frames passed).
  double detection_rate = 0.0;
  /// detection_rate - evasion_floor: negative means the attack evades
  /// this arm (the frontier's "margin to detection").
  double margin = 0.0;
  std::uint64_t attack_frames = 0;
  std::uint64_t detected = 0;
  /// Sentinel / supervisor raised a stream-level alarm (drift alarm or
  /// rollback) during the run.
  bool stream_alarm = false;
  /// Supervised arm only: candidate promotions that happened *under
  /// attack*.  A promotion with no rollback is silent poisoning — the
  /// model absorbed the adversary's signature.
  std::uint64_t promotions = 0;
  std::uint64_t rollbacks = 0;
};

/// One evaluated cell: a parameter point and its per-arm outcomes.
struct FrontierCell {
  AttackFamily family = AttackFamily::kOvercurrent;
  AttackPoint params{};
  std::array<ArmOutcome, kNumDefenseArms> arms{};

  const ArmOutcome& arm(DefenseArm a) const {
    return arms[static_cast<std::size_t>(a)];
  }
  double plain_margin() const {
    return arm(DefenseArm::kPlain).margin;
  }
};

/// A family's search result: the weakest cell found and what closes it.
struct FamilyFrontier {
  AttackFamily family = AttackFamily::kOvercurrent;
  FrontierCell weakest;
  std::uint64_t evaluations = 0;  // candidate points scored
  std::uint64_t generations = 0;  // hill-climb generations run
  /// First non-plain defense (enum order) whose margin at the weakest
  /// cell is >= 0; nullopt when nothing closes the evasion.
  std::optional<DefenseArm> closing_defense;
};

/// The machine-readable frontier report.  to_json() is a pure function of
/// the contents (fixed field order, %.17g doubles, no timestamps), so two
/// same-seed runs emit byte-identical reports — the property the golden
/// frontier test pins.
struct FrontierReport {
  std::uint64_t seed = 0;
  std::vector<FamilyFrontier> families;

  /// FNV-1a digest over every field to_json() serializes.
  std::uint64_t fingerprint() const;
  std::string to_json() const;
};

/// Search configuration.  The defaults match the reference workload the
/// frontier driver (tools/vprofile_frontier.cpp) runs.
struct AdversaryConfig {
  std::string preset = "a";
  vprofile::DistanceMetric metric = vprofile::DistanceMetric::kMahalanobis;
  /// Detection margin the defender deploys with (the golden matrix's
  /// calibrated Mahalanobis operating point).
  double margin = 12.0;
  std::size_t train_count = 1200;
  /// Frames per candidate evaluation stream.
  std::size_t stream_count = 160;
  /// An arm evades when it detects less than this fraction of attack
  /// frames; margin = detection_rate - evasion_floor.
  double evasion_floor = 0.5;
  /// Drift-masquerade frames count as attacks once the cumulative shift
  /// reaches this fraction of ADC full scale (smaller shifts are inside
  /// the environmental noise floor and have not materially moved the
  /// signature yet).  0.0008 is ~52 codes on the 16-bit preset — above
  /// the per-frame noise, below the plain detector's flag point, which
  /// is exactly the band a drift-exploiting adversary aims for.
  double harm_shift_frac = 0.0008;
  /// Hill-climb refinement generations after the coarse sweep.
  std::size_t generations = 3;
  /// Page–Hinkley tuning shared by the sentinel arm and the supervised
  /// arm's supervisor.  min_samples is far below the runtime default:
  /// candidate streams are short and split across clusters, so the
  /// sentinel must be able to form a baseline from a handful of frames.
  runtime::DriftConfig drift{.delta = 0.05, .lambda = 25.0,
                             .min_samples = 8};
  /// Threads evaluating candidates; results are index-ordered, so the
  /// frontier is invariant to this.
  std::size_t num_workers = 1;
  /// Families to search (defaults to all three).
  std::vector<AttackFamily> families = {AttackFamily::kOvercurrent,
                                        AttackFamily::kCorruptionBurst,
                                        AttackFamily::kDriftMasquerade};
};

/// Runs the adversary search against one ScenarioRunner (whose seed and
/// model cache it shares).  Not thread-safe; the runner must outlive the
/// search.
class AdversarySearch {
 public:
  AdversarySearch(ScenarioRunner& runner, AdversaryConfig config);

  /// Attach observability: a `frontier_attacks_evaluated_total` counter,
  /// a `frontier_margin` gauge (milli-margin of the weakest cell so far)
  /// and one trace span per search generation.  The report is untouched —
  /// outcomes stay bit-identical with sinks attached.  Null detaches.
  void set_observability(obs::MetricsRegistry* metrics, obs::Tracer* tracer);

  /// Parameter dimensions for one family (exposed for the driver's table
  /// output and the tests).
  static std::array<ParamSpec, kNumAttackParams> param_specs(
      AttackFamily family);

  /// Runs the full search.  Throws std::runtime_error when the model for
  /// the configured preset cannot be trained.
  FrontierReport run();

 private:
  struct FamilyWorkload;

  FamilyWorkload make_workload(AttackFamily family, const Scenario& base);
  FamilyFrontier search_family(AttackFamily family,
                               const FamilyWorkload& workload);
  FrontierCell evaluate(AttackFamily family, const FamilyWorkload& workload,
                        const AttackPoint& point) const;
  ArmOutcome evaluate_supervised(AttackFamily family,
                                 const FamilyWorkload& workload,
                                 const AttackPoint& point) const;
  std::vector<FrontierCell> evaluate_all(AttackFamily family,
                                         const FamilyWorkload& workload,
                                         const std::vector<AttackPoint>& pts);

  ScenarioRunner& runner_;
  AdversaryConfig config_;
  std::shared_ptr<const vprofile::Model> model_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* evals_counter_ = nullptr;
  obs::Gauge* margin_gauge_ = nullptr;
};

}  // namespace sim
