// Shared plumbing for the table/figure reproduction benches.
//
// Every bench prints the paper's artifact (table or figure series) next to
// the paper-reported reference values.  Message counts are laptop-scale by
// default; set VPROFILE_BENCH_SCALE=<float> to multiply them (the paper
// used runs of 10^5..10^6 messages).
// Besides the human-readable tables, every bench also records a
// machine-readable report: call open_report() first thing in main() and a
// BENCH_<name>.json lands in $VPROFILE_BENCH_JSON_DIR (or the CWD) at
// exit, stamped with the RunManifest (git describe, timestamp, every
// bench_seed the run looked up, the scale factor) plus per-section wall
// times, per-section metrics and scalars.  print_header /
// print_result / run_three_tests feed the report automatically, so a
// table bench needs no further changes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/units.hpp"
#include "sim/experiment.hpp"
#include "stats/confusion.hpp"

namespace bench {

/// Returns the fixed base seed for one bench, looked up by name.
///
/// Every bench draws its RNG stream from this single catalog instead of
/// scattering seed literals: the values are load-bearing (the printed
/// tables and figures are reproducible only while they stay put), and
/// keeping them in one audited place is what lets the determinism lint
/// rule hold over bench/. Aborts on an unknown name — a typo here must
/// not silently reseed a bench.
units::Seed64 bench_seed(std::string_view bench_name);

/// Scale factor from VPROFILE_BENCH_SCALE (default 1.0, clamped to
/// [0.05, 1000]).
double bench_scale();

/// Applies the scale to a nominal count, keeping a sane floor.
std::size_t scaled(std::size_t nominal);

/// Default experiment sizes for table benches.
sim::ExperimentParams default_params(vprofile::DistanceMetric metric);

/// Prints a section header.
void print_header(const std::string& title);

/// Prints one experiment result (confusion matrix + scores) with the
/// paper's reference value alongside.
void print_result(const std::string& label, const sim::ExperimentResult& r,
                  const std::string& paper_reference);

/// Runs the paper's three tests (false positive, hijack, foreign) on a
/// vehicle with one metric and prints the three confusion matrices in the
/// layout of Tables 4.1-4.4.
void run_three_tests(const std::string& table_name,
                     const sim::VehicleConfig& config, units::Seed64 seed,
                     vprofile::DistanceMetric metric,
                     const std::string& paper_fp,
                     const std::string& paper_hijack,
                     const std::string& paper_foreign);

// ---------------------------------------------------------------------------
// Machine-readable bench report (BENCH_<name>.json).

/// Named values attached to a report section or the report itself.
using ReportMetrics = std::vector<std::pair<std::string, double>>;

/// Opens the JSON report for this process; `name` becomes
/// BENCH_<name>.json.  Registers an atexit writer, so a bench that calls
/// nothing else still emits its manifest.  Idempotent.
void open_report(std::string_view name);

/// Records a section with an explicit duration.
void report_section_ns(const std::string& section, std::uint64_t wall_ns,
                       const ReportMetrics& metrics = {});

/// Records a section whose duration is the time since the previous report
/// event (open/mark/header) — how print_result attributes each
/// experiment's wall time without instrumenting the experiment itself.
void report_mark(const std::string& section, const ReportMetrics& metrics = {});

/// Adds one top-level scalar (throughputs, counts, derived stats).
void report_scalar(const std::string& key, double value);

/// Writes the report file now instead of at exit (idempotent; subsequent
/// report_* calls are dropped).  Returns false if nothing was open or the
/// write failed.
bool write_report();

}  // namespace bench
