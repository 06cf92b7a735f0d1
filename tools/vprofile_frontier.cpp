// vprofile_frontier — adaptive-adversary detection-frontier driver.
//
// Runs sim::AdversarySearch over the Sagong-style attack families
// (overcurrent shaping, voltage-corruption bursts, drift-exploiting slow
// masquerades), hill-climbing each family's parameters toward the plain
// detector's weakest cell and scoring every candidate against the full
// defense stack (plain / gated / drift sentinel / supervised runtime).
// Prints the frontier table, records a BENCH_frontier.json via the bench
// reporter, and writes the byte-stable machine-readable report
// (FrontierReport::to_json — no timestamps, no git state) to --out so two
// same-seed runs produce identical files.
//
// Usage:
//   vprofile_frontier [--preset a|b] [--margin M] [--train N]
//                     [--stream-count M] [--generations G] [--workers W]
//                     [--harm-shift CODES] [--evasion-floor F]
//                     [--out FILE] [--quick]
//
// --quick shrinks the workload (the reduced scale the `frontier` ctest
// label and the ASan job run); the full reference workload is the
// default.  The base seed always comes from the bench seed catalog
// (bench_seed("frontier")) — there is deliberately no --seed flag, so the
// published frontier artifacts stay tied to the audited catalog entry.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_common.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "sim/adversary.hpp"
#include "sim/scenario.hpp"

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: vprofile_frontier [--preset a|b] [--margin M] [--train N]\n"
      "                         [--stream-count M] [--generations G]\n"
      "                         [--workers W] [--harm-shift CODES]\n"
      "                         [--evasion-floor F] [--out FILE] [--quick]\n");
}

double parse_double(const char* arg) { return std::atof(arg); }

std::size_t parse_size(const char* arg) {
  const long v = std::atol(arg);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}

}  // namespace

int main(int argc, char** argv) {
  sim::AdversaryConfig config;
  std::string out_path = "FRONTIER_report.json";
  bool quick = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--preset") {
      config.preset = next();
    } else if (arg == "--margin") {
      config.margin = parse_double(next());
    } else if (arg == "--train") {
      config.train_count = parse_size(next());
    } else if (arg == "--stream-count") {
      config.stream_count = parse_size(next());
    } else if (arg == "--generations") {
      config.generations = parse_size(next());
    } else if (arg == "--workers") {
      config.num_workers = parse_size(next());
    } else if (arg == "--harm-shift") {
      config.harm_shift_frac = parse_double(next());
    } else if (arg == "--evasion-floor") {
      config.evasion_floor = parse_double(next());
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      usage();
      return 2;
    }
  }

  if (quick) {
    // train_count stays at the default: fewer training captures risk a
    // singular per-cluster covariance, and the trained model is cached
    // once per preset anyway — the candidate evaluations dominate.
    config.stream_count = 64;
    config.generations = 1;
  }

  bench::open_report("frontier");
  const units::Seed64 seed = bench::bench_seed("frontier");

  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  sim::ScenarioRunner runner(seed);
  runner.set_observability(&metrics, &tracer);

  sim::AdversarySearch search(runner, config);
  search.set_observability(&metrics, &tracer);

  sim::FrontierReport report;
  try {
    report = search.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vprofile_frontier: %s\n", e.what());
    return 1;
  }

  std::printf("detection frontier (preset %s, margin %g, %zu frames/eval, "
              "evasion floor %g)\n",
              config.preset.c_str(), config.margin, config.stream_count,
              config.evasion_floor);
  std::printf("%-18s %-12s %10s %10s %8s %12s\n", "family", "arm", "rate",
              "margin", "alarm", "closed-by");
  for (const sim::FamilyFrontier& f : report.families) {
    const char* closer = f.closing_defense.has_value()
                             ? sim::to_string(*f.closing_defense)
                             : "(open)";
    for (std::size_t a = 0; a < sim::kNumDefenseArms; ++a) {
      const sim::ArmOutcome& arm = f.weakest.arms[a];
      std::printf("%-18s %-12s %10.3f %10.3f %8s %12s\n",
                  a == 0 ? sim::to_string(f.family) : "",
                  sim::to_string(static_cast<sim::DefenseArm>(a)),
                  arm.detection_rate, arm.margin,
                  arm.stream_alarm ? "yes" : "no", a == 0 ? closer : "");
    }
    const auto specs = sim::AdversarySearch::param_specs(f.family);
    std::printf("  weakest cell:");
    for (std::size_t d = 0; d < sim::kNumAttackParams; ++d) {
      if (std::strcmp(specs[d].name, "unused") == 0) continue;
      std::printf(" %s=%g", specs[d].name, f.weakest.params[d]);
    }
    std::printf("  (%llu evaluations, %llu generations)\n",
                static_cast<unsigned long long>(f.evaluations),
                static_cast<unsigned long long>(f.generations));

    bench::report_mark(std::string("frontier/") + sim::to_string(f.family),
                       {{"plain_margin", f.weakest.plain_margin()},
                        {"evaluations", static_cast<double>(f.evaluations)},
                        {"closing_defense",
                         f.closing_defense.has_value()
                             ? static_cast<double>(*f.closing_defense)
                             : -1.0}});
  }
  bench::report_scalar("families", static_cast<double>(report.families.size()));
  bench::report_scalar("fingerprint_low32",
                       static_cast<double>(report.fingerprint() & 0xffffffff));

  std::string error;
  if (!obs::write_text_file(out_path, report.to_json(), &error)) {
    std::fprintf(stderr, "vprofile_frontier: write %s: %s\n", out_path.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf("frontier report: %s (fingerprint %016llx)\n", out_path.c_str(),
              static_cast<unsigned long long>(report.fingerprint()));
  return 0;
}
