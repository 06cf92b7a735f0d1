// vprofile_perfbench — frame-cost benchmark.
//
//   vprofile_perfbench --workload fleet_wire|bus_adapt|bus_burst
//                      --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints host facts and every metric by name with its unit, then, as the
// last line, one JSON object: {"correct", "attempted", "failed",
// "metrics"}.  --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ledger (and writes a Chrome trace into --out-dir).  A run
// whose verdicts do not match the reference prints what failed to stderr,
// prints no number, and exits 1.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "layers.hpp"
#include "obs/manifest.hpp"
#include "world.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: vprofile_perfbench --workload "
               "fleet_wire|bus_adapt|bus_burst --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n");
  return 2;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string result_json(const perfbench::Report& r) {
  std::string out = "{\"correct\": ";
  out += r.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    if (i != 0) out += ", ";
    out += obs::json_quote(m.name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + obs::json_quote(m.unit) + "}";
  }
  return out + "}}";
}

std::string report_json(const perfbench::Report& r, const perfbench::Options& opt) {
  std::string out = "{\"workload\": " + obs::json_quote(r.workload) +
                    ", \"seed\": " + std::to_string(opt.seed) +
                    ", \"seconds\": " + number(opt.seconds) +
                    ", \"trace\": " + (opt.trace ? "1" : "0") + ", \"facts\": {";
  for (std::size_t i = 0; i < r.facts.size(); ++i) {
    if (i != 0) out += ", ";
    out += obs::json_quote(r.facts[i].first) + ": " +
           obs::json_quote(r.facts[i].second);
  }
  return out + "}, \"result\": " + result_json(r) + "}\n";
}

bool write_file(const std::string& path, const std::string& body) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << body;
  return static_cast<bool>(f);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage();
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) return usage();
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage();
      opt.trace = value == "1";
      have_trace = true;
    } else if (arg == "--out-dir") {
      opt.out_dir = value;
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || !have_trace) return usage();

  // Keep freed memory in the process.  Batch preparation frees and
  // re-allocates whole batches of captures; handing them back to the
  // kernel each time would make every batch, and the frees inside the
  // timed sections, pay page faults and trims that a long-running
  // monitor in steady state does not.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  perfbench::Report report;
  try {
    report = perfbench::run_workload(opt);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: benchmark error: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  if (!report.correct()) {
    std::fprintf(stderr, "FAILED %s\n  %llu of %llu frames failed\n",
                 report.failure.empty() ? report.workload.c_str()
                                        : report.failure.c_str(),
                 static_cast<unsigned long long>(report.failed),
                 static_cast<unsigned long long>(report.attempted));
    return 1;
  }
  if (!opt.trace) {
    report.add("error_rate",
               report.attempted == 0 ? 1.0
                                     : static_cast<double>(report.failed) /
                                           static_cast<double>(report.attempted),
               "ratio");
  }
  for (const perfbench::Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "%s: metric %s is not finite\n",
                   report.workload.c_str(), m.name.c_str());
      return 1;
    }
  }

  std::printf("# vprofile_perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              report.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  for (const auto& [key, value] : report.facts) {
    std::printf("# %-36s %s\n", key.c_str(), value.c_str());
  }
  std::printf("# frames offered %llu, failed %llu\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!opt.out_dir.empty()) {
    const std::string stem = opt.out_dir + "/" + report.workload + "-seed" +
                             std::to_string(opt.seed);
    const std::string report_path = stem + "-trace" + (opt.trace ? "1" : "0") + ".json";
    if (!write_file(report_path, report_json(report, opt))) {
      std::fprintf(stderr, "cannot write %s\n", report_path.c_str());
      return 1;
    }
    std::printf("# report %s\n", report_path.c_str());
    if (!report.chrome_trace.empty()) {
      const std::string trace_path = stem + ".trace.json";
      if (!write_file(trace_path, report.chrome_trace)) {
        std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
        return 1;
      }
      std::printf("# chrome trace %s\n", trace_path.c_str());
    }
  }
  const double dropped = report.value("obs.tracer_dropped");
  if (opt.trace && dropped != 0.0) {
    std::printf("# WARNING tracer dropped %.0f spans: per-layer figures are "
                "incomplete\n", dropped);
  }
  std::printf("%s\n", result_json(report).c_str());
  return 0;
}
