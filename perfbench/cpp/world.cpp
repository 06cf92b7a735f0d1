#include "world.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "core/extractor.hpp"
#include "layers.hpp"
#include "sim/presets.hpp"

namespace perfbench {

void Report::add(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Report::fact(std::string key, std::string value) {
  facts.emplace_back(std::move(key), std::move(value));
}

void Report::fail(const std::string& why) {
  if (failure.empty()) failure = workload + ": " + why;
}

double Report::value(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fleet_wire", "bus_adapt",
                                                 "bus_burst"};
  return names;
}

Report run_workload(const Options& opt) {
  Report report;
  report.workload = opt.workload;
  stamp_host_facts(&report);
  report.fact("workload.seed", std::to_string(opt.seed));
  if (opt.workload == "fleet_wire") {
    run_fleet_wire(opt, report);
  } else if (opt.workload == "bus_adapt") {
    run_bus_adapt(opt, report);
  } else if (opt.workload == "bus_burst") {
    run_bus_burst(opt, report);
  } else {
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  }
  return report;
}

std::size_t scaled(std::size_t n, const Options& opt, std::size_t min) {
  const double v = std::round(static_cast<double>(n) * opt.scale);
  return std::max(min, static_cast<std::size_t>(std::max(0.0, v)));
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  // splitmix64 finalizer over the pair.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

void Stopwatch::start() {
  wall0_ = now_ns();
  cpu0_ = process_cpu_s();
}

void Stopwatch::stop() {
  wall_s_ += static_cast<double>(now_ns() - wall0_) * 1e-9;
  cpu_s_ += process_cpu_s() - cpu0_;
}

void Stopwatch::end_unit(std::uint64_t frames) {
  const double wall = wall_s_ - unit_wall0_;
  const double cpu = cpu_s_ - unit_cpu0_;
  unit_wall0_ = wall_s_;
  unit_cpu0_ = cpu_s_;
  if (frames == 0 || wall <= 0.0 || cpu <= 0.0) return;
  frames_per_s_.push_back(static_cast<double>(frames) / wall);
  buses_per_core_.push_back(buses_per_core(frames, cpu));
}

TrainingSet simulate_training(sim::Vehicle& vehicle, std::size_t count) {
  TrainingSet set;
  set.extraction = sim::default_extraction(vehicle.config());
  set.database = vehicle.database();
  const analog::Environment env = analog::Environment::reference();
  for (sim::Capture& cap : vehicle.capture(count, env)) {
    set.traces.push_back(std::move(cap.codes));
  }
  return set;
}

vprofile::Model train(const TrainingSet& set) {
  std::vector<vprofile::EdgeSet> edge_sets;
  edge_sets.reserve(set.traces.size());
  for (const dsp::Trace& trace : set.traces) {
    if (auto es = vprofile::extract_edge_set(trace, set.extraction)) {
      edge_sets.push_back(std::move(*es));
    }
  }
  vprofile::TrainingConfig tc;
  tc.extraction = set.extraction;
  vprofile::TrainOutcome trained =
      vprofile::train_with_database(edge_sets, set.database, tc);
  if (!trained.ok()) {
    throw std::runtime_error("training failed: " + trained.error);
  }
  return std::move(*trained.model);
}

std::vector<dsp::Trace> codes_of(std::vector<sim::LabeledCapture>&& stream) {
  std::vector<dsp::Trace> out;
  out.reserve(stream.size());
  for (sim::LabeledCapture& lc : stream) out.push_back(std::move(lc.capture.codes));
  return out;
}

namespace {

// Mirrors runtime::Supervisor's fingerprint outcome codes.
constexpr std::uint64_t kCodeDropped = 1;
constexpr std::uint64_t kCodeWorkerError = 2;
constexpr std::uint64_t kCodeExtractError = 16;
constexpr std::uint64_t kCodeVerdict = 32;

}  // namespace

Outcome outcome_of(const pipeline::FrameResult& r) {
  Outcome o;
  if (r.dropped) {
    o.code = kCodeDropped;
  } else if (r.worker_error) {
    o.code = kCodeWorkerError;
  } else if (r.extract_error != vprofile::ExtractError::kNone) {
    o.code = kCodeExtractError + static_cast<std::uint64_t>(r.extract_error);
  } else {
    o.code = kCodeVerdict + static_cast<std::uint64_t>(r.detection->verdict);
    o.distance_bits = std::bit_cast<std::uint64_t>(r.detection->min_distance);
  }
  return o;
}

Outcome reference_outcome(const vprofile::Model& model, const dsp::Trace& trace,
                          const vprofile::DetectionConfig& detection) {
  Outcome o;
  vprofile::ExtractError err = vprofile::ExtractError::kNone;
  const auto edge_set =
      vprofile::extract_edge_set(trace, model.extraction(), &err);
  if (!edge_set) {
    o.code = kCodeExtractError + static_cast<std::uint64_t>(err);
    return o;
  }
  const vprofile::Detection det = vprofile::detect(model, *edge_set, detection);
  o.code = kCodeVerdict + static_cast<std::uint64_t>(det.verdict);
  o.distance_bits = std::bit_cast<std::uint64_t>(det.min_distance);
  return o;
}

std::string to_string(const Outcome& o) {
  char buf[96];
  if (o.code >= kCodeVerdict) {
    std::snprintf(buf, sizeof(buf), "verdict %s distance %.17g",
                  vprofile::to_string(
                      static_cast<vprofile::Verdict>(o.code - kCodeVerdict)),
                  std::bit_cast<double>(o.distance_bits));
  } else if (o.code >= kCodeExtractError) {
    std::snprintf(buf, sizeof(buf), "extract error %s",
                  vprofile::to_string(static_cast<vprofile::ExtractError>(
                      o.code - kCodeExtractError)));
  } else {
    std::snprintf(buf, sizeof(buf), "%s",
                  o.code == kCodeDropped ? "dropped" : "worker error");
  }
  return buf;
}

std::uint64_t fnv_fold(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFFu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

namespace {

/// Applies `mask` to every thread of the process; false if any refused.
bool set_process_affinity(const cpu_set_t& mask) {
  bool ok = true;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const pid_t tid = static_cast<pid_t>(
        std::strtol(entry.path().filename().c_str(), nullptr, 10));
    // A thread may end between listing and the call (ESRCH).
    if (sched_setaffinity(tid, sizeof(mask), &mask) != 0 && errno != ESRCH) {
      ok = false;
    }
  }
  return ok && !ec;
}

}  // namespace

OneCpu::OneCpu() {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &saved_)) last = c;
  }
  if (last < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  if (sched_setaffinity(0, sizeof(one), &one) == 0) cpu_ = last;
}

OneCpu::~OneCpu() {
  if (cpu_ >= 0) set_process_affinity(saved_);
}

void OneCpu::next() {
  if (cpu_ < 0) return;
  int c = cpu_;
  do {
    c = (c + 1) % CPU_SETSIZE;
  } while (!CPU_ISSET(c, &saved_));
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(c, &one);
  if (set_process_affinity(one)) cpu_ = c;
}

std::string scratch_dir(const Options& opt, const std::string& name) {
  const std::filesystem::path base =
      opt.out_dir.empty() ? std::filesystem::temp_directory_path()
                          : std::filesystem::path(opt.out_dir);
  const std::filesystem::path dir =
      base / (name + "-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  return dir.string();
}

}  // namespace perfbench
