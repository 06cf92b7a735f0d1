// bench_fleet — multi-tenant serving throughput through the fleet layer.
//
// Measures the two costs the fleet service adds on top of a bare
// supervisor: the binary wire codec (encode + decode of
// length-prefixed CRC-framed chunks) and the sharded ingest path
// (admission bookkeeping, per-tenant dedup, supervisor dispatch).  Eight
// tenants stream pre-captured benign frames; the same workload runs
// synchronously on 1 and 4 shards and threaded on 4 shards, and every
// arm's per-tenant fingerprints are checked bit-identical before any
// throughput is reported — a fast arm that diverges is a bug, not a win.
// Frame counts scale with VPROFILE_BENCH_SCALE like the other benches; the
// training set does not.  On a single-core container the threaded arm
// measures dispatch overhead, not parallel speedup.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/extractor.hpp"
#include "core/trainer.hpp"
#include "dsp/trace.hpp"
#include "fleet/fleet_service.hpp"
#include "fleet/wire.hpp"
#include "sim/attack.hpp"
#include "sim/presets.hpp"
#include "sim/vehicle.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<std::string> tenant_ids(std::size_t count) {
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < count; ++i) {
    ids.push_back("truck-" + std::to_string(i));
  }
  return ids;
}

fleet::FleetConfig fleet_config(std::size_t shards, bool threaded) {
  fleet::FleetConfig cfg;
  cfg.num_shards = shards;
  cfg.threaded = threaded;
  cfg.tenant.supervisor.online_update = false;
  return cfg;
}

struct RunOutcome {
  double seconds = 0.0;
  std::uint64_t frames_accepted = 0;
  std::map<std::string, std::uint64_t> fingerprints;
};

/// One full fleet run: register every tenant, interleave the slices
/// round-robin (fixed arrival order), drain, snapshot fingerprints.
RunOutcome run_fleet(const fleet::FleetConfig& cfg,
                     const vprofile::Model& model,
                     const std::vector<std::string>& ids,
                     const std::vector<std::vector<dsp::Trace>>& slices) {
  fleet::FleetService service(cfg);
  for (const std::string& id : ids) {
    if (!service.register_tenant(id, model)) {
      std::fprintf(stderr, "register_tenant(%s) failed\n", id.c_str());
      std::abort();
    }
  }
  const std::size_t frames_per_tenant = slices.front().size();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < frames_per_tenant; ++i) {
    for (std::size_t t = 0; t < ids.size(); ++t) {
      service.ingest(ids[t], slices[t][i]);
    }
  }
  service.finish();
  RunOutcome out;
  out.seconds = seconds_since(t0);
  out.frames_accepted = service.stats().frames_accepted;
  for (const fleet::TenantSnapshot& snap : service.tenants()) {
    out.fingerprints[snap.id] = snap.fingerprint;
  }
  return out;
}

}  // namespace

int main() {
  bench::open_report("fleet");
  // Training is not what this bench measures: a fixed capture count keeps
  // every cluster's covariance well-conditioned at any bench scale.
  const std::size_t train_count = 2000;
  const std::size_t tenant_count = 8;
  const std::size_t frames_per_tenant = bench::scaled(300);

  bench::print_header("fleet service: wire codec + sharded ingest");
  std::printf("%zu tenants, %zu frames/tenant, train %zu msgs\n\n",
              tenant_count, frames_per_tenant, train_count);

  sim::Vehicle vehicle(sim::vehicle_a(), bench::bench_seed("fleet"));
  const analog::Environment env = analog::Environment::reference();
  const auto extraction = sim::default_extraction(vehicle.config());

  std::vector<vprofile::EdgeSet> training;
  training.reserve(train_count);
  for (const sim::Capture& cap : vehicle.capture(train_count, env)) {
    if (auto es = vprofile::extract_edge_set(cap.codes, extraction)) {
      training.push_back(std::move(*es));
    }
  }
  vprofile::TrainingConfig tc;
  tc.extraction = extraction;
  auto trained = vprofile::train_with_database(training, vehicle.database(), tc);
  if (!trained.ok()) {
    std::fprintf(stderr, "training failed: %s\n", trained.error.c_str());
    return 1;
  }
  const vprofile::Model model = std::move(*trained.model);

  const std::vector<std::string> ids = tenant_ids(tenant_count);
  const std::size_t total_frames = tenant_count * frames_per_tenant;
  auto stream = sim::make_normal_stream(vehicle, total_frames, env);
  std::vector<std::vector<dsp::Trace>> slices(tenant_count);
  for (std::size_t t = 0; t < tenant_count; ++t) {
    for (std::size_t i = 0; i < frames_per_tenant; ++i) {
      slices[t].push_back(
          std::move(stream[t * frames_per_tenant + i].capture.codes));
    }
  }

  // --- Wire codec: encode then decode the whole fleet's uplink. ---------
  auto t0 = Clock::now();
  std::vector<std::string> chunks;
  chunks.reserve(total_frames);
  std::uint64_t wire_bytes = 0;
  for (std::size_t t = 0; t < tenant_count; ++t) {
    for (std::size_t i = 0; i < frames_per_tenant; ++i) {
      fleet::wire::Frame f;
      f.tenant = ids[t];
      f.seq = i;
      f.samples = slices[t][i];
      chunks.push_back(fleet::wire::encode(f));
      wire_bytes += chunks.back().size();
    }
  }
  const double encode_s = seconds_since(t0);

  t0 = Clock::now();
  fleet::wire::Decoder decoder;
  std::uint64_t decoded = 0;
  for (const std::string& chunk : chunks) {
    decoder.feed(chunk.data(), chunk.size());
    while (const auto ev = decoder.next()) {
      if (ev->frame.has_value()) ++decoded;
    }
  }
  const double decode_s = seconds_since(t0);
  if (decoded != total_frames) {
    std::fprintf(stderr, "wire decode lost frames: %llu of %zu\n",
                 static_cast<unsigned long long>(decoded), total_frames);
    return 1;
  }
  const double mb = static_cast<double>(wire_bytes) / (1024.0 * 1024.0);
  std::printf("wire encode : %7.0f frames/s  (%.1f MiB/s)\n",
              static_cast<double>(total_frames) / encode_s, mb / encode_s);
  std::printf("wire decode : %7.0f frames/s  (%.1f MiB/s)\n\n",
              static_cast<double>(total_frames) / decode_s, mb / decode_s);
  bench::report_section_ns(
      "wire_encode", static_cast<std::uint64_t>(encode_s * 1e9),
      {{"frames_per_s", static_cast<double>(total_frames) / encode_s},
       {"mib_per_s", mb / encode_s}});
  bench::report_section_ns(
      "wire_decode", static_cast<std::uint64_t>(decode_s * 1e9),
      {{"frames_per_s", static_cast<double>(total_frames) / decode_s},
       {"mib_per_s", mb / decode_s}});

  // --- Sharded ingest: sync 1/4 shards, threaded 4 shards. --------------
  struct Arm {
    const char* label;
    std::size_t shards;
    bool threaded;
  };
  const std::vector<Arm> arms = {{"sync    1 shard ", 1, false},
                                 {"sync    4 shards", 4, false},
                                 {"threaded 4 shards", 4, true}};
  std::vector<RunOutcome> outcomes;
  for (const Arm& arm : arms) {
    outcomes.push_back(
        run_fleet(fleet_config(arm.shards, arm.threaded), model, ids, slices));
  }
  // Equivalence gate: every arm must score bit-identically before any
  // throughput number is believed.
  for (std::size_t a = 1; a < outcomes.size(); ++a) {
    if (outcomes[a].fingerprints != outcomes[0].fingerprints) {
      std::fprintf(stderr, "arm '%s' diverged from the reference arm\n",
                   arms[a].label);
      return 1;
    }
  }
  for (std::size_t a = 0; a < arms.size(); ++a) {
    const double fps =
        static_cast<double>(outcomes[a].frames_accepted) / outcomes[a].seconds;
    std::printf("ingest %s : %7.0f frames/s  (%llu accepted, %.2fs)\n",
                arms[a].label, fps,
                static_cast<unsigned long long>(outcomes[a].frames_accepted),
                outcomes[a].seconds);
    std::string key = "ingest_" + std::to_string(arms[a].shards) +
                      (arms[a].threaded ? "_threaded" : "_sync");
    bench::report_section_ns(
        key, static_cast<std::uint64_t>(outcomes[a].seconds * 1e9),
        {{"frames_per_s", fps},
         {"frames_accepted",
          static_cast<double>(outcomes[a].frames_accepted)}});
  }
  std::printf("\nall arms bit-identical per tenant: yes\n");
  bench::report_scalar("tenants", static_cast<double>(tenant_count));
  bench::report_scalar("frames_per_tenant",
                       static_cast<double>(frames_per_tenant));
  return 0;
}
