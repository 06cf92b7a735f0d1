// fleet_wire: 16 tenants on their own connections, VPW bytes through
// wire::Decoder into FleetService::handle_wire_event (sync mode, lockstep
// supervisors, online update off).
//
// Closed loop, one generator thread: each connection gets one fixed-size
// read in turn, round-robin, and the next read is offered only when the
// previous one's frames have returned from the service.  Reads straddle
// frames, so the decoder's reassembly path runs.  Bytes are encoded in
// bounded batches outside the timed sections; every replay of a pool
// capture carries a fresh per-tenant sequence number so dedup never
// drops it.
//
// The reads are served with the whole process on one CPU (see OneCpu):
// each hop wakes one of sixteen worker threads that has slept for sixteen
// frames.  Every kBatchesPerCpu batches, untimed, the process moves to
// the next CPU it may use, so the run's median spans every CPU rather
// than one.  On one CPU a worker span that outlives the hand-back
// (pipeline.collect) also counts the caller's time until the worker runs
// again.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fleet/fleet_service.hpp"
#include "fleet/wire.hpp"
#include "layers.hpp"
#include "ledger.hpp"
#include "obs/trace_span.hpp"
#include "runtime/supervisor.hpp"
#include "sim/attack.hpp"
#include "sim/presets.hpp"
#include "world.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kTenantsPerVehicle = 8;
/// One socket read.
constexpr std::size_t kReadBytes = 16 * 1024;
/// Whole frames encoded per connection per batch: equal bytes per
/// connection, so vehicle_b tenants (half-size frames) send twice as
/// many frames as vehicle_a tenants.
constexpr std::size_t kBatchBytesPerConnection = 384 * 1024;
/// Batches served on one CPU before the process moves to the next.
constexpr std::size_t kBatchesPerCpu = 24;
/// Frames per traced (and paired untraced) phase, before scaling.
constexpr std::size_t kPhaseFrames = 1536;
constexpr std::size_t kTrainCaptures = 1000;
constexpr std::size_t kPoolPerTenantA = 24;
constexpr std::size_t kPoolPerTenantB = 48;

struct Tenant {
  std::string id;
  std::size_t vehicle = 0;          // index into World::models
  std::vector<dsp::Trace> pool;     // replayed cyclically
  std::vector<Outcome> expected;    // detect() verdict per pool capture
  // Per phase: one connection.
  std::uint64_t sent = 0;           // frames encoded = next sequence number
  std::unique_ptr<fleet::wire::Decoder> decoder;
  std::string stream;
  std::size_t cursor = 0;
};

struct World {
  std::vector<TrainingSet> training;  // vehicle_a, vehicle_b
  std::vector<vprofile::Model> models;
  std::vector<Tenant> tenants;
};

fleet::FleetConfig fleet_config(obs::Tracer* tracer) {
  fleet::FleetConfig cfg;
  cfg.threaded = false;
  cfg.tenant.supervisor.lockstep = true;
  cfg.tenant.supervisor.pipeline.num_workers = 1;
  cfg.tenant.supervisor.online_update = false;
  cfg.tenant.supervisor.pipeline.tracer = tracer;
  return cfg;
}

struct Setup {
  std::unique_ptr<fleet::FleetService> service;
  double total_s = 0.0;
  double train_s = 0.0;
  double register_s = 0.0;
};

/// Everything the system pays before its first frame: training both
/// vehicles' models, constructing the service, registering every tenant.
Setup set_up(World& w, obs::Tracer* tracer, Report* report) {
  Setup s;
  const std::uint64_t t0 = now_ns();
  std::vector<vprofile::Model> models;
  for (const TrainingSet& set : w.training) models.push_back(train(set));
  const std::uint64_t t1 = now_ns();
  s.service = std::make_unique<fleet::FleetService>(fleet_config(tracer));
  const std::uint64_t t2 = now_ns();
  for (const Tenant& t : w.tenants) {
    std::string error;
    if (!s.service->register_tenant(t.id, models[t.vehicle], &error)) {
      report->fail("register_tenant(" + t.id + "): " + error);
    }
  }
  const std::uint64_t t3 = now_ns();
  s.total_s = static_cast<double>(t3 - t0) * 1e-9;
  s.train_s = static_cast<double>(t1 - t0) * 1e-9;
  s.register_s = static_cast<double>(t3 - t2) * 1e-9;
  w.models = std::move(models);
  return s;
}

struct PhaseOutcome {
  Stopwatch watch;
  std::uint64_t offered = 0;   // every frame decoded, warm-up batches too
  std::uint64_t verdicts = 0;  // timed frames with a verdict
  std::uint64_t bytes = 0;     // timed bytes fed
};

/// Encodes the next batch of every connection (untimed).
void encode_batch(World& w) {
  for (Tenant& t : w.tenants) {
    t.stream.clear();
    t.cursor = 0;
    while (t.stream.size() < kBatchBytesPerConnection) {
      fleet::wire::Frame f;
      f.tenant = t.id;
      f.seq = t.sent;
      f.samples = t.pool[t.sent % t.pool.size()];
      t.stream += fleet::wire::encode(f);
      ++t.sent;
    }
  }
}

/// Feeds the encoded batch to the service, one read per connection in
/// turn.  Frame latencies go to `latency` when it is set.
void serve_batch(World& w, fleet::FleetService& service, obs::Tracer* tracer,
                 LatencyLog* latency, PhaseOutcome& out, Report* report) {
  bool pending = true;
  while (pending) {
    pending = false;
    for (Tenant& t : w.tenants) {
      if (t.cursor >= t.stream.size()) continue;
      const std::size_t n = std::min(kReadBytes, t.stream.size() - t.cursor);
      const std::uint64_t fed_at = now_ns();
      {
        obs::TraceSpan span(tracer, "fleet.wire.feed");
        t.decoder->feed(t.stream.data() + t.cursor, n);
      }
      t.cursor += n;
      pending = pending || t.cursor < t.stream.size();
      for (;;) {
        std::optional<fleet::wire::Decoder::Event> ev;
        {
          obs::TraceSpan span(tracer, "fleet.wire.next");
          ev = t.decoder->next();
        }
        if (!ev) break;
        ++out.offered;
        if (ev->error != fleet::wire::DecodeError::kNone) {
          ++report->failed;
          report->fail("tenant " + t.id + ": wire decode error " +
                       fleet::wire::to_string(ev->error));
          continue;
        }
        fleet::IngestResult result;
        {
          obs::TraceSpan span(tracer, "fleet.ingest");
          result = service.handle_wire_event(*ev);
        }
        if (result != fleet::IngestResult::kAccepted) {
          ++report->failed;
          report->fail("tenant " + t.id + " frame " +
                       std::to_string(ev->frame->seq) + ": " +
                       fleet::to_string(result));
          continue;
        }
        if (latency != nullptr) latency->add(now_ns() - fed_at);
      }
    }
  }
}

/// Serves encoded batches until `seconds` of timed wall time or
/// `max_frames` timed frames, whichever limit is set (0 = unset).  Every
/// kBatchesPerCpu batches the process moves to the next CPU, and the
/// first batch there is served untimed and untraced, so caches the move
/// left cold are warm again before timing resumes.
PhaseOutcome serve(World& w, fleet::FleetService& service, double seconds,
                   std::uint64_t max_frames, OneCpu& pin, obs::Tracer* tracer,
                   LatencyLog* latency, Report* report) {
  PhaseOutcome out;
  for (Tenant& t : w.tenants) {
    t.sent = 0;
    t.decoder = std::make_unique<fleet::wire::Decoder>();
  }
  auto done = [&] {
    if (!report->correct()) return true;  // no more verdicts will count
    if (seconds > 0.0 && out.watch.wall_s() >= seconds) return true;
    return max_frames != 0 && out.verdicts >= max_frames;
  };
  for (std::size_t batch = 0; !done(); ++batch) {
    encode_batch(w);
    if (batch % kBatchesPerCpu == 0) {
      pin.next();
      serve_batch(w, service, nullptr, nullptr, out, report);
      encode_batch(w);
    }
    std::uint64_t bytes = 0;
    for (const Tenant& t : w.tenants) bytes += t.stream.size();
    const std::uint64_t offered = out.offered;
    const std::uint64_t failed = report->failed;
    out.watch.start();
    serve_batch(w, service, tracer, latency, out, report);
    out.watch.stop();
    const std::uint64_t verdicts = out.offered - offered - (report->failed - failed);
    out.verdicts += verdicts;
    out.bytes += bytes;
    out.watch.end_unit(verdicts);
    if (latency != nullptr) latency->end_unit();
  }
  return out;
}

/// Checks every tenant against a direct runtime::Supervisor over the same
/// frames, whose sink is checked frame by frame against detect().  A
/// tenant that does not match counts all its frames as failed.
void check_tenants(const World& w, const fleet::FleetService& service,
                   Report* report) {
  const fleet::FleetConfig cfg = fleet_config(nullptr);
  for (const Tenant& t : w.tenants) {
    const std::optional<fleet::TenantSnapshot> snap = service.tenant(t.id);
    if (!snap) {
      report->failed += t.sent;
      report->fail("tenant " + t.id + ": missing from the service");
      continue;
    }
    std::uint64_t frame = 0;
    std::uint64_t mismatches = 0;
    std::string first;
    runtime::Supervisor ref(
        w.models[t.vehicle], cfg.tenant.supervisor,
        [&](const pipeline::FrameResult& r) {
          const Outcome got = outcome_of(r);
          const Outcome& want = t.expected[frame % t.pool.size()];
          if (!(got == want) && mismatches++ == 0) {
            first = "frame " + std::to_string(frame) + ": supervisor gave " +
                    to_string(got) + ", detect gives " + to_string(want);
          }
          ++frame;
        });
    for (std::uint64_t k = 0; k < snap->frames_accepted; ++k) {
      ref.submit(t.pool[k % t.pool.size()]);
      ref.poll((k + 1) * cfg.tenant.tick_ns_per_frame);
    }
    ref.finish();
    const std::uint64_t want_fp = fnv_fold(kFnvOffset, ref.fingerprint());
    if (mismatches != 0) {
      report->failed += t.sent;
      report->fail("tenant " + t.id + " " + first);
    } else if (snap->fingerprint != want_fp ||
               snap->frames_accepted != t.sent) {
      report->failed += t.sent;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "fingerprint %016llx over %llu accepted of %llu sent, "
                    "reference %016llx",
                    static_cast<unsigned long long>(snap->fingerprint),
                    static_cast<unsigned long long>(snap->frames_accepted),
                    static_cast<unsigned long long>(t.sent),
                    static_cast<unsigned long long>(want_fp));
      report->fail("tenant " + t.id + ": " + buf);
    }
  }
}

World make_world(const Options& opt) {
  World w;
  const analog::Environment env = analog::Environment::reference();
  struct Spec {
    sim::VehicleConfig config;
    const char* name;
    std::size_t pool;
  };
  const Spec specs[] = {
      {sim::vehicle_a(), "a", scaled(kPoolPerTenantA, opt, 2)},
      {sim::vehicle_b(), "b", scaled(kPoolPerTenantB, opt, 2)},
  };
  for (std::size_t v = 0; v < 2; ++v) {
    sim::Vehicle vehicle(specs[v].config, derive_seed(opt.seed, v));
    w.training.push_back(
        simulate_training(vehicle, kTrainCaptures));
    std::vector<dsp::Trace> stream = codes_of(sim::make_normal_stream(
        vehicle, kTenantsPerVehicle * specs[v].pool, env));
    for (std::size_t i = 0; i < kTenantsPerVehicle; ++i) {
      Tenant t;
      t.id = std::string("truck-") + specs[v].name + "-" + std::to_string(i);
      t.vehicle = v;
      for (std::size_t k = 0; k < specs[v].pool; ++k) {
        t.pool.push_back(std::move(stream[i * specs[v].pool + k]));
      }
      w.tenants.push_back(std::move(t));
    }
  }
  return w;
}

}  // namespace

void run_fleet_wire(const Options& opt, Report& report) {
  OneCpu pin;
  report.fact("workload.cpu", "one at a time, the next allowed CPU every " +
                                  std::to_string(kBatchesPerCpu) + " batches");
  World w = make_world(opt);
  report.fact("workload.shape",
              "closed loop, 1 generator thread, 16 connections round-robin, "
              "16 KiB reads, sync fleet, lockstep supervisors");
  report.fact("workload.tenants", std::to_string(w.tenants.size()));
  report.fact("pool.captures_per_tenant",
              std::to_string(w.tenants.front().pool.size()) + " (vehicle_a), " +
                  std::to_string(w.tenants.back().pool.size()) + " (vehicle_b)");
  report.fact("pool.training_captures",
              std::to_string(w.training.front().traces.size()) + " per vehicle");

  std::vector<double> setup_s;
  std::vector<double> train_s;
  std::vector<double> register_ms;
  std::unique_ptr<fleet::FleetService> service;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    service.reset();
    Setup s = set_up(w, nullptr, &report);
    setup_s.push_back(s.total_s);
    train_s.push_back(s.train_s);
    register_ms.push_back(s.register_s * 1e3 /
                          static_cast<double>(w.tenants.size()));
    service = std::move(s.service);
  }
  const vprofile::DetectionConfig detection =
      fleet_config(nullptr).tenant.supervisor.pipeline.detection;
  for (Tenant& t : w.tenants) {
    for (const dsp::Trace& trace : t.pool) {
      t.expected.push_back(reference_outcome(w.models[t.vehicle], trace, detection));
    }
  }

  if (!opt.trace) {
    LatencyLog latency;
    const PhaseOutcome p =
        serve(w, *service, opt.seconds, 0, pin, nullptr, &latency, &report);
    service->finish();
    report.attempted += p.offered;
    check_tenants(w, *service, &report);
    end_to_end(p.watch, &latency, setup_s, &report);
    return;
  }

  // Traced run: fixed-size phases, untraced and traced in turn, each on a
  // fresh service so every traced phase has its own tracer.
  service.reset();
  TraceTotals totals;
  const std::uint64_t phase_frames = scaled(kPhaseFrames, opt, 64);
  std::uint64_t traced_frames = 0;
  std::uint64_t wire_errors = 0;
  std::uint64_t wire_bytes = 0;
  double traced_wall_s = 0.0;
  double timed_s = 0.0;
  std::uint64_t fleet_offered = 0;
  std::uint64_t fleet_accepted = 0;
  do {
    for (const bool traced : {false, true}) {
      auto tracer = traced ? std::make_unique<obs::Tracer>() : nullptr;
      Setup s = set_up(w, tracer.get(), &report);
      const PhaseOutcome p = serve(w, *s.service, 0.0, phase_frames, pin,
                                   tracer.get(), nullptr, &report);
      s.service->finish();
      report.attempted += p.offered;
      check_tenants(w, *s.service, &report);
      timed_s += p.watch.wall_s();
      const double bpc = buses_per_core(p.verdicts, p.watch.cpu_s());
      if (!traced) {
        totals.untraced_buses_per_core.push_back(bpc);
        continue;
      }
      totals.traced_buses_per_core.push_back(bpc);
      totals.absorb(std::move(tracer));
      traced_frames += p.verdicts;
      traced_wall_s += p.watch.wall_s();
      wire_bytes += p.bytes;
      for (const Tenant& t : w.tenants) {
        wire_errors += t.decoder->stats().errors + t.decoder->stats().resyncs;
      }
      const fleet::FleetStats fs = s.service->stats();
      fleet_offered += fs.frames_offered;
      fleet_accepted += fs.frames_accepted;
    }
  } while (timed_s < opt.seconds && report.correct());

  const SpanLedger& spans = totals.spans;
  double decode_ns = 0.0;
  for (const char* name : {"fleet.wire.feed", "fleet.wire.next"}) {
    const auto it = spans.find(name);
    if (it != spans.end()) decode_ns += static_cast<double>(it->second.total_ns);
  }
  const double frames = static_cast<double>(std::max<std::uint64_t>(traced_frames, 1));
  report.add("fleet.wire.decode_ns_per_frame", decode_ns / frames, "ns");
  report.add("fleet.wire.decode_mib_per_s",
             decode_ns > 0.0 ? static_cast<double>(wire_bytes) / (decode_ns * 1e-9) /
                                   (1024.0 * 1024.0)
                             : 0.0,
             "MiB/s");
  report.add("fleet.wire.bytes_per_frame", static_cast<double>(wire_bytes) / frames,
             "bytes");
  std::vector<std::string> encoded;
  for (const Tenant& t : w.tenants) {
    for (const dsp::Trace& trace : t.pool) {
      fleet::wire::Frame f;
      f.tenant = t.id;
      f.samples = trace;
      encoded.push_back(fleet::wire::encode(f));
    }
  }
  crc_probe(encoded, 0.2, &report);
  report.add("fleet.ingest_self_ns_per_frame",
             self_ns_per(spans, "fleet.ingest", traced_frames), "ns");
  report.add("fleet.register_ms_per_tenant", median(register_ms), "ms");
  report.add("fleet.wire.errors", static_cast<double>(wire_errors), "count");
  report.add("fleet.accept_ratio",
             fleet_offered == 0 ? 0.0
                                : static_cast<double>(fleet_accepted) /
                                      static_cast<double>(fleet_offered),
             "ratio");
  pipeline_metrics(spans, traced_wall_s * static_cast<double>(w.tenants.size()),
                   &report);
  core_probes(w.models[0], w.tenants.front().pool,
              pipeline::PipelineConfig{}.batch_size, 0.2, &report);
  report.add("core.train_s", median(train_s), "s");
  totals.finish(opt.seed, &report);
  complete_per_layer(&report);
}

}  // namespace perfbench
