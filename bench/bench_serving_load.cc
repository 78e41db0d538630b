// Serving-load gate (DESIGN.md §12): drives the degradation-aware serving
// path with the microrec::load traffic driver and fails CI when the
// serving SLOs or the concurrency-determinism contract break.
//
// Three runs of the same seeded workload:
//   run A  1 client thread, closed loop  — the throughput / latency run
//           the QPS floor and p99 ceiling gate on;
//   run B  4 client threads, closed loop — must serve byte-identical
//           rankings (rankings_hash == run A's: every recommend op's tie
//           permutation is a pure function of (seed, rid)), and on a
//           machine with >= 4 hardware threads at least run A's QPS: the
//           request path takes no shared lock, so added clients must not
//           slow serving down;
//   run C  repeat of run B               — must reproduce the schedule
//           hash, the rung mix and the rankings hash exactly.
// Latency quantiles are within 1% of the exact order statistics at any
// schedule length (obs::Histogram).
//
// Gates (env-tunable so slow CI runners can widen them):
//   MICROREC_LOAD_QPS_FLOOR       minimum run-A QPS        (default 100)
//   MICROREC_LOAD_P99_CEILING_MS  maximum run-A p99, in ms (default 100)
//   MICROREC_LOAD_REQUESTS        schedule length          (default 600)
//
// Output: a run report (default BENCH_serving_load.json) with the measured
// QPS, latency quantiles, rung mix and gate verdicts, plus — when
// MICROREC_FLIGHT=<path> is set — a flight-recorder JSONL of registry
// samples taken while the load ran.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "load/driver.h"
#include "load/serving_backend.h"
#include "load/workload.h"
#include "obs/flight_recorder.h"
#include "rec/serving.h"
#include "stream/live.h"
#include "stream/session.h"

using namespace microrec;

namespace {

struct Gate {
  std::string name;
  bool passed = false;
  std::string detail;
};

void Check(std::vector<Gate>* gates, const std::string& name, bool passed,
           const std::string& detail) {
  gates->push_back(Gate{name, passed, detail});
  std::printf("%s  %-34s %s\n", passed ? "PASS" : "FAIL", name.c_str(),
              detail.c_str());
}

std::string Hex(uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchIo io = bench::ParseBenchArgs(argc, argv);
  if (io.report_path.empty()) io.report_path = "BENCH_serving_load.json";
  bench::Workbench workbench = bench::MakeWorkbench();
  eval::ExperimentRunner& runner = *workbench.runner;

  // The primary model: cheapest bag configuration (TN), trained once and
  // snapshotted — load-time rung 0 is the paper's train-once /
  // recommend-many serving shape.
  Result<rec::ModelConfig> config =
      [&]() -> Result<rec::ModelConfig> {
    for (const rec::ModelConfig& candidate :
         rec::EnumerateConfigs(rec::ModelKind::kTN)) {
      if (candidate.IsValidForSource(
              corpus::HasNegativeExamples(corpus::Source::kR))) {
        return candidate;
      }
    }
    return Status::NotFound("no valid TN configuration for source R");
  }();
  if (!config.ok()) {
    std::fprintf(stderr, "error: %s\n", config.status().ToString().c_str());
    return 1;
  }
  const corpus::Source source = corpus::Source::kR;
  rec::EngineContext ctx = runner.MakeContext(*config, source);

  const std::vector<corpus::UserId>& users =
      runner.GroupUsers(corpus::UserType::kAllUsers);
  if (users.empty()) {
    std::fprintf(stderr, "error: no evaluable users in the cohort\n");
    return 1;
  }

  const std::string snapshot_dir =
      (std::filesystem::temp_directory_path() / "microrec_bench_serving")
          .string();
  std::filesystem::create_directories(snapshot_dir);
  const std::string snapshot_path = snapshot_dir + "/primary.snap";
  {
    std::unique_ptr<rec::Engine> engine = rec::MakeEngine(*config);
    if (Status st = engine->Prepare(ctx); !st.ok()) {
      std::fprintf(stderr, "error: prepare: %s\n", st.ToString().c_str());
      return 1;
    }
    for (corpus::UserId u : users) {
      if (Status st = engine->BuildUser(u, ctx.train_set(u), ctx); !st.ok()) {
        std::fprintf(stderr, "error: build user: %s\n",
                     st.ToString().c_str());
        return 1;
      }
    }
    if (Status st = engine->SaveSnapshot(snapshot_path, ctx); !st.ok()) {
      std::fprintf(stderr, "error: snapshot: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  rec::ServingOptions serving;
  serving.primary = *config;
  serving.snapshot_path = snapshot_path;
  serving.top_k = 10;
  serving.score_threads = 1;  // client threads are the concurrency axis
  serving.score_cache_capacity = 4096;

  load::ServingBackend::Options backend;
  backend.ctx = &ctx;
  backend.serving = serving;
  backend.users = users;
  backend.candidates = [&runner](corpus::UserId u) {
    return runner.SplitOf(u).TestSet();
  };
  load::BackendFactory factory = load::ServingBackend::Factory(backend);

  load::WorkloadOptions spec;
  spec.seed = static_cast<uint64_t>(bench::EnvDouble("MICROREC_SEED", 42));
  spec.num_requests = bench::EnvSize("MICROREC_LOAD_REQUESTS", 600);
  spec.num_users = users.size();
  spec.zipf_skew = 1.0;
  Result<load::Workload> workload = load::Workload::Build(spec);
  if (!workload.ok()) {
    std::fprintf(stderr, "error: %s\n", workload.status().ToString().c_str());
    return 1;
  }

  // Sample the registry while the load runs: rung flips and latency drift
  // become a replayable time series instead of one end-of-run number.
  std::unique_ptr<obs::FlightRecorder> flight;
  if (const char* path = std::getenv("MICROREC_FLIGHT");
      path != nullptr && path[0] != '\0') {
    obs::FlightRecorder::Options options;
    options.path = path;
    options.interval_seconds = 0.05;
    flight = std::make_unique<obs::FlightRecorder>(options);
  }

  auto run = [&](uint64_t threads) -> Result<load::LoadReport> {
    load::DriverOptions driver;
    driver.threads = threads;
    return load::RunLoad(*workload, driver, factory);
  };
  Result<load::LoadReport> a = run(1);
  Result<load::LoadReport> b = run(4);
  Result<load::LoadReport> c = run(4);
  if (flight != nullptr) flight->Stop();
  for (const auto* r : {&a, &b, &c}) {
    if (!r->ok()) {
      std::fprintf(stderr, "error: %s\n", r->status().ToString().c_str());
      return 1;
    }
  }

  std::printf("# run A (1 thread):  %.0f qps, p50 %.2fms p99 %.2fms\n",
              a->qps, a->latency.p50 * 1e3, a->latency.p99 * 1e3);
  std::printf("# run B (4 threads): %.0f qps, p50 %.2fms p99 %.2fms\n",
              b->qps, b->latency.p50 * 1e3, b->latency.p99 * 1e3);
  std::printf("# rung mix A: %llu primary / %llu bag-fallback / %llu "
              "popularity, %llu errors\n",
              static_cast<unsigned long long>(a->per_rung[0]),
              static_cast<unsigned long long>(a->per_rung[1]),
              static_cast<unsigned long long>(a->per_rung[2]),
              static_cast<unsigned long long>(a->errors));

  // Defaults hold >10x headroom over a single-core dev box (~13k qps,
  // p99 ~0.5ms at the default 600-request schedule).
  const double qps_floor =
      bench::EnvDouble("MICROREC_LOAD_QPS_FLOOR", 100.0);
  const double p99_ceiling_ms =
      bench::EnvDouble("MICROREC_LOAD_P99_CEILING_MS", 100.0);
  const double p99_ms = a->latency.p99 * 1e3;

  std::vector<Gate> gates;
  Check(&gates, "qps_floor", a->qps >= qps_floor,
        bench::F3(a->qps) + " qps >= " + bench::F3(qps_floor));
  Check(&gates, "p99_ceiling", p99_ms <= p99_ceiling_ms,
        bench::F3(p99_ms) + " ms <= " + bench::F3(p99_ceiling_ms) + " ms");
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  const bool can_scale = hardware_threads >= 4;
  Check(&gates, "qps_scales_with_threads", !can_scale || b->qps >= a->qps,
        can_scale ? bench::F3(b->qps) + " qps (4 threads) >= " +
                        bench::F3(a->qps) + " qps (1 thread)"
                  : "skipped: " + std::to_string(hardware_threads) +
                        " hardware threads < 4");
  Check(&gates, "rankings_thread_invariant",
        a->rankings_hash == b->rankings_hash,
        Hex(a->rankings_hash) + " (1 thread) vs " + Hex(b->rankings_hash) +
            " (4 threads)");
  Check(&gates, "schedule_replay",
        b->schedule_hash == c->schedule_hash &&
            b->rankings_hash == c->rankings_hash &&
            b->per_rung == c->per_rung,
        "repeat run reproduced schedule, rankings and rung mix");
  Check(&gates, "all_queries_accounted",
        a->per_rung[0] + a->per_rung[1] + a->per_rung[2] + a->errors ==
            a->per_op[0],
        "rung counts + errors == recommend ops");
  Check(&gates, "no_errors", a->errors == 0 && a->warm_failures == 0,
        std::to_string(a->errors) + " errors, " +
            std::to_string(a->warm_failures) + " warm failures");

  // --- mixed ingest+recommend under rotation (DESIGN.md §14) -------------
  // Stream the back half of the cohort, query only the front half, whose
  // models never move. The same mixed schedule runs against a no-op
  // ingest baseline and against live WAL-backed ingest at S=1 and S=4
  // epoch shards: zero errors in all three, and the recommend rankings
  // hash must be identical — epoch rotation is invisible to users whose
  // models didn't change.
  uint64_t mixed_epoch_s1 = 0, mixed_epoch_s4 = 0;
  Result<load::LoadReport> mixed_base = Status::Internal("not run");
  Result<load::LoadReport> mixed_s1 = Status::Internal("not run");
  Result<load::LoadReport> mixed_s4 = Status::Internal("not run");
  {
    std::vector<corpus::UserId> query_users(
        users.begin(),
        users.begin() + static_cast<ptrdiff_t>(users.size() / 2));
    std::vector<corpus::UserId> stream_users(
        users.begin() + static_cast<ptrdiff_t>(users.size() / 2),
        users.end());
    if (query_users.empty() || stream_users.empty()) {
      std::fprintf(stderr, "error: cohort too small to split\n");
      return 1;
    }
    load::WorkloadOptions mixed_spec = spec;
    mixed_spec.num_users = query_users.size();
    mixed_spec.mix.recommend = 0.82;
    mixed_spec.mix.profile_lookup = 0.08;
    mixed_spec.mix.snapshot_warm = 0.02;
    mixed_spec.mix.ingest = 0.08;
    Result<load::Workload> mixed = load::Workload::Build(mixed_spec);
    if (!mixed.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   mixed.status().ToString().c_str());
      return 1;
    }
    stream::StreamCutOptions cut_options;
    cut_options.cut_fraction = 0.5;
    cut_options.stream_users = stream_users;
    Result<stream::StreamCut> cut = stream::MakeStreamCut(ctx, cut_options);
    if (!cut.ok()) {
      std::fprintf(stderr, "error: %s\n", cut.status().ToString().c_str());
      return 1;
    }

    auto mixed_run = [&](size_t shards, bool live_ingest,
                         uint64_t* final_epoch) -> Result<load::LoadReport> {
      stream::StreamSessionOptions session_options;
      session_options.config = *config;
      session_options.dir = snapshot_dir + "/stream_s" +
                            std::to_string(shards) +
                            (live_ingest ? "" : "_baseline");
      Result<std::unique_ptr<stream::StreamSession>> session =
          stream::StreamSession::Open(ctx, *cut, session_options);
      if (!session.ok()) return session.status();
      stream::StreamSession* raw = session->get();
      stream::LiveRecommender::Options live_options;
      live_options.serving = serving;
      live_options.num_shards = shards;
      auto live =
          std::make_shared<stream::LiveRecommender>(ctx, live_options);
      MICROREC_RETURN_IF_ERROR(live->Publish(raw->checkpoint_snapshot_path(),
                                             raw->epoch(),
                                             raw->CopyTrainSets()));
      stream::LiveBackend::Options live_backend;
      live_backend.live = live;
      live_backend.users = query_users;
      live_backend.candidates = backend.candidates;
      if (live_ingest) {
        live_backend.ingest = [raw, live](uint64_t) -> Result<uint64_t> {
          Result<uint64_t> applied = raw->IngestNext();
          if (!applied.ok()) return applied.status();
          if (*applied == 0) return applied;  // drained
          MICROREC_RETURN_IF_ERROR(raw->Checkpoint());
          MICROREC_RETURN_IF_ERROR(
              live->Publish(raw->checkpoint_snapshot_path(), raw->epoch(),
                            raw->CopyTrainSets()));
          return applied;
        };
      } else {
        // Accepted but nothing applied: the models never rotate, making
        // this run the hash baseline for the live-ingest runs.
        live_backend.ingest = [](uint64_t) -> Result<uint64_t> {
          return static_cast<uint64_t>(0);
        };
      }
      load::DriverOptions driver;
      driver.threads = 2;
      Result<load::LoadReport> report = load::RunLoad(
          *mixed, driver,
          stream::LiveBackend::Factory(std::move(live_backend)));
      if (final_epoch != nullptr) *final_epoch = live->EpochOf(shards - 1);
      return report;
    };
    mixed_base = mixed_run(1, false, nullptr);
    mixed_s1 = mixed_run(1, true, &mixed_epoch_s1);
    mixed_s4 = mixed_run(4, true, &mixed_epoch_s4);
    for (const auto* r : {&mixed_base, &mixed_s1, &mixed_s4}) {
      if (!r->ok()) {
        std::fprintf(stderr, "error: mixed run: %s\n",
                     r->status().ToString().c_str());
        return 1;
      }
    }
    std::printf("# mixed ingest: %llu ops applied to epoch %llu (S=1) / "
                "%llu (S=4)\n",
                static_cast<unsigned long long>(mixed_s1->per_op[3]),
                static_cast<unsigned long long>(mixed_epoch_s1),
                static_cast<unsigned long long>(mixed_epoch_s4));
    Check(&gates, "mixed_no_errors",
          mixed_base->errors == 0 && mixed_s1->errors == 0 &&
              mixed_s4->errors == 0,
          std::to_string(mixed_base->errors) + " / " +
              std::to_string(mixed_s1->errors) + " / " +
              std::to_string(mixed_s4->errors) +
              " errors (baseline / S=1 / S=4)");
    Check(&gates, "mixed_rankings_rotation_invariant",
          mixed_base->rankings_hash == mixed_s1->rankings_hash &&
              mixed_base->rankings_hash == mixed_s4->rankings_hash,
          Hex(mixed_base->rankings_hash) + " across no-op, S=1, S=4");
    // Both live runs must actually have rotated, or the gate above is
    // vacuously green.
    Check(&gates, "mixed_epochs_advanced",
          mixed_epoch_s1 > 1 && mixed_epoch_s4 > 1,
          "final epochs " + std::to_string(mixed_epoch_s1) + " (S=1), " +
              std::to_string(mixed_epoch_s4) + " (S=4)");
  }

  bool all_passed = true;
  for (const Gate& gate : gates) all_passed = all_passed && gate.passed;

  obs::RunReport report("bench_serving_load");
  report.AddScalar("qps", a->qps);
  report.AddScalar("qps_floor", qps_floor);
  report.AddScalar("p50_ms", a->latency.p50 * 1e3);
  report.AddScalar("p99_ms", p99_ms);
  report.AddScalar("p999_ms", a->latency.p999 * 1e3);
  report.AddScalar("p99_ceiling_ms", p99_ceiling_ms);
  report.AddScalar("requests", static_cast<double>(a->total_requests));
  report.AddScalar("threads_compared", 4.0);
  report.AddScalar("rung_primary", static_cast<double>(a->per_rung[0]));
  report.AddScalar("rung_bag_fallback", static_cast<double>(a->per_rung[1]));
  report.AddScalar("rung_popularity", static_cast<double>(a->per_rung[2]));
  report.AddScalar("errors", static_cast<double>(a->errors));
  report.AddText("schedule_hash", Hex(a->schedule_hash));
  report.AddText("rankings_hash", Hex(a->rankings_hash));
  if (mixed_s1.ok()) {
    report.AddScalar("mixed_ingest_ops",
                     static_cast<double>(mixed_s1->per_op[3]));
    report.AddScalar("mixed_epoch_s1", static_cast<double>(mixed_epoch_s1));
    report.AddScalar("mixed_epoch_s4", static_cast<double>(mixed_epoch_s4));
    report.AddText("mixed_rankings_hash", Hex(mixed_s1->rankings_hash));
  }
  for (const Gate& gate : gates) {
    report.AddScalar("gate_" + gate.name, gate.passed ? 1.0 : 0.0);
  }
  report.AddText("load_report_a", a->ToJson());
  report.AddText("load_report_b", b->ToJson());
  report.AttachMetrics(obs::MetricsRegistry::Global().Snapshot());
  if (report.WriteFile(io.report_path)) {
    std::fprintf(stderr, "# report written to %s\n", io.report_path.c_str());
  }

  std::error_code ec;
  std::filesystem::remove_all(snapshot_dir, ec);
  obs::StopTracing();
  if (!all_passed) {
    std::fprintf(stderr, "serving-load gate FAILED\n");
    return 1;
  }
  std::printf("serving-load gate passed\n");
  return 0;
}
