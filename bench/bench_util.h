// Shared workbench for the reproduction benches: builds the synthetic
// corpus, cohort, pre-processing and experiment runner once, with
// environment knobs controlling scale:
//   MICROREC_SCALE       "small" (default) | "medium"  — corpus size
//   MICROREC_SEED        generator seed (default 42)
//   MICROREC_ITER_SCALE  topic-model Gibbs budget multiplier (default 0.03;
//                        1.0 reproduces the paper's 1,000/2,000 sweeps)
//   MICROREC_MAX_CONFIGS per-model configuration cap for sweeps (default
//                        varies per bench; 0 = full grid)
//   MICROREC_FULL_GRID   "1" forces the complete 223-configuration grid
//   MICROREC_SNAPSHOT_DIR  persist every run's trained engine to this
//                        directory (microrec.snap/2 files, DESIGN.md §8)
//   MICROREC_WARM_START  "1" warm-starts each run from its snapshot when
//                        one exists — TTime collapses to load time
//                        (--snapshot-dir= / --warm-start flags work too)
//   MICROREC_TRAIN_THREADS  threads for sharded topic-model training
//                        (default 1 = the paper's sequential sampler;
//                        > 1 is statistically equivalent, DESIGN.md §10)
//   MICROREC_SAMPLER_KERNEL  Gibbs draw kernel for LDA/LLDA/BTM: "dense"
//                        (default, bit-identical to the paper), "sparse"
//                        (SparseLDA buckets) or "alias" (stale alias tables
//                        with MH correction; its tables rebuild every 32
//                        draws) — DESIGN.md §15
//   MICROREC_SERVE_MODE  "resident" (default) or "mmap" — how warm starts
//                        hold the snapshot; rankings are identical, only
//                        residency differs
//
// Every bench also understands observability flags (see DESIGN.md):
//   --report=<path>   structured JSON run report (metrics snapshot incl.
//                     TTime/ETime histograms); MICROREC_REPORT env works too
//   --metrics=<path>  raw metrics snapshot JSON
//   --trace=<path>    Chrome trace_event JSON (same as MICROREC_TRACE env)
//
// And the resilience flags (see DESIGN.md, "Resilience"):
//   --checkpoint=<path>  stream sweep outcomes to a JSONL checkpoint and
//                        resume past completed configurations on restart
//                        (MICROREC_CHECKPOINT env works too)
//   --fail-fast          abort a sweep on the first failed configuration
//                        instead of isolating it
// Fault injection is armed via MICROREC_FAULTS (see src/resilience/fault.h).
#ifndef MICROREC_BENCH_BENCH_UTIL_H_
#define MICROREC_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "eval/sweep.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "rec/model_config.h"
#include "synth/generator.h"
#include "topic/sparse_kernel.h"
#include "util/string_util.h"

namespace microrec::bench {

inline double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::atof(value);
}

inline size_t EnvSize(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback
                          : static_cast<size_t>(std::atoll(value));
}

inline bool EnvFlag(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && std::string(value) == "1";
}

/// Everything a reproduction bench needs, built once.
struct Workbench {
  std::unique_ptr<synth::SyntheticDataset> dataset;
  std::unique_ptr<corpus::UserCohort> cohort;
  std::unique_ptr<rec::PreprocessedCorpus> pre;
  std::unique_ptr<eval::ExperimentRunner> runner;

  const corpus::Corpus& corpus() const { return dataset->corpus; }

  /// Per-sweep configuration cap: the bench default, overridable via
  /// MICROREC_MAX_CONFIGS; MICROREC_FULL_GRID=1 disables capping entirely.
  /// Pass the result to eval::SweepConfigs, which thins *after* filtering
  /// per-source validity.
  size_t Cap(size_t default_cap) const {
    if (EnvFlag("MICROREC_FULL_GRID")) return 0;
    return EnvSize("MICROREC_MAX_CONFIGS", default_cap);
  }
};

/// Builds the standard workbench. Prints a one-line summary to stdout.
inline Workbench MakeWorkbench() {
  Workbench bench;
  synth::DatasetSpec spec = synth::DatasetSpec::FromEnv();
  spec.seed = static_cast<uint64_t>(EnvDouble("MICROREC_SEED", 42));
  auto dataset = synth::GenerateDataset(spec);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset generation failed: %s\n",
                 dataset.status().ToString().c_str());
    std::exit(1);
  }
  bench.dataset =
      std::make_unique<synth::SyntheticDataset>(std::move(*dataset));
  bench.cohort = std::make_unique<corpus::UserCohort>(
      corpus::SelectCohort(bench.dataset->corpus, spec.cohort));

  std::vector<corpus::TweetId> stop_basis;
  for (corpus::UserId u : bench.cohort->all) {
    for (corpus::TweetId id : bench.dataset->corpus.PostsOf(u)) {
      stop_basis.push_back(id);
    }
  }
  bench.pre = std::make_unique<rec::PreprocessedCorpus>(
      bench.dataset->corpus, stop_basis, /*stop_top_k=*/100);

  eval::RunOptions options;
  options.topic_iteration_scale = EnvDouble("MICROREC_ITER_SCALE", 0.03);
  options.train_threads = EnvSize("MICROREC_TRAIN_THREADS", 1);
  if (const char* kernel = std::getenv("MICROREC_SAMPLER_KERNEL");
      kernel != nullptr && kernel[0] != '\0' &&
      !topic::ParseSamplerKernel(kernel, &options.sampler_kernel)) {
    std::fprintf(stderr,
                 "bad MICROREC_SAMPLER_KERNEL '%s' (dense|sparse|alias)\n",
                 kernel);
    std::exit(1);
  }
  if (const char* mode = std::getenv("MICROREC_SERVE_MODE");
      mode != nullptr && mode[0] != '\0') {
    if (Status st = rec::ParseServeMode(mode, &options.serve_mode);
        !st.ok()) {
      std::fprintf(stderr, "bad MICROREC_SERVE_MODE: %s\n",
                   st.ToString().c_str());
      std::exit(1);
    }
  }
  options.seed = spec.seed;
  if (const char* dir = std::getenv("MICROREC_SNAPSHOT_DIR");
      dir != nullptr && dir[0] != '\0') {
    options.snapshot_dir = dir;
    options.snapshot_save = true;
    options.snapshot_load = EnvFlag("MICROREC_WARM_START");
  }
  bench.runner = std::make_unique<eval::ExperimentRunner>(
      bench.pre.get(), bench.cohort.get(), options);
  if (Status st = bench.runner->Init(); !st.ok()) {
    std::fprintf(stderr, "runner init failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  std::printf(
      "# corpus: %zu users, %s tweets | cohort: %zu IS / %zu BU / %zu IP / "
      "%zu all | iter_scale=%.3f\n",
      bench.dataset->corpus.num_users(),
      FormatWithCommas(
          static_cast<int64_t>(bench.dataset->corpus.num_tweets()))
          .c_str(),
      bench.cohort->seekers.size(), bench.cohort->balanced.size(),
      bench.cohort->producers.size(), bench.cohort->all.size(),
      EnvDouble("MICROREC_ITER_SCALE", 0.03));
  return bench;
}

/// "0.421" style formatting used across the tables.
inline std::string F3(double value) { return FormatDouble(value, 3); }

/// Output destinations parsed from a bench's command line.
struct BenchIo {
  std::string report_path;      // --report= / MICROREC_REPORT
  std::string metrics_path;     // --metrics=
  std::string checkpoint_path;  // --checkpoint= / MICROREC_CHECKPOINT
  bool fail_fast = false;       // --fail-fast

  /// Sweep options carrying the resilience flags; benches merge in their
  /// per-sweep configuration cap. A non-empty `tag` (e.g. "LDA-R") is
  /// appended to the checkpoint path so a bench looping over many
  /// (model, source) sweeps writes one checkpoint file per sweep — the
  /// checkpoint key pins a single source.
  eval::SweepOptions SweepOptions(size_t max_configs,
                                  const std::string& tag = {}) const {
    eval::SweepOptions options;
    options.max_configs = max_configs;
    options.fail_fast = fail_fast;
    if (!checkpoint_path.empty()) {
      options.checkpoint_path =
          tag.empty() ? checkpoint_path : checkpoint_path + "." + tag;
    }
    return options;
  }
};

/// Parses the shared observability flags; unknown flags only warn so bench
/// wrappers stay forward-compatible. --trace= starts tracing immediately.
inline BenchIo ParseBenchArgs(int argc, char** argv) {
  BenchIo io;
  // Settle MICROREC_TRACE now: a bench that happens to create no spans
  // should still honour the variable and emit a (possibly empty) trace.
  obs::TracingEnabled();
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (StartsWith(arg, "--report=")) {
      io.report_path = arg.substr(9);
    } else if (StartsWith(arg, "--metrics=")) {
      io.metrics_path = arg.substr(10);
    } else if (StartsWith(arg, "--trace=")) {
      obs::StartTracing(arg.substr(8));
    } else if (StartsWith(arg, "--checkpoint=")) {
      io.checkpoint_path = arg.substr(13);
    } else if (arg == "--fail-fast") {
      io.fail_fast = true;
    } else if (StartsWith(arg, "--snapshot-dir=")) {
      // Routed through the environment so MakeWorkbench (which may be
      // called before or after flag parsing) sees one source of truth.
      setenv("MICROREC_SNAPSHOT_DIR", arg.substr(15).c_str(), 1);
    } else if (arg == "--warm-start") {
      setenv("MICROREC_WARM_START", "1", 1);
    } else {
      std::fprintf(stderr, "warning: ignoring unknown flag %s\n",
                   arg.c_str());
    }
  }
  if (io.report_path.empty()) {
    const char* env = std::getenv("MICROREC_REPORT");
    if (env != nullptr) io.report_path = env;
  }
  if (io.checkpoint_path.empty()) {
    const char* env = std::getenv("MICROREC_CHECKPOINT");
    if (env != nullptr) io.checkpoint_path = env;
  }
  return io;
}

/// Emits the requested report / metrics files from the global registry and
/// flushes any active trace. Benches call this as their final statement:
/// `return bench::FinishBench(io, "bench_fig7_time");`
inline int FinishBench(const BenchIo& io, const char* bench_name) {
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  if (!io.report_path.empty()) {
    obs::RunReport report(bench_name);
    if (const obs::HistogramSnapshot* h =
            snapshot.FindHistogram("eval.run.ttime_seconds")) {
      report.AddScalar("ttime_seconds_total", h->sum);
      report.AddScalar("ttime_seconds_p50", h->p50);
      report.AddScalar("ttime_seconds_p99", h->p99);
    }
    if (const obs::HistogramSnapshot* h =
            snapshot.FindHistogram("eval.run.etime_seconds")) {
      report.AddScalar("etime_seconds_total", h->sum);
      report.AddScalar("etime_seconds_p50", h->p50);
      report.AddScalar("etime_seconds_p99", h->p99);
    }
    if (const obs::CounterSnapshot* c = snapshot.FindCounter("eval.runs")) {
      report.AddScalar("configs_run", static_cast<double>(c->value));
    }
    if (const obs::CounterSnapshot* c =
            snapshot.FindCounter("eval.sweep.failed")) {
      report.AddScalar("configs_failed", static_cast<double>(c->value));
    }
    if (const obs::CounterSnapshot* c =
            snapshot.FindCounter("eval.sweep.resumed")) {
      report.AddScalar("configs_resumed", static_cast<double>(c->value));
    }
    if (const obs::CounterSnapshot* c =
            snapshot.FindCounter("resilience.faults.injected")) {
      report.AddScalar("faults_injected", static_cast<double>(c->value));
    }
    // Snapshot traffic: warm_starts > 0 explains a collapsed TTime in the
    // numbers above (training was skipped, only the load was paid).
    if (const obs::CounterSnapshot* c =
            snapshot.FindCounter("snapshot.warm_starts")) {
      report.AddScalar("snapshot_warm_starts", static_cast<double>(c->value));
    }
    if (const obs::CounterSnapshot* c =
            snapshot.FindCounter("snapshot.warm_miss")) {
      report.AddScalar("snapshot_warm_misses", static_cast<double>(c->value));
    }
    if (const obs::CounterSnapshot* c =
            snapshot.FindCounter("snapshot.writes")) {
      report.AddScalar("snapshot_writes", static_cast<double>(c->value));
    }
    // Ranking hot path: how many candidates the bag kernel pruned,
    // and whether any score came out non-finite (a model bug indicator).
    if (const obs::CounterSnapshot* c =
            snapshot.FindCounter("rec.ranker.candidates")) {
      report.AddScalar("ranker_candidates", static_cast<double>(c->value));
    }
    if (const obs::CounterSnapshot* c =
            snapshot.FindCounter("rec.ranker.pruned")) {
      report.AddScalar("ranker_pruned", static_cast<double>(c->value));
    }
    if (const obs::CounterSnapshot* c =
            snapshot.FindCounter("rec.nonfinite_scores")) {
      report.AddScalar("nonfinite_scores", static_cast<double>(c->value));
    }
    report.AddText("iter_scale",
                   FormatDouble(EnvDouble("MICROREC_ITER_SCALE", 0.03), 3));
    report.AttachMetrics(std::move(snapshot));
    if (report.WriteFile(io.report_path)) {
      std::fprintf(stderr, "# report written to %s\n",
                   io.report_path.c_str());
    }
  }
  if (!io.metrics_path.empty()) {
    obs::MetricsSnapshot fresh = obs::MetricsRegistry::Global().Snapshot();
    std::FILE* file = std::fopen(io.metrics_path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot write metrics to %s\n",
                   io.metrics_path.c_str());
    } else {
      std::string json = fresh.ToJson();
      std::fwrite(json.data(), 1, json.size(), file);
      std::fputc('\n', file);
      std::fclose(file);
      std::fprintf(stderr, "# metrics written to %s\n",
                   io.metrics_path.c_str());
    }
  }
  obs::StopTracing();
  return 0;
}

}  // namespace microrec::bench

#endif  // MICROREC_BENCH_BENCH_UTIL_H_
