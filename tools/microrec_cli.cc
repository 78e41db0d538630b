// microrec command-line tool: generate / inspect / evaluate corpora without
// writing C++.
//
//   microrec generate <dir> [seed]        write a synthetic corpus (TSV)
//   microrec stats <dir>                  corpus + cohort statistics
//   microrec evaluate <dir> <model> <source> [iter_scale]
//                                         MAP of one model configuration
//   microrec sweep <dir> <model> <source> [iter_scale]
//                                         sweep the model's config grid with
//                                         fault isolation and checkpointing
//   microrec suggest <dir> <user_handle> [top_k]
//                                         hashtag suggestions for one user
//   microrec train <dir> <model> <source> [iter_scale]
//                                         train once, snapshot the engine to
//                                         --snapshot-dir (DESIGN.md §8)
//   microrec recommend <dir> <model> <source> [iter_scale]
//                                         rank every user's test candidates
//                                         from the snapshot, degrading under
//                                         --deadline instead of failing
//   microrec load <dir> <model> <source> [iter_scale]
//                                         replay a seeded synthetic workload
//                                         (Zipf user arrivals, weighted op
//                                         mix) against the serving path on
//                                         --threads client threads; with
//                                         --shards=<n> the traffic goes
//                                         through the fault-tolerant shard
//                                         router (DESIGN.md §13); an ingest
//                                         weight in --mix serves the run off
//                                         live rotating epochs (DESIGN.md
//                                         §14)
//   microrec ingest <dir> <model> <source> [iter_scale]
//                                         cut the cohort's training data at a
//                                         timestamp, train the base model,
//                                         then apply the post-cut stream in
//                                         WAL-backed batches to --stream-dir;
//                                         kill it anywhere and rerun — it
//                                         recovers to the exact state and
//                                         continues (DESIGN.md §14)
//   microrec faults --list                print every known fault site for
//                                         MICROREC_FAULTS
//
// Global observability flags (usable with every command):
//   --metrics=<path>           write a metrics-registry snapshot at exit
//   --metrics-format=json|prom metrics file format (default json)
//   --trace=<path>     write a Chrome trace_event JSON (Perfetto-loadable)
//   --flight-recorder=<path>   sample the metrics registry to JSONL on an
//                              interval while the command runs
// --metrics and --trace imply a one-line phase-time summary on stderr.
//
// Load flags (load only; --threads sets the client thread count):
//   --requests=<n>        schedule length (default 1000)
//   --load-seed=<n>       workload schedule seed (default 42)
//   --zipf=<s>            user-arrival skew, 0 = uniform (default 1.0)
//   --mix=<r,p,w[,i]>     op-mix weights recommend,profile_lookup,
//                         snapshot_warm and optionally ingest (default
//                         0.9,0.08,0.02,0 — ingest > 0 swaps the backend
//                         for live epoch rotation)
//   --target-qps=<q>      open-loop offered rate; 0 = closed loop
//   --load-report=<path>  write the load report JSON (schema microrec.load/1)
//
// Streaming flags (ingest, and load with an ingest mix weight):
//   --stream-dir=<dir>       WAL + snapshot state directory (default
//                            "stream_state"); delete it to restart the
//                            stream from the cut
//   --cut=<f>                fraction of the pooled train docs kept in the
//                            base model; the rest arrives as the stream
//                            (default 0.5)
//   --batch-size=<n>         stream tweets per WAL batch (default 8)
//   --checkpoint-every=<n>   auto-checkpoint after n applied batches
//                            (default 4; 0 = only the final checkpoint)
//
// SIGINT/SIGTERM during load or ingest stop gracefully: in-flight work
// finishes, the flight recorder and load report are still written, and a
// checkpoint makes applied batches durable. A second signal kills.
//
// Resilience flags (sweep only; see DESIGN.md, "Resilience"):
//   --checkpoint=<path>   stream outcomes to a JSONL checkpoint; rerunning
//                         with the same path resumes past completed configs
//   --fail-fast           abort on the first failed configuration instead of
//                         isolating it and sweeping on
//   --max-configs=<n>     cap the (validity-filtered) grid at n configs
//   --timeout=<seconds>   per-configuration deadline (0 = none)
//
// Serving flags (train / recommend):
//   --snapshot-dir=<dir>  snapshot store (default "snapshots")
//   --serve-mode=<m>      recommend/load: resident (default; decode the
//                         snapshot into memory) or mmap (serve from the
//                         mapped file, materializing user rows on demand —
//                         identical rankings, steady-state memory
//                         independent of model size; DESIGN.md §16)
//   --deadline=<seconds>  per-query budget for recommend (0 = none)
//   --user=<handle>       recommend for one user instead of the cohort
//   --top-k=<n>           print the top n recommendations (default 5;
//                         0 prints the full ranking)
//
// Sharding flags (recommend / load):
//   --shards=<n>          serve through n hash-partitioned engine shards
//                         behind the health-gated router (default 1 =
//                         unsharded). Every run with n > 1 cold-trains the
//                         configuration once per shard and rewrites the n
//                         per-shard snapshots before it serves (a load run
//                         with an ingest weight builds none: n is then its
//                         epoch-slot count).
//   --hedge-after-ms=<t>  hedged requests: give a rung-0 attempt t ms
//                         before re-issuing to the shard's fallback rung
//                         (0 = off)
//
// Scoring flags (evaluate / recommend):
//   --threads=<n>         threads for the sharded scoring phase (default 1).
//                         Rankings are bit-identical at any thread count
//                         (DESIGN.md §9); only wall-clock changes.
//
// Training flags (evaluate / sweep / train / recommend):
//   --train-threads=<n>   threads for sharded topic-model training
//                         (default 1). 1 reproduces the paper's sequential
//                         sampler bit-for-bit; > 1 trains LDA/LLDA/BTM/PLSA
//                         with document shards — statistically equivalent,
//                         not bit-identical (DESIGN.md §10). HDP/HLDA always
//                         train sequentially.
//   --sampler-kernel=<k>  Gibbs draw kernel for LDA/LLDA/BTM: dense
//                         (default; the paper's O(K) scan, bit-identical),
//                         sparse (SparseLDA bucket decomposition), or alias
//                         (stale alias tables + Metropolis-Hastings
//                         correction). sparse/alias are statistically
//                         equivalent, not bit-identical (DESIGN.md §15).
//                         The alias tables rebuild every 32 draws.
//
// Unknown flags and malformed `--key=value` pairs are rejected with the
// offending token and a usage hint (util/cli_flags.h). Fault injection is
// armed via MICROREC_FAULTS (see src/resilience/fault.h).
//
// The <dir> format is the TSV layout documented in corpus/io.h, so real
// datasets can be imported by producing users.tsv / tweets.tsv.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "corpus/io.h"
#include "corpus/user_types.h"
#include "eval/experiment.h"
#include "eval/sweep.h"
#include "load/driver.h"
#include "load/serving_backend.h"
#include "load/workload.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rec/hashtag_rec.h"
#include "rec/serving.h"
#include "rec/sharded.h"
#include "resilience/fault.h"
#include "stream/live.h"
#include "stream/session.h"
#include "synth/generator.h"
#include "topic/sparse_kernel.h"
#include "util/cli_flags.h"
#include "util/string_util.h"
#include "util/table_writer.h"

using namespace microrec;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Set by the first SIGINT/SIGTERM during load or ingest. The load driver
/// polls it between requests (DriverOptions::stop) and the ingest loop
/// between batches, so a stopped run still flushes its flight recording,
/// writes its report, and checkpoints what it applied.
std::atomic<bool> g_stop{false};

void HandleStopSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

/// One-shot (SA_RESETHAND): the first signal asks for a graceful stop, a
/// second one takes the default killing action — the escape hatch when a
/// checkpoint or a slow request hangs.
void InstallStopHandlers() {
  struct sigaction action = {};
  action.sa_handler = HandleStopSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESETHAND;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

constexpr const char kUsageLine[] =
    "microrec [--metrics=<path>] [--trace=<path>] <command> <dir> ...";

int Usage() {
  std::fprintf(
      stderr,
      "usage: microrec [--metrics=<path>] [--trace=<path>] <command>\n"
      "  microrec generate <dir> [seed]\n"
      "  microrec stats <dir>\n"
      "  microrec evaluate [--threads=<n>] [--train-threads=<n>]"
      " [--sampler-kernel=<dense|sparse|alias>] <dir>"
      " <TN|CN|TNG|CNG|LDA|LLDA|HDP|HLDA|BTM|PLSA>"
      " <R|T|E|F|C|TR|TE|RE|TC|RC|TF|RF|EF> [iter_scale]\n"
      "  microrec sweep [--checkpoint=<path>] [--fail-fast]"
      " [--max-configs=<n>] [--timeout=<s>] [--train-threads=<n>]\n"
      "                 <dir> <model> <source> [iter_scale]\n"
      "  microrec suggest <dir> <user_handle> [top_k]\n"
      "  microrec train [--snapshot-dir=<dir>] [--train-threads=<n>]"
      " <dir> <model> <source> [iter_scale]\n"
      "  microrec recommend [--snapshot-dir=<dir>] [--serve-mode=<m>]"
      " [--deadline=<s>] [--user=<handle>] [--top-k=<n>] [--threads=<n>]"
      " [--train-threads=<n>]\n"
      "                     <dir> <model> <source> [iter_scale]\n"
      "  microrec load [--requests=<n>] [--load-seed=<n>] [--zipf=<s>]"
      " [--mix=<r,p,w[,i]>] [--target-qps=<q>] [--threads=<n>]"
      " [--shards=<n>] [--hedge-after-ms=<t>] [--load-report=<path>]\n"
      "                <dir> <model> <source> [iter_scale]\n"
      "  microrec ingest [--stream-dir=<dir>] [--cut=<f>] [--batch-size=<n>]"
      " [--checkpoint-every=<n>] [--train-threads=<n>]\n"
      "                  <dir> <model> <source> [iter_scale]\n"
      "  microrec faults --list\n");
  return 2;
}

/// Strict positional-number parse (the flag parser covers --key=value; the
/// optional iter_scale / seed positionals get the same rigor).
bool ParsePositionalDouble(const std::string& text, double* out) {
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size()) return false;
  *out = value;
  return true;
}

/// One-line attribution of where the run's wall-clock went, from the
/// global metrics registry (tokenize counter, TTime/ETime histograms).
void PrintPhaseSummary() {
  obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  double tokenize = 0.0, train = 0.0, score = 0.0;
  uint64_t scores = 0;
  if (const auto* c = snap.FindCounter("text.tokenizer.micros")) {
    tokenize = static_cast<double>(c->value) / 1e6;
  }
  if (const auto* h = snap.FindHistogram("eval.run.ttime_seconds")) {
    train = h->sum;
  }
  if (const auto* h = snap.FindHistogram("eval.run.etime_seconds")) {
    score = h->sum;
  }
  if (const auto* c = snap.FindCounter("rec.engine.scores")) {
    scores = c->value;
  }
  std::fprintf(stderr,
               "# phases: tokenize %.3fs | train %.3fs | score %.3fs | %s "
               "scores\n",
               tokenize, train, score,
               FormatWithCommas(static_cast<int64_t>(scores)).c_str());
}

bool WriteMetricsFile(const std::string& path, obs::MetricsFormat format) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "error: cannot write metrics to %s\n", path.c_str());
    return false;
  }
  std::string rendered =
      obs::RenderMetrics(obs::MetricsRegistry::Global().Snapshot(), format);
  std::fwrite(rendered.data(), 1, rendered.size(), file);
  std::fclose(file);
  return true;
}

/// Every flag a command reads, as main() parses them.
struct Flags {
  // Serving (train / recommend / load); `threads` also scores evaluate and
  // sets load's client threads, and `train_threads` and `sampler_kernel`
  // apply to every run command.
  std::string snapshot_dir = "snapshots";
  double deadline_seconds = 0.0;
  std::string user_handle;
  size_t top_k = 5;
  size_t threads = 1;
  size_t train_threads = 1;
  std::string sampler_kernel = "dense";
  size_t shards = 1;
  double hedge_after_ms = 0.0;
  std::string serve_mode = "resident";
  // Load.
  size_t requests = 1000;
  size_t load_seed = 42;
  double zipf_skew = 1.0;
  std::string mix;  // "r,p,w[,i]" weights; empty keeps the default mix
  double target_qps = 0.0;
  std::string load_report_path;
  // Streaming (ingest, and load with an ingest mix weight).
  std::string stream_dir = "stream_state";
  double cut_fraction = 0.5;
  size_t batch_size = 8;
  size_t checkpoint_every = 4;
  // Resilience (sweep).
  std::string checkpoint_path;
  bool fail_fast = false;
  size_t max_configs = 0;
  double timeout_seconds = 0.0;

  stream::StreamSessionOptions SessionOptions(
      const rec::ModelConfig& config) const {
    stream::StreamSessionOptions options;
    options.config = config;
    options.dir = stream_dir;
    options.batch_size = batch_size;
    options.checkpoint_every = checkpoint_every;
    return options;
  }
};

/// Loads the corpus in `dir` and builds its stack over the cohort filters
/// of synth::DatasetSpec::Small().
Result<eval::CorpusStack> OpenStack(const std::string& dir) {
  Result<corpus::Corpus> loaded = corpus::LoadCorpus(dir);
  if (!loaded.ok()) return loaded.status();
  return eval::CorpusStack::Build(std::move(*loaded),
                                  synth::DatasetSpec::Small().cohort);
}

int Generate(const std::string& dir, uint64_t seed) {
  synth::DatasetSpec spec = synth::DatasetSpec::FromEnv();
  spec.seed = seed;
  Result<synth::SyntheticDataset> dataset = synth::GenerateDataset(spec);
  if (!dataset.ok()) return Fail(dataset.status());
  if (Status st = corpus::SaveCorpus(dataset->corpus, dir); !st.ok()) {
    return Fail(st);
  }
  std::printf("wrote %zu users, %zu tweets to %s (seed %llu)\n",
              dataset->corpus.num_users(), dataset->corpus.num_tweets(),
              dir.c_str(), static_cast<unsigned long long>(seed));
  return 0;
}

int Stats(const std::string& dir) {
  // Counts only: the cohort is selected on the loaded corpus, and nothing
  // is tokenized.
  Result<corpus::Corpus> loaded = corpus::LoadCorpus(dir);
  if (!loaded.ok()) return Fail(loaded.status());
  const corpus::Corpus& corpus = *loaded;
  const corpus::UserCohort cohort =
      corpus::SelectCohort(corpus, synth::DatasetSpec::Small().cohort);

  size_t retweets = 0, edges = 0;
  for (const corpus::Tweet& tweet : corpus.tweets()) {
    retweets += tweet.IsRetweet() ? 1 : 0;
  }
  for (corpus::UserId u = 0; u < corpus.num_users(); ++u) {
    edges += corpus.graph().Followees(u).size();
  }
  std::printf("users:    %zu\n", corpus.num_users());
  std::printf("edges:    %zu\n", edges);
  std::printf("tweets:   %zu (%zu retweets)\n", corpus.num_tweets(),
              retweets);
  std::printf("cohort:   %zu IS / %zu BU / %zu IP / %zu all\n",
              cohort.seekers.size(), cohort.balanced.size(),
              cohort.producers.size(), cohort.all.size());

  TableWriter ratios("posting ratios per selected group");
  ratios.SetHeader({"group", "users", "mean ratio"});
  for (corpus::UserType type :
       {corpus::UserType::kInformationSeeker, corpus::UserType::kBalancedUser,
        corpus::UserType::kInformationProducer}) {
    const auto& users = cohort.Group(type);
    double sum = 0;
    for (corpus::UserId u : users) sum += corpus.PostingRatio(u);
    ratios.AddRow({std::string(corpus::UserTypeName(type)),
                   std::to_string(users.size()),
                   users.empty() ? std::string("-")
                                 : FormatDouble(
                                       sum / static_cast<double>(users.size()),
                                       3)});
  }
  ratios.RenderText(std::cout);
  return 0;
}

// Default configuration of the requested model: the first entry of its
// grid that is valid for this source (PLSA gets a hand-rolled config).
// Every run command picks it, so a snapshot written by `train` carries
// exactly the configuration fingerprint `recommend` expects.
Result<rec::ModelConfig> DefaultConfig(rec::ModelKind kind,
                                       corpus::Source source) {
  rec::ModelConfig config;
  config.kind = kind;
  if (kind == rec::ModelKind::kPLSA) return config;
  for (const rec::ModelConfig& candidate : rec::EnumerateConfigs(kind)) {
    if (candidate.IsValidForSource(corpus::HasNegativeExamples(source))) {
      return candidate;
    }
  }
  return Status::InvalidArgument(
      "no valid configuration of " + std::string(rec::ModelKindName(kind)) +
      " for source " + std::string(corpus::SourceName(source)));
}

/// The positionals of a run command: <dir> <model> <source> [iter_scale].
struct RunArgs {
  std::string dir;
  std::string model;
  std::string source;
  double iter_scale = 0.03;
};

/// What a run command stands on: the stack, the runner over it, and the
/// model's default configuration on the source.
struct Run {
  eval::CorpusStack stack;
  std::unique_ptr<eval::ExperimentRunner> runner;
  corpus::Source source;
  rec::ModelConfig config;
};

/// The prologue of evaluate, train, recommend, load, ingest and sweep: it
/// parses <model> and <source>, opens the stack, completes the command's
/// `options` from iter_scale, --train-threads, --sampler-kernel and, when
/// `serve_mode` is set (recommend, load), --serve-mode, Inits the runner,
/// and picks DefaultConfig. Keep that order: a bad invocation reports the
/// error of the first step that fails.
Result<Run> OpenRun(const RunArgs& args, const Flags& flags,
                    eval::RunOptions options, bool serve_mode) {
  Result<rec::ModelKind> kind = rec::ParseModelKind(args.model);
  if (!kind.ok()) return kind.status();
  Result<corpus::Source> source = corpus::ParseSource(args.source);
  if (!source.ok()) return source.status();
  Result<eval::CorpusStack> stack = OpenStack(args.dir);
  if (!stack.ok()) return stack.status();

  options.topic_iteration_scale = args.iter_scale;
  options.train_threads = flags.train_threads;
  if (!topic::ParseSamplerKernel(flags.sampler_kernel,
                                 &options.sampler_kernel)) {
    return Status::InvalidArgument("bad --sampler-kernel '" +
                                   flags.sampler_kernel +
                                   "' (dense|sparse|alias)");
  }
  if (serve_mode) {
    MICROREC_RETURN_IF_ERROR(
        rec::ParseServeMode(flags.serve_mode, &options.serve_mode));
  }
  Run run{std::move(*stack), nullptr, *source, {}};
  run.runner = std::make_unique<eval::ExperimentRunner>(run.stack, options);
  MICROREC_RETURN_IF_ERROR(run.runner->Init());

  Result<rec::ModelConfig> config = DefaultConfig(*kind, *source);
  if (!config.ok()) return config.status();
  run.config = *config;
  return run;
}

/// Runs the configuration over the cohort and prints what evaluate and
/// train both start with: the configuration, its MAP and its times.
Status RunConfig(Run& run) {
  Result<eval::RunResult> result = run.runner->Run(run.config, run.source);
  if (!result.ok()) return result.status();
  std::printf("configuration: %s\n", run.config.ToString().c_str());
  std::printf("MAP (All Users): %.3f over %zu users\n", result->Map(),
              result->users.size());
  std::printf("TTime %.2fs  ETime %.2fs\n", result->ttime_seconds,
              result->etime_seconds);
  return Status::OK();
}

int Evaluate(const RunArgs& args, const Flags& flags) {
  eval::RunOptions options;
  options.score_threads = flags.threads;
  Result<Run> run = OpenRun(args, flags, options, /*serve_mode=*/false);
  if (!run.ok()) return Fail(run.status());
  if (Status st = RunConfig(*run); !st.ok()) return Fail(st);
  std::printf("baselines: RAN %.3f  CHR %.3f\n",
              run->runner->RandomMap(corpus::UserType::kAllUsers, 500),
              run->runner->ChronologicalMap(corpus::UserType::kAllUsers));
  return 0;
}

int Train(const RunArgs& args, const Flags& flags) {
  eval::RunOptions options;
  options.snapshot_dir = flags.snapshot_dir;
  options.snapshot_save = true;
  // Loading too: re-running train refreshes the snapshot without retraining
  // (the warm-started run re-persists its caches).
  options.snapshot_load = true;
  // Training must re-save, and mapped engines are read-only, so train warm
  // starts resident (the default) whatever --serve-mode says.
  Result<Run> run = OpenRun(args, flags, options, /*serve_mode=*/false);
  if (!run.ok()) return Fail(run.status());
  if (Status st = RunConfig(*run); !st.ok()) return Fail(st);
  std::printf("snapshot: %s\n",
              run->runner->SnapshotPath(run->config, run->source).c_str());
  return 0;
}

/// What recommend and load serve through: the ladder's options over the
/// run's snapshot, the engine context, and the shard router's options.
struct Serving {
  rec::ServingOptions options;
  rec::EngineContext ctx;
  rec::ShardedServingOptions sharded;
};

/// Builds the serving set-up of recommend and load. With --shards > 1 and
/// `build_shards`, it cold-trains the configuration once per shard and
/// rewrites every shard's snapshot (rec::BuildShardSnapshots), on every
/// call.
Result<Serving> OpenServing(const Run& run, const Flags& flags,
                            size_t score_threads, bool build_shards) {
  Serving serving;
  serving.options.primary = run.config;
  serving.options.snapshot_path =
      run.runner->SnapshotPath(run.config, run.source);
  serving.options.query_deadline_seconds = flags.deadline_seconds;
  serving.options.top_k = flags.top_k;  // 0 = full ranking
  serving.options.score_threads = score_threads;
  // Cohort users are queried with overlapping candidate sets across rungs;
  // a modest per-user cache keeps repeat scores free without bounding memory
  // by corpus size.
  serving.options.score_cache_capacity = 4096;
  serving.ctx = run.runner->MakeContext(run.config, run.source);
  serving.sharded.serving = serving.options;
  serving.sharded.num_shards = flags.shards;
  serving.sharded.hedge_after_seconds = flags.hedge_after_ms / 1000.0;
  if (build_shards && flags.shards > 1) {
    MICROREC_RETURN_IF_ERROR(rec::BuildShardSnapshots(
        run.config, serving.ctx, flags.shards,
        serving.options.snapshot_path));
  }
  return serving;
}

int Recommend(const RunArgs& args, const Flags& flags) {
  eval::RunOptions options;
  options.snapshot_dir = flags.snapshot_dir;
  Result<Run> run = OpenRun(args, flags, options, /*serve_mode=*/true);
  if (!run.ok()) return Fail(run.status());
  const eval::ExperimentRunner& runner = *run->runner;
  const corpus::Corpus& corpus = run->stack.corpus();

  std::vector<corpus::UserId> users =
      runner.GroupUsers(corpus::UserType::kAllUsers);
  if (!flags.user_handle.empty()) {
    std::erase_if(users, [&](corpus::UserId u) {
      return corpus.user(u).handle != flags.user_handle;
    });
    if (users.empty()) {
      return Fail(Status::NotFound("no evaluable user with handle " +
                                   flags.user_handle));
    }
  }

  Result<Serving> serving =
      OpenServing(*run, flags, flags.threads, /*build_shards=*/true);
  if (!serving.ok()) return Fail(serving.status());
  std::unique_ptr<rec::ShardedRecommender> sharded;
  std::unique_ptr<rec::DegradingRecommender> single;
  if (flags.shards > 1) {
    sharded = std::make_unique<rec::ShardedRecommender>(serving->ctx,
                                                        serving->sharded);
  } else {
    single = std::make_unique<rec::DegradingRecommender>(serving->ctx,
                                                         serving->options);
  }

  size_t rung_counts[3] = {0, 0, 0};
  for (corpus::UserId u : users) {
    const std::vector<corpus::TweetId> candidates = runner.SplitOf(u).TestSet();
    rec::RecommendResult result;
    std::string shard;  // ", shard <s>", marked when a failover served
    if (sharded != nullptr) {
      rec::ShardedRecommendResult served = sharded->Recommend(u, candidates);
      result = std::move(served.result);
      shard = ", shard " + std::to_string(served.shard) +
              (served.shard == served.owner ? "" : " [failover]");
    } else {
      result = single->Recommend(u, candidates);
    }
    rung_counts[static_cast<int>(result.rung)]++;
    std::printf("%s (%s%s):\n", corpus.user(u).handle.c_str(),
                std::string(rec::ServingRungName(result.rung)).c_str(),
                shard.c_str());
    for (const rec::Recommendation& r : result.ranking) {
      std::printf("  %6.3f  t%llu  %s\n", r.score,
                  static_cast<unsigned long long>(r.tweet),
                  corpus.tweet(r.tweet).text.c_str());
    }
  }
  std::printf("served: %zu primary / %zu bag-fallback / %zu popularity\n",
              rung_counts[0], rung_counts[1], rung_counts[2]);
  if (sharded != nullptr) {
    for (const rec::ShardHealth& h : sharded->Health()) {
      std::printf("shard %d: %s  served %llu  failures %llu\n", h.shard,
                  std::string(rec::BreakerStateName(h.state)).c_str(),
                  static_cast<unsigned long long>(h.served),
                  static_cast<unsigned long long>(h.failures));
    }
  } else if (!single->primary_status().ok()) {
    std::fprintf(stderr, "degraded: %s\n",
                 single->primary_status().ToString().c_str());
  }
  return 0;
}

/// Parses "--mix=r,p,w" or "--mix=r,p,w,i" into an OpMix; empty keeps
/// defaults, a missing fourth weight keeps ingest at 0.
bool ParseOpMix(const std::string& text, load::OpMix* mix) {
  if (text.empty()) return true;
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t comma = text.find(','); comma != std::string::npos;
       comma = text.find(',', start)) {
    parts.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  parts.push_back(text.substr(start));
  double weights[4] = {0.0, 0.0, 0.0, 0.0};
  if (parts.size() != 3 && parts.size() != 4) return false;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (!ParsePositionalDouble(parts[i], &weights[i])) return false;
  }
  mix->recommend = weights[0];
  mix->profile_lookup = weights[1];
  mix->snapshot_warm = weights[2];
  mix->ingest = weights[3];
  return true;
}

int Load(const RunArgs& args, const Flags& flags) {
  eval::RunOptions options;
  options.snapshot_dir = flags.snapshot_dir;
  Result<Run> run = OpenRun(args, flags, options, /*serve_mode=*/true);
  if (!run.ok()) return Fail(run.status());
  const eval::ExperimentRunner& runner = *run->runner;
  const std::vector<corpus::UserId>& users =
      runner.GroupUsers(corpus::UserType::kAllUsers);
  auto candidates = [&runner](corpus::UserId u) {
    return runner.SplitOf(u).TestSet();
  };

  load::WorkloadOptions spec;
  spec.seed = flags.load_seed;
  spec.num_requests = flags.requests;
  spec.num_users = users.size();
  spec.zipf_skew = flags.zipf_skew;
  if (!ParseOpMix(flags.mix, &spec.mix)) {
    return Fail(Status::InvalidArgument("bad --mix '" + flags.mix +
                                        "' (want r,p,w weights)"));
  }
  Result<load::Workload> workload = load::Workload::Build(spec);
  if (!workload.ok()) return Fail(workload.status());

  load::DriverOptions driver;
  driver.threads = flags.threads == 0 ? 1 : flags.threads;
  driver.target_qps = flags.target_qps;
  InstallStopHandlers();
  driver.stop = &g_stop;

  // Client threads are the load axis: scoring stays on the query thread so
  // concurrency comes only from parallel clients (one recommender each).
  // With an ingest weight, --shards is the epoch-slot count instead, and no
  // shard snapshot is built.
  const bool ingest = spec.mix.ingest > 0.0;
  Result<Serving> serving =
      OpenServing(*run, flags, /*score_threads=*/1, /*build_shards=*/!ingest);
  if (!serving.ok()) return Fail(serving.status());
  const rec::EngineContext& ctx = serving->ctx;

  load::BackendFactory factory;
  // Live-ingest state; must outlive RunLoad when the mix has ingest ops.
  std::unique_ptr<stream::StreamSession> session;
  std::shared_ptr<stream::LiveRecommender> live;
  if (ingest) {
    // Mixed ingest+recommend traffic: serve off rotating epochs while the
    // ingest op class drives WAL-backed apply + checkpoint + publish.
    stream::StreamCutOptions cut_options;
    cut_options.cut_fraction = flags.cut_fraction;
    Result<stream::StreamCut> cut = stream::MakeStreamCut(ctx, cut_options);
    if (!cut.ok()) return Fail(cut.status());
    stream::StreamSessionOptions session_options =
        flags.SessionOptions(run->config);
    // The ingest hook checkpoints every applied batch (a publish needs a
    // durable snapshot), so the auto-checkpoint cadence is redundant here.
    session_options.checkpoint_every = 0;
    Result<std::unique_ptr<stream::StreamSession>> opened =
        stream::StreamSession::Open(ctx, *cut, session_options);
    if (!opened.ok()) return Fail(opened.status());
    session = std::move(*opened);

    stream::LiveRecommender::Options live_options;
    live_options.serving = serving->options;
    live_options.num_shards = flags.shards;
    live = std::make_shared<stream::LiveRecommender>(ctx, live_options);
    if (Status st =
            live->Publish(session->checkpoint_snapshot_path(),
                          session->epoch(), session->CopyTrainSets());
        !st.ok()) {
      return Fail(st);
    }

    stream::LiveBackend::Options live_backend;
    live_backend.live = live;
    live_backend.users = users;
    live_backend.candidates = candidates;
    stream::StreamSession* raw_session = session.get();
    std::shared_ptr<stream::LiveRecommender> shared_live = live;
    live_backend.ingest =
        [raw_session, shared_live](uint64_t) -> Result<uint64_t> {
      Result<uint64_t> applied = raw_session->IngestNext();
      if (!applied.ok()) return applied.status();
      if (*applied == 0) return applied;  // drained: nothing to publish
      MICROREC_RETURN_IF_ERROR(raw_session->Checkpoint());
      MICROREC_RETURN_IF_ERROR(shared_live->Publish(
          raw_session->checkpoint_snapshot_path(), raw_session->epoch(),
          raw_session->CopyTrainSets()));
      return applied;
    };
    factory = stream::LiveBackend::Factory(std::move(live_backend));
  } else if (flags.shards > 1) {
    load::ShardedServingBackend::Options sharded_backend;
    sharded_backend.ctx = &ctx;
    sharded_backend.sharded = serving->sharded;
    sharded_backend.users = users;
    sharded_backend.candidates = candidates;
    factory = load::ShardedServingBackend::Factory(std::move(sharded_backend));
  } else {
    load::ServingBackend::Options backend;
    backend.ctx = &ctx;
    backend.serving = serving->options;
    backend.users = users;
    backend.candidates = candidates;
    factory = load::ServingBackend::Factory(std::move(backend));
  }
  Result<load::LoadReport> report = load::RunLoad(*workload, driver, factory);
  if (!report.ok()) return Fail(report.status());

  std::printf("%llu requests on %llu threads in %.2fs: %.1f qps%s\n",
              static_cast<unsigned long long>(report->total_requests),
              static_cast<unsigned long long>(report->threads),
              report->wall_seconds, report->qps,
              driver.target_qps > 0.0 ? " (open loop)" : "");
  std::printf("latency: p50 %.2fms  p99 %.2fms  p999 %.2fms  max %.2fms\n",
              report->latency.p50 * 1e3, report->latency.p99 * 1e3,
              report->latency.p999 * 1e3, report->latency.max * 1e3);
  for (int op = 0; op < load::kNumOpClasses; ++op) {
    const obs::HistogramSnapshot& s = report->op_latency[op];
    if (s.count == 0) continue;
    std::printf("  %-15s %6llu ops  p50 %.2fms  p99 %.2fms\n",
                std::string(load::OpClassName(static_cast<load::OpClass>(op)))
                    .c_str(),
                static_cast<unsigned long long>(s.count), s.p50 * 1e3,
                s.p99 * 1e3);
  }
  std::printf("rungs: %llu primary / %llu bag-fallback / %llu popularity\n",
              static_cast<unsigned long long>(report->per_rung[0]),
              static_cast<unsigned long long>(report->per_rung[1]),
              static_cast<unsigned long long>(report->per_rung[2]));
  std::printf("schedule 0x%016llx  rankings 0x%016llx  errors %llu\n",
              static_cast<unsigned long long>(report->schedule_hash),
              static_cast<unsigned long long>(report->rankings_hash),
              static_cast<unsigned long long>(report->errors));
  for (const load::LoadReport::ShardBreakdown& s : report->per_shard) {
    std::printf(
        "  shard %d: %llu served  %.1f qps  p99 %.2fms  rungs %llu/%llu/%llu"
        "  breaker %s (%llu transitions, %llu failed attempts)\n",
        s.shard, static_cast<unsigned long long>(s.served), s.qps,
        s.latency.p99 * 1e3, static_cast<unsigned long long>(s.per_rung[0]),
        static_cast<unsigned long long>(s.per_rung[1]),
        static_cast<unsigned long long>(s.per_rung[2]),
        std::string(rec::BreakerStateName(
                        static_cast<rec::BreakerState>(s.breaker_state)))
            .c_str(),
        static_cast<unsigned long long>(s.breaker_transitions),
        static_cast<unsigned long long>(s.failed_attempts));
  }
  if (session != nullptr) {
    std::printf("stream: %llu/%llu batches applied, epoch %llu, "
                "frontier t=%lld\n",
                static_cast<unsigned long long>(session->last_applied()),
                static_cast<unsigned long long>(session->total_batches()),
                static_cast<unsigned long long>(session->epoch()),
                static_cast<long long>(session->frontier_time()));
  }
  if (g_stop.load(std::memory_order_relaxed)) {
    std::printf("interrupted: the report covers the requests that ran\n");
  }
  if (!flags.load_report_path.empty()) {
    std::FILE* file = std::fopen(flags.load_report_path.c_str(), "w");
    if (file == nullptr) {
      return Fail(Status::InvalidArgument("cannot write load report to " +
                                          flags.load_report_path));
    }
    std::string json = report->ToJson();
    std::fwrite(json.data(), 1, json.size(), file);
    std::fputc('\n', file);
    std::fclose(file);
  }
  return 0;
}

/// `microrec ingest`: drain the post-cut stream through the WAL-backed
/// session, checkpointing on the --checkpoint-every cadence plus once at
/// the end. Because StreamSession::Open recovers from --stream-dir, the
/// command is restartable: kill it anywhere (or SIGINT for a graceful
/// stop) and the rerun resumes from the last durable state, applying only
/// what is still pending.
int Ingest(const RunArgs& args, const Flags& flags) {
  Result<Run> run = OpenRun(args, flags, {}, /*serve_mode=*/false);
  if (!run.ok()) return Fail(run.status());
  rec::EngineContext ctx = run->runner->MakeContext(run->config, run->source);

  stream::StreamCutOptions cut_options;
  cut_options.cut_fraction = flags.cut_fraction;
  Result<stream::StreamCut> cut = stream::MakeStreamCut(ctx, cut_options);
  if (!cut.ok()) return Fail(cut.status());

  Result<std::unique_ptr<stream::StreamSession>> opened =
      stream::StreamSession::Open(ctx, *cut, flags.SessionOptions(run->config));
  if (!opened.ok()) return Fail(opened.status());
  stream::StreamSession& session = **opened;
  std::printf("cut at t=%lld: %llu batches, %llu already applied "
              "(recovered epoch %llu)\n",
              static_cast<long long>(cut->cut_time),
              static_cast<unsigned long long>(session.total_batches()),
              static_cast<unsigned long long>(session.last_applied()),
              static_cast<unsigned long long>(session.epoch()));

  InstallStopHandlers();
  uint64_t batches = 0, tweets = 0;
  while (session.remaining_batches() > 0 &&
         !g_stop.load(std::memory_order_relaxed)) {
    Result<uint64_t> applied = session.IngestNext();
    if (!applied.ok()) return Fail(applied.status());
    tweets += *applied;
    ++batches;
  }
  // Make everything applied durable, including a partial (stopped) run.
  if (Status st = session.Checkpoint(); !st.ok()) return Fail(st);
  std::printf("%s: applied %llu batches (%llu tweets), %llu pending, "
              "frontier t=%lld, epoch %llu\n",
              g_stop.load(std::memory_order_relaxed) ? "stopped" : "drained",
              static_cast<unsigned long long>(batches),
              static_cast<unsigned long long>(tweets),
              static_cast<unsigned long long>(session.remaining_batches()),
              static_cast<long long>(session.frontier_time()),
              static_cast<unsigned long long>(session.epoch()));
  std::printf("state: %s\n", session.checkpoint_snapshot_path().c_str());
  return 0;
}

int Sweep(const RunArgs& args, const Flags& flags) {
  Result<Run> run = OpenRun(args, flags, {}, /*serve_mode=*/false);
  if (!run.ok()) return Fail(run.status());
  const rec::ModelKind kind = run->config.kind;

  eval::SweepOptions options;
  options.max_configs = flags.max_configs;
  options.fail_fast = flags.fail_fast;
  options.checkpoint_path = flags.checkpoint_path;
  options.config_timeout_seconds = flags.timeout_seconds;
  Result<eval::SweepResult> sweep = eval::SweepConfigs(
      *run->runner, rec::EnumerateConfigs(kind), run->source, options);
  if (!sweep.ok()) return Fail(sweep.status());

  TableWriter table(std::string(rec::ModelKindName(kind)) + " sweep on " +
                    std::string(corpus::SourceName(run->source)));
  table.SetHeader({"configuration", "MAP", "TTime s", "ETime s", "status"});
  for (const eval::ConfigOutcome& outcome : sweep->outcomes) {
    if (outcome.ok()) {
      table.AddRow({outcome.config.ToString(),
                    FormatDouble(outcome.result.Map(), 3),
                    FormatDouble(outcome.result.ttime_seconds, 2),
                    FormatDouble(outcome.result.etime_seconds, 2), "OK"});
    } else {
      table.AddRow({outcome.config.ToString(), "-", "-", "-",
                    outcome.status.ToString()});
    }
  }
  table.RenderText(std::cout);
  std::printf("%zu succeeded / %zu failed / %zu resumed from checkpoint\n",
              sweep->succeeded(), sweep->failed(), sweep->resumed);
  const std::vector<corpus::UserId>& all =
      run->stack.cohort().Group(corpus::UserType::kAllUsers);
  if (const eval::ConfigOutcome* best = sweep->Best(all)) {
    std::printf("best: %s (MAP %.3f)\n", best->config.ToString().c_str(),
                best->result.MapOfGroup(all));
  }
  return 0;
}

int Suggest(const std::string& dir, const std::string& handle, size_t top_k) {
  Result<eval::CorpusStack> stack = OpenStack(dir);
  if (!stack.ok()) return Fail(stack.status());
  const corpus::Corpus& corpus = stack->corpus();

  corpus::UserId user = corpus::kInvalidUser;
  for (corpus::UserId u = 0; u < corpus.num_users(); ++u) {
    if (corpus.user(u).handle == handle) {
      user = u;
      break;
    }
  }
  if (user == corpus::kInvalidUser) {
    return Fail(Status::NotFound("no user with handle " + handle));
  }

  std::vector<corpus::TweetId> all_posts;
  for (corpus::UserId u = 0; u < corpus.num_users(); ++u) {
    for (corpus::TweetId id : corpus.PostsOf(u)) all_posts.push_back(id);
  }
  rec::ModelConfig config;
  config.kind = rec::ModelKind::kTN;
  config.bag.weighting = bag::Weighting::kTFIDF;
  rec::HashtagRecommender recommender(&stack->pre(), config);
  if (Status st = recommender.BuildProfiles(all_posts, 5); !st.ok()) {
    return Fail(st);
  }

  corpus::LabeledTrainSet train;
  for (corpus::TweetId id : corpus.PostsOf(user)) {
    train.docs.push_back(id);
    train.positive.push_back(true);
  }
  Result<std::vector<rec::HashtagSuggestion>> suggestions =
      recommender.Recommend(train, top_k);
  if (!suggestions.ok()) return Fail(suggestions.status());
  std::printf("hashtag suggestions for %s:\n", handle.c_str());
  for (const rec::HashtagSuggestion& suggestion : *suggestions) {
    std::printf("  %-24s score %.3f  (%zu tweets)\n",
                suggestion.hashtag.c_str(), suggestion.score,
                suggestion.support);
  }
  return 0;
}

/// `microrec faults --list`: every fault site the binary instruments, one
/// per line, so operators can write MICROREC_FAULTS specs without reading
/// the source (a typo'd site in the env spec is a hard startup error).
int Faults() {
  // Force the lazy MICROREC_FAULTS parse so a typo'd spec aborts here with
  // the parser's message (exit 2) instead of sailing through a listing, and
  // so env-armed sites show up as (armed) below.
  (void)resilience::FaultsArmed();
  std::vector<std::string> armed = resilience::ArmedFaultSites();
  for (std::string_view site : resilience::KnownFaultSites()) {
    // An armed entry matches its bare site exactly or via a `#<n>` instance
    // suffix (shard.query#1 arms the shard.query row).
    const bool is_armed =
        std::any_of(armed.begin(), armed.end(), [&](const std::string& a) {
          if (a == site) return true;
          return a.size() > site.size() + 1 &&
                 std::string_view(a).substr(0, site.size()) == site &&
                 a[site.size()] == '#';
        });
    std::printf("%.*s%s\n", static_cast<int>(site.size()), site.data(),
                is_armed ? "  (armed)" : "");
  }
  std::printf(
      "\nspec: site:0.5 (probability), site:3 (every 3rd hit), site:+50\n"
      "(healthy for 50 hits, then dead); append #<n> for one shard/instance\n"
      "(for example shard.query#1:+50). Join entries with commas in\n"
      "MICROREC_FAULTS.\n");
  return 0;
}

/// Optional trailing iter_scale positional; rejects garbage instead of the
/// old atof-silently-zero behavior.
bool IterScaleArg(const std::vector<std::string>& args, size_t index,
                  double* iter_scale) {
  if (args.size() <= index) return true;
  if (!ParsePositionalDouble(args[index], iter_scale) || *iter_scale <= 0.0) {
    std::fprintf(stderr, "error: bad iter_scale '%s'\n",
                 args[index].c_str());
    return false;
  }
  return true;
}

using RunCommand = int (*)(const RunArgs&, const Flags&);
constexpr std::pair<std::string_view, RunCommand> kRunCommands[] = {
    {"evaluate", Evaluate}, {"sweep", Sweep},   {"train", Train},
    {"recommend", Recommend}, {"load", Load}, {"ingest", Ingest}};

int Dispatch(const std::vector<std::string>& args, const Flags& flags) {
  // `faults` takes no corpus directory; handle it before the <dir> guard.
  if (!args.empty() && args[0] == "faults") return Faults();
  if (args.size() < 2) return Usage();
  const std::string& command = args[0];
  const std::string& dir = args[1];
  if (command == "generate") {
    uint64_t seed =
        args.size() > 2 ? std::strtoull(args[2].c_str(), nullptr, 10) : 42;
    return Generate(dir, seed);
  }
  if (command == "stats") return Stats(dir);
  if (command == "suggest" && args.size() >= 3) {
    size_t top_k =
        args.size() > 3 ? static_cast<size_t>(std::atoi(args[3].c_str())) : 10;
    return Suggest(dir, args[2], top_k);
  }
  for (const auto& [name, run_command] : kRunCommands) {
    if (command != name || args.size() < 4) continue;
    RunArgs run{dir, args[2], args[3]};
    if (!IterScaleArg(args, 4, &run.iter_scale)) return Usage();
    return run_command(run, flags);
  }
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_path, trace_path, metrics_format_text, flight_path;
  Flags flags;

  FlagParser parser(kUsageLine);
  parser.AddString("metrics", &metrics_path, "write metrics JSON at exit");
  parser.AddString("metrics-format", &metrics_format_text,
                   "metrics file format: json (default) or prom");
  parser.AddString("flight-recorder", &flight_path,
                   "sample the metrics registry to this JSONL while running");
  parser.AddString("trace", &trace_path, "write Chrome trace JSON");
  parser.AddString("checkpoint", &flags.checkpoint_path,
                   "sweep: JSONL checkpoint for resume");
  parser.AddBool("fail-fast", &flags.fail_fast,
                 "sweep: abort on first failed configuration");
  parser.AddSize("max-configs", &flags.max_configs,
                 "sweep: cap the configuration grid");
  parser.AddDouble("timeout", &flags.timeout_seconds,
                   "sweep: per-configuration deadline in seconds");
  parser.AddString("snapshot-dir", &flags.snapshot_dir,
                   "train/recommend: snapshot store directory");
  parser.AddDouble("deadline", &flags.deadline_seconds,
                   "recommend: per-query budget in seconds");
  parser.AddString("user", &flags.user_handle,
                   "recommend: serve one handle instead of the cohort");
  parser.AddSize("top-k", &flags.top_k,
                 "recommend: recommendations printed per user (0 = all)");
  parser.AddSize("threads", &flags.threads,
                 "evaluate/recommend: scoring threads (default 1)");
  parser.AddSize("train-threads", &flags.train_threads,
                 "evaluate/sweep/train/recommend: topic-model training "
                 "threads (default 1 = sequential, bit-identical to the "
                 "paper)");
  parser.AddString("sampler-kernel", &flags.sampler_kernel,
                   "evaluate/sweep/train/recommend: Gibbs draw kernel for "
                   "LDA/LLDA/BTM: dense (default, bit-identical to the "
                   "paper), sparse (SparseLDA buckets), or alias (stale "
                   "alias tables with MH correction)");
  parser.AddString("serve-mode", &flags.serve_mode,
                   "recommend/load: how a warm start holds the snapshot — "
                   "resident (default, decoded into memory) or mmap (served "
                   "from the mapped v2 file, materializing rows on demand; "
                   "identical rankings, model-independent memory)");
  parser.AddSize("requests", &flags.requests,
                 "load: schedule length (default 1000)");
  parser.AddSize("load-seed", &flags.load_seed,
                 "load: workload schedule seed (default 42)");
  parser.AddDouble("zipf", &flags.zipf_skew,
                   "load: user-arrival Zipf skew, 0 = uniform (default 1)");
  parser.AddString("mix", &flags.mix,
                   "load: op-mix weights recommend,profile_lookup,"
                   "snapshot_warm[,ingest]; an ingest weight serves the "
                   "run off live rotating epochs");
  parser.AddDouble("target-qps", &flags.target_qps,
                   "load: open-loop offered rate (0 = closed loop)");
  parser.AddString("load-report", &flags.load_report_path,
                   "load: write the load report JSON to this path");
  parser.AddSize("shards", &flags.shards,
                 "recommend/load: hash-partitioned engine shards behind the "
                 "health-gated router (default 1 = unsharded)");
  parser.AddDouble("hedge-after-ms", &flags.hedge_after_ms,
                   "recommend/load: hedge window in ms before a slow rung-0 "
                   "attempt is re-issued to the fallback rung (0 = off)");
  parser.AddString("stream-dir", &flags.stream_dir,
                   "ingest/load: WAL + snapshot state directory (default "
                   "stream_state)");
  parser.AddDouble("cut", &flags.cut_fraction,
                   "ingest/load: fraction of pooled train docs in the base "
                   "model; the rest streams (default 0.5)");
  parser.AddSize("batch-size", &flags.batch_size,
                 "ingest/load: stream tweets per WAL batch (default 8)");
  parser.AddSize("checkpoint-every", &flags.checkpoint_every,
                 "ingest: auto-checkpoint after this many applied batches "
                 "(default 4, 0 = only the final checkpoint)");
  bool list_faults = false;
  parser.AddBool("list", &list_faults,
                 "faults: print every known fault site");

  std::vector<std::string> raw(argv + 1, argv + argc);
  Result<std::vector<std::string>> args = parser.Parse(raw);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.status().ToString().c_str());
    return Usage();
  }
  obs::MetricsFormat metrics_format = obs::MetricsFormat::kJson;
  if (!obs::ParseMetricsFormat(metrics_format_text, &metrics_format)) {
    std::fprintf(stderr, "error: bad --metrics-format '%s' (json|prom)\n",
                 metrics_format_text.c_str());
    return Usage();
  }
  const bool observed = !metrics_path.empty() || !trace_path.empty();
  if (!trace_path.empty()) obs::StartTracing(trace_path);
  std::unique_ptr<obs::FlightRecorder> flight;
  if (!flight_path.empty()) {
    obs::FlightRecorder::Options recorder;
    recorder.path = flight_path;
    flight = std::make_unique<obs::FlightRecorder>(recorder);
    if (!flight->ok()) {
      std::fprintf(stderr, "error: cannot write flight recording to %s\n",
                   flight_path.c_str());
      return 1;
    }
  }

  int code = Dispatch(*args, flags);
  if (flight != nullptr) flight->Stop();
  if (observed) PrintPhaseSummary();
  if (!metrics_path.empty() &&
      !WriteMetricsFile(metrics_path, metrics_format)) {
    code = 1;
  }
  obs::StopTracing();
  return code;
}
