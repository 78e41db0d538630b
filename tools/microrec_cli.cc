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
//                         unsharded). Per-shard snapshots are built from
//                         the trained base snapshot's configuration on
//                         first use.
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

// Builds the standard evaluation stack over a loaded corpus. The corpus
// lives on the heap so PreprocessedCorpus's reference into it stays valid
// when the Stack itself is moved.
struct Stack {
  std::unique_ptr<corpus::Corpus> owned;
  corpus::UserCohort cohort;
  std::unique_ptr<rec::PreprocessedCorpus> pre;

  const corpus::Corpus& corpus() const { return *owned; }

  static Result<Stack> Load(const std::string& dir) {
    Result<corpus::Corpus> loaded = corpus::LoadCorpus(dir);
    if (!loaded.ok()) return loaded.status();
    Stack stack;
    stack.owned = std::make_unique<corpus::Corpus>(std::move(*loaded));
    stack.cohort = corpus::SelectCohort(*stack.owned,
                                        synth::DatasetSpec::Small().cohort);
    std::vector<corpus::TweetId> stop_basis;
    for (corpus::UserId u : stack.cohort.all) {
      for (corpus::TweetId id : stack.owned->PostsOf(u)) {
        stop_basis.push_back(id);
      }
    }
    stack.pre = std::make_unique<rec::PreprocessedCorpus>(*stack.owned,
                                                          stop_basis, 100);
    return stack;
  }
};

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
  Result<Stack> stack = Stack::Load(dir);
  if (!stack.ok()) return Fail(stack.status());
  const corpus::Corpus& corpus = stack->corpus();

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
              stack->cohort.seekers.size(), stack->cohort.balanced.size(),
              stack->cohort.producers.size(), stack->cohort.all.size());

  TableWriter ratios("posting ratios per selected group");
  ratios.SetHeader({"group", "users", "mean ratio"});
  for (corpus::UserType type :
       {corpus::UserType::kInformationSeeker, corpus::UserType::kBalancedUser,
        corpus::UserType::kInformationProducer}) {
    const auto& users = stack->cohort.Group(type);
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
// Shared by evaluate, train and recommend so a snapshot written by `train`
// carries exactly the configuration fingerprint `recommend` expects.
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

/// Serving flags shared by the train and recommend commands (`threads`
/// also applies to evaluate; `train_threads` and `sampler_kernel` to
/// evaluate and sweep too).
struct ServingFlags {
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
};

/// Resolves --sampler-kernel into run options.
Status ApplyKernelFlags(const ServingFlags& flags,
                        eval::RunOptions* options) {
  if (!topic::ParseSamplerKernel(flags.sampler_kernel,
                                 &options->sampler_kernel)) {
    return Status::InvalidArgument("bad --sampler-kernel '" +
                                   flags.sampler_kernel +
                                   "' (dense|sparse|alias)");
  }
  return Status::OK();
}

int Evaluate(const std::string& dir, const std::string& model_name,
             const std::string& source_name, double iter_scale,
             const ServingFlags& flags) {
  Result<rec::ModelKind> kind = rec::ParseModelKind(model_name);
  if (!kind.ok()) return Fail(kind.status());
  Result<corpus::Source> source = corpus::ParseSource(source_name);
  if (!source.ok()) return Fail(source.status());
  Result<Stack> stack = Stack::Load(dir);
  if (!stack.ok()) return Fail(stack.status());

  eval::RunOptions options;
  options.topic_iteration_scale = iter_scale;
  options.score_threads = flags.threads;
  options.train_threads = flags.train_threads;
  if (Status st = ApplyKernelFlags(flags, &options); !st.ok()) {
    return Fail(st);
  }
  eval::ExperimentRunner runner(stack->pre.get(), &stack->cohort, options);
  if (Status st = runner.Init(); !st.ok()) return Fail(st);

  Result<rec::ModelConfig> config = DefaultConfig(*kind, *source);
  if (!config.ok()) return Fail(config.status());
  Result<eval::RunResult> run = runner.Run(*config, *source);
  if (!run.ok()) return Fail(run.status());
  std::printf("configuration: %s\n", config->ToString().c_str());
  std::printf("MAP (All Users): %.3f over %zu users\n", run->Map(),
              run->users.size());
  std::printf("TTime %.2fs  ETime %.2fs\n", run->ttime_seconds,
              run->etime_seconds);
  std::printf("baselines: RAN %.3f  CHR %.3f\n",
              runner.RandomMap(corpus::UserType::kAllUsers, 500),
              runner.ChronologicalMap(corpus::UserType::kAllUsers));
  return 0;
}

int Train(const std::string& dir, const std::string& model_name,
          const std::string& source_name, double iter_scale,
          const ServingFlags& flags) {
  Result<rec::ModelKind> kind = rec::ParseModelKind(model_name);
  if (!kind.ok()) return Fail(kind.status());
  Result<corpus::Source> source = corpus::ParseSource(source_name);
  if (!source.ok()) return Fail(source.status());
  Result<Stack> stack = Stack::Load(dir);
  if (!stack.ok()) return Fail(stack.status());

  eval::RunOptions options;
  options.topic_iteration_scale = iter_scale;
  options.train_threads = flags.train_threads;
  if (Status st = ApplyKernelFlags(flags, &options); !st.ok()) {
    return Fail(st);
  }
  options.snapshot_dir = flags.snapshot_dir;
  options.snapshot_save = true;
  // Loading too: re-running train refreshes the snapshot without retraining
  // (the warm-started run re-persists its caches).
  options.snapshot_load = true;
  // Training must re-save, and mapped engines are read-only, so train warm
  // starts resident (the default) whatever --serve-mode says.
  eval::ExperimentRunner runner(stack->pre.get(), &stack->cohort, options);
  if (Status st = runner.Init(); !st.ok()) return Fail(st);

  Result<rec::ModelConfig> config = DefaultConfig(*kind, *source);
  if (!config.ok()) return Fail(config.status());
  Result<eval::RunResult> run = runner.Run(*config, *source);
  if (!run.ok()) return Fail(run.status());
  std::printf("configuration: %s\n", config->ToString().c_str());
  std::printf("MAP (All Users): %.3f over %zu users\n", run->Map(),
              run->users.size());
  std::printf("TTime %.2fs  ETime %.2fs\n", run->ttime_seconds,
              run->etime_seconds);
  std::printf("snapshot: %s\n",
              runner.SnapshotPath(*config, *source).c_str());
  return 0;
}

int Recommend(const std::string& dir, const std::string& model_name,
              const std::string& source_name, double iter_scale,
              const ServingFlags& flags) {
  Result<rec::ModelKind> kind = rec::ParseModelKind(model_name);
  if (!kind.ok()) return Fail(kind.status());
  Result<corpus::Source> source = corpus::ParseSource(source_name);
  if (!source.ok()) return Fail(source.status());
  Result<Stack> stack = Stack::Load(dir);
  if (!stack.ok()) return Fail(stack.status());

  eval::RunOptions options;
  options.topic_iteration_scale = iter_scale;
  options.train_threads = flags.train_threads;
  if (Status st = ApplyKernelFlags(flags, &options); !st.ok()) {
    return Fail(st);
  }
  options.snapshot_dir = flags.snapshot_dir;
  if (Status st = rec::ParseServeMode(flags.serve_mode, &options.serve_mode);
      !st.ok()) {
    return Fail(st);
  }
  eval::ExperimentRunner runner(stack->pre.get(), &stack->cohort, options);
  if (Status st = runner.Init(); !st.ok()) return Fail(st);

  Result<rec::ModelConfig> config = DefaultConfig(*kind, *source);
  if (!config.ok()) return Fail(config.status());

  std::vector<corpus::UserId> users;
  if (flags.user_handle.empty()) {
    users = runner.GroupUsers(corpus::UserType::kAllUsers);
  } else {
    const corpus::Corpus& corpus = stack->corpus();
    for (corpus::UserId u : runner.GroupUsers(corpus::UserType::kAllUsers)) {
      if (corpus.user(u).handle == flags.user_handle) users.push_back(u);
    }
    if (users.empty()) {
      return Fail(Status::NotFound("no evaluable user with handle " +
                                   flags.user_handle));
    }
  }

  rec::ServingOptions serving;
  serving.primary = *config;
  serving.snapshot_path = runner.SnapshotPath(*config, *source);
  serving.query_deadline_seconds = flags.deadline_seconds;
  serving.top_k = flags.top_k;  // 0 = full ranking
  serving.score_threads = flags.threads;
  // Cohort users are queried with overlapping candidate sets across rungs;
  // a modest per-user cache keeps repeat scores free without bounding memory
  // by corpus size.
  serving.score_cache_capacity = 4096;
  rec::EngineContext ctx = runner.MakeContext(*config, *source);

  if (flags.shards > 1) {
    rec::ShardedServingOptions sharded;
    sharded.serving = serving;
    sharded.num_shards = flags.shards;
    sharded.hedge_after_seconds = flags.hedge_after_ms / 1000.0;
    if (Status st = rec::BuildShardSnapshots(*config, ctx, sharded.num_shards,
                                             serving.snapshot_path);
        !st.ok()) {
      return Fail(st);
    }
    rec::ShardedRecommender server(ctx, sharded);
    size_t rung_counts[3] = {0, 0, 0};
    for (corpus::UserId u : users) {
      const corpus::UserSplit& split = runner.SplitOf(u);
      rec::ShardedRecommendResult served = server.Recommend(u, split.TestSet());
      rung_counts[static_cast<int>(served.result.rung)]++;
      std::printf("%s (%s, shard %zu%s):\n",
                  stack->corpus().user(u).handle.c_str(),
                  std::string(rec::ServingRungName(served.result.rung)).c_str(),
                  served.shard, served.shard == served.owner ? "" : " [failover]");
      for (const rec::Recommendation& r : served.result.ranking) {
        const corpus::Tweet& tweet = stack->corpus().tweet(r.tweet);
        std::printf("  %6.3f  t%llu  %s\n", r.score,
                    static_cast<unsigned long long>(r.tweet),
                    tweet.text.c_str());
      }
    }
    std::printf("served: %zu primary / %zu bag-fallback / %zu popularity\n",
                rung_counts[0], rung_counts[1], rung_counts[2]);
    for (const rec::ShardHealth& h : server.Health()) {
      std::printf("shard %d: %s  served %llu  failures %llu\n", h.shard,
                  std::string(rec::BreakerStateName(h.state)).c_str(),
                  static_cast<unsigned long long>(h.served),
                  static_cast<unsigned long long>(h.failures));
    }
    return 0;
  }

  rec::DegradingRecommender server(ctx, serving);

  size_t rung_counts[3] = {0, 0, 0};
  for (corpus::UserId u : users) {
    const corpus::UserSplit& split = runner.SplitOf(u);
    rec::RecommendResult result = server.Recommend(u, split.TestSet());
    rung_counts[static_cast<int>(result.rung)]++;
    std::printf("%s (%s):\n", stack->corpus().user(u).handle.c_str(),
                std::string(rec::ServingRungName(result.rung)).c_str());
    for (const rec::Recommendation& r : result.ranking) {
      const corpus::Tweet& tweet = stack->corpus().tweet(r.tweet);
      std::printf("  %6.3f  t%llu  %s\n", r.score,
                  static_cast<unsigned long long>(r.tweet),
                  tweet.text.c_str());
    }
  }
  std::printf("served: %zu primary / %zu bag-fallback / %zu popularity\n",
              rung_counts[0], rung_counts[1], rung_counts[2]);
  if (!server.primary_status().ok()) {
    std::fprintf(stderr, "degraded: %s\n",
                 server.primary_status().ToString().c_str());
  }
  return 0;
}

/// Workload flags for the load command (client threads come from
/// ServingFlags::threads).
struct LoadFlags {
  size_t requests = 1000;
  uint64_t seed = 42;
  double zipf_skew = 1.0;
  std::string mix;  // "r,p,w" weights; empty keeps the default mix
  double target_qps = 0.0;
  std::string report_path;
};

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

/// Streaming-ingest flags, shared by the ingest command and a load run
/// with an ingest mix weight.
struct StreamFlags {
  std::string stream_dir = "stream_state";
  double cut_fraction = 0.5;
  size_t batch_size = 8;
  size_t checkpoint_every = 4;

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

int Load(const std::string& dir, const std::string& model_name,
         const std::string& source_name, double iter_scale,
         const ServingFlags& serving_flags, const LoadFlags& load_flags,
         const StreamFlags& stream_flags) {
  Result<rec::ModelKind> kind = rec::ParseModelKind(model_name);
  if (!kind.ok()) return Fail(kind.status());
  Result<corpus::Source> source = corpus::ParseSource(source_name);
  if (!source.ok()) return Fail(source.status());
  Result<Stack> stack = Stack::Load(dir);
  if (!stack.ok()) return Fail(stack.status());

  eval::RunOptions options;
  options.topic_iteration_scale = iter_scale;
  options.train_threads = serving_flags.train_threads;
  if (Status st = ApplyKernelFlags(serving_flags, &options); !st.ok()) {
    return Fail(st);
  }
  options.snapshot_dir = serving_flags.snapshot_dir;
  if (Status st =
          rec::ParseServeMode(serving_flags.serve_mode, &options.serve_mode);
      !st.ok()) {
    return Fail(st);
  }
  eval::ExperimentRunner runner(stack->pre.get(), &stack->cohort, options);
  if (Status st = runner.Init(); !st.ok()) return Fail(st);

  Result<rec::ModelConfig> config = DefaultConfig(*kind, *source);
  if (!config.ok()) return Fail(config.status());

  rec::ServingOptions serving;
  serving.primary = *config;
  serving.snapshot_path = runner.SnapshotPath(*config, *source);
  serving.query_deadline_seconds = serving_flags.deadline_seconds;
  serving.top_k = serving_flags.top_k;
  // Client threads are the load axis: scoring stays on the query thread so
  // concurrency comes only from parallel clients (one recommender each).
  serving.score_threads = 1;
  serving.score_cache_capacity = 4096;
  rec::EngineContext ctx = runner.MakeContext(*config, *source);

  load::ServingBackend::Options backend;
  backend.ctx = &ctx;
  backend.serving = serving;
  backend.users = runner.GroupUsers(corpus::UserType::kAllUsers);
  if (backend.users.empty()) {
    return Fail(Status::FailedPrecondition("no evaluable users to load"));
  }
  backend.candidates = [&runner](corpus::UserId u) {
    return runner.SplitOf(u).TestSet();
  };

  load::WorkloadOptions spec;
  spec.seed = load_flags.seed;
  spec.num_requests = load_flags.requests;
  spec.num_users = backend.users.size();
  spec.zipf_skew = load_flags.zipf_skew;
  if (!ParseOpMix(load_flags.mix, &spec.mix)) {
    return Fail(Status::InvalidArgument("bad --mix '" + load_flags.mix +
                                        "' (want r,p,w weights)"));
  }
  Result<load::Workload> workload = load::Workload::Build(spec);
  if (!workload.ok()) return Fail(workload.status());

  load::DriverOptions driver;
  driver.threads = serving_flags.threads == 0 ? 1 : serving_flags.threads;
  driver.target_qps = load_flags.target_qps;
  InstallStopHandlers();
  driver.stop = &g_stop;
  load::BackendFactory factory;
  // Live-ingest state; must outlive RunLoad when the mix has ingest ops.
  std::unique_ptr<stream::StreamSession> session;
  std::shared_ptr<stream::LiveRecommender> live;
  if (spec.mix.ingest > 0.0) {
    // Mixed ingest+recommend traffic: serve off rotating epochs while the
    // ingest op class drives WAL-backed apply + checkpoint + publish.
    // --shards becomes the epoch-slot count (the sharded router below is
    // the no-ingest serving path).
    stream::StreamCutOptions cut_options;
    cut_options.cut_fraction = stream_flags.cut_fraction;
    Result<stream::StreamCut> cut = stream::MakeStreamCut(ctx, cut_options);
    if (!cut.ok()) return Fail(cut.status());
    stream::StreamSessionOptions session_options =
        stream_flags.SessionOptions(*config);
    // The ingest hook checkpoints every applied batch (a publish needs a
    // durable snapshot), so the auto-checkpoint cadence is redundant here.
    session_options.checkpoint_every = 0;
    Result<std::unique_ptr<stream::StreamSession>> opened =
        stream::StreamSession::Open(ctx, *cut, session_options);
    if (!opened.ok()) return Fail(opened.status());
    session = std::move(*opened);

    stream::LiveRecommender::Options live_options;
    live_options.serving = serving;
    live_options.num_shards = serving_flags.shards;
    live = std::make_shared<stream::LiveRecommender>(ctx, live_options);
    if (Status st =
            live->Publish(session->checkpoint_snapshot_path(),
                          session->epoch(), session->CopyTrainSets());
        !st.ok()) {
      return Fail(st);
    }

    stream::LiveBackend::Options live_backend;
    live_backend.live = live;
    live_backend.users = backend.users;
    live_backend.candidates = backend.candidates;
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
  } else if (serving_flags.shards > 1) {
    rec::ShardedServingOptions sharded;
    sharded.serving = serving;
    sharded.num_shards = serving_flags.shards;
    sharded.hedge_after_seconds = serving_flags.hedge_after_ms / 1000.0;
    if (Status st = rec::BuildShardSnapshots(*config, ctx, sharded.num_shards,
                                             serving.snapshot_path);
        !st.ok()) {
      return Fail(st);
    }
    load::ShardedServingBackend::Options sharded_backend;
    sharded_backend.ctx = &ctx;
    sharded_backend.sharded = sharded;
    sharded_backend.users = backend.users;
    sharded_backend.candidates = backend.candidates;
    factory = load::ShardedServingBackend::Factory(std::move(sharded_backend));
  } else {
    factory = load::ServingBackend::Factory(backend);
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
  if (!load_flags.report_path.empty()) {
    std::FILE* file = std::fopen(load_flags.report_path.c_str(), "w");
    if (file == nullptr) {
      return Fail(Status::InvalidArgument("cannot write load report to " +
                                          load_flags.report_path));
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
int Ingest(const std::string& dir, const std::string& model_name,
           const std::string& source_name, double iter_scale,
           const ServingFlags& serving_flags,
           const StreamFlags& stream_flags) {
  Result<rec::ModelKind> kind = rec::ParseModelKind(model_name);
  if (!kind.ok()) return Fail(kind.status());
  Result<corpus::Source> source = corpus::ParseSource(source_name);
  if (!source.ok()) return Fail(source.status());
  Result<Stack> stack = Stack::Load(dir);
  if (!stack.ok()) return Fail(stack.status());

  eval::RunOptions options;
  options.topic_iteration_scale = iter_scale;
  options.train_threads = serving_flags.train_threads;
  if (Status st = ApplyKernelFlags(serving_flags, &options); !st.ok()) {
    return Fail(st);
  }
  eval::ExperimentRunner runner(stack->pre.get(), &stack->cohort, options);
  if (Status st = runner.Init(); !st.ok()) return Fail(st);

  Result<rec::ModelConfig> config = DefaultConfig(*kind, *source);
  if (!config.ok()) return Fail(config.status());
  rec::EngineContext ctx = runner.MakeContext(*config, *source);

  stream::StreamCutOptions cut_options;
  cut_options.cut_fraction = stream_flags.cut_fraction;
  Result<stream::StreamCut> cut = stream::MakeStreamCut(ctx, cut_options);
  if (!cut.ok()) return Fail(cut.status());

  Result<std::unique_ptr<stream::StreamSession>> opened =
      stream::StreamSession::Open(ctx, *cut,
                                  stream_flags.SessionOptions(*config));
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

/// Resilience flags shared by main() and the sweep command.
struct SweepFlags {
  std::string checkpoint_path;
  bool fail_fast = false;
  size_t max_configs = 0;
  double timeout_seconds = 0.0;
};

int Sweep(const std::string& dir, const std::string& model_name,
          const std::string& source_name, double iter_scale,
          const SweepFlags& flags, const ServingFlags& serving_flags) {
  Result<rec::ModelKind> kind = rec::ParseModelKind(model_name);
  if (!kind.ok()) return Fail(kind.status());
  Result<corpus::Source> source = corpus::ParseSource(source_name);
  if (!source.ok()) return Fail(source.status());
  Result<Stack> stack = Stack::Load(dir);
  if (!stack.ok()) return Fail(stack.status());

  eval::RunOptions run_options;
  run_options.topic_iteration_scale = iter_scale;
  run_options.train_threads = serving_flags.train_threads;
  if (Status st = ApplyKernelFlags(serving_flags, &run_options); !st.ok()) {
    return Fail(st);
  }
  eval::ExperimentRunner runner(stack->pre.get(), &stack->cohort,
                                run_options);
  if (Status st = runner.Init(); !st.ok()) return Fail(st);

  eval::SweepOptions options;
  options.max_configs = flags.max_configs;
  options.fail_fast = flags.fail_fast;
  options.checkpoint_path = flags.checkpoint_path;
  options.config_timeout_seconds = flags.timeout_seconds;
  Result<eval::SweepResult> sweep = eval::SweepConfigs(
      runner, rec::EnumerateConfigs(*kind), *source, options);
  if (!sweep.ok()) return Fail(sweep.status());

  TableWriter table(std::string(rec::ModelKindName(*kind)) + " sweep on " +
                    std::string(corpus::SourceName(*source)));
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
      stack->cohort.Group(corpus::UserType::kAllUsers);
  if (const eval::ConfigOutcome* best = sweep->Best(all)) {
    std::printf("best: %s (MAP %.3f)\n", best->config.ToString().c_str(),
                best->result.MapOfGroup(all));
  }
  return 0;
}

int Suggest(const std::string& dir, const std::string& handle, size_t top_k) {
  Result<Stack> stack = Stack::Load(dir);
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
  rec::HashtagRecommender recommender(stack->pre.get(), config);
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

int Dispatch(const std::vector<std::string>& args, const SweepFlags& flags,
             const ServingFlags& serving, const LoadFlags& load_flags,
             const StreamFlags& stream_flags) {
  // `faults` takes no corpus directory; handle it before the <dir> guard.
  if (!args.empty() && args[0] == "faults") return Faults();
  if (args.size() < 2) return Usage();
  const std::string& command = args[0];
  const std::string& dir = args[1];
  double iter_scale = 0.03;
  if (command == "generate") {
    uint64_t seed =
        args.size() > 2 ? std::strtoull(args[2].c_str(), nullptr, 10) : 42;
    return Generate(dir, seed);
  }
  if (command == "stats") return Stats(dir);
  if (command == "evaluate" && args.size() >= 4) {
    if (!IterScaleArg(args, 4, &iter_scale)) return Usage();
    return Evaluate(dir, args[2], args[3], iter_scale, serving);
  }
  if (command == "sweep" && args.size() >= 4) {
    if (!IterScaleArg(args, 4, &iter_scale)) return Usage();
    return Sweep(dir, args[2], args[3], iter_scale, flags, serving);
  }
  if (command == "suggest" && args.size() >= 3) {
    size_t top_k =
        args.size() > 3 ? static_cast<size_t>(std::atoi(args[3].c_str())) : 10;
    return Suggest(dir, args[2], top_k);
  }
  if (command == "train" && args.size() >= 4) {
    if (!IterScaleArg(args, 4, &iter_scale)) return Usage();
    return Train(dir, args[2], args[3], iter_scale, serving);
  }
  if (command == "recommend" && args.size() >= 4) {
    if (!IterScaleArg(args, 4, &iter_scale)) return Usage();
    return Recommend(dir, args[2], args[3], iter_scale, serving);
  }
  if (command == "load" && args.size() >= 4) {
    if (!IterScaleArg(args, 4, &iter_scale)) return Usage();
    return Load(dir, args[2], args[3], iter_scale, serving, load_flags,
                stream_flags);
  }
  if (command == "ingest" && args.size() >= 4) {
    if (!IterScaleArg(args, 4, &iter_scale)) return Usage();
    return Ingest(dir, args[2], args[3], iter_scale, serving, stream_flags);
  }
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_path, trace_path, metrics_format_text, flight_path;
  SweepFlags flags;
  ServingFlags serving;
  LoadFlags load_flags;
  StreamFlags stream_flags;
  size_t load_seed = 42;

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
  parser.AddString("snapshot-dir", &serving.snapshot_dir,
                   "train/recommend: snapshot store directory");
  parser.AddDouble("deadline", &serving.deadline_seconds,
                   "recommend: per-query budget in seconds");
  parser.AddString("user", &serving.user_handle,
                   "recommend: serve one handle instead of the cohort");
  parser.AddSize("top-k", &serving.top_k,
                 "recommend: recommendations printed per user (0 = all)");
  parser.AddSize("threads", &serving.threads,
                 "evaluate/recommend: scoring threads (default 1)");
  parser.AddSize("train-threads", &serving.train_threads,
                 "evaluate/sweep/train/recommend: topic-model training "
                 "threads (default 1 = sequential, bit-identical to the "
                 "paper)");
  parser.AddString("sampler-kernel", &serving.sampler_kernel,
                   "evaluate/sweep/train/recommend: Gibbs draw kernel for "
                   "LDA/LLDA/BTM: dense (default, bit-identical to the "
                   "paper), sparse (SparseLDA buckets), or alias (stale "
                   "alias tables with MH correction)");
  parser.AddString("serve-mode", &serving.serve_mode,
                   "recommend/load: how a warm start holds the snapshot — "
                   "resident (default, decoded into memory) or mmap (served "
                   "from the mapped v2 file, materializing rows on demand; "
                   "identical rankings, model-independent memory)");
  parser.AddSize("requests", &load_flags.requests,
                 "load: schedule length (default 1000)");
  parser.AddSize("load-seed", &load_seed,
                 "load: workload schedule seed (default 42)");
  parser.AddDouble("zipf", &load_flags.zipf_skew,
                   "load: user-arrival Zipf skew, 0 = uniform (default 1)");
  parser.AddString("mix", &load_flags.mix,
                   "load: op-mix weights recommend,profile_lookup,"
                   "snapshot_warm[,ingest]; an ingest weight serves the "
                   "run off live rotating epochs");
  parser.AddDouble("target-qps", &load_flags.target_qps,
                   "load: open-loop offered rate (0 = closed loop)");
  parser.AddString("load-report", &load_flags.report_path,
                   "load: write the load report JSON to this path");
  parser.AddSize("shards", &serving.shards,
                 "recommend/load: hash-partitioned engine shards behind the "
                 "health-gated router (default 1 = unsharded)");
  parser.AddDouble("hedge-after-ms", &serving.hedge_after_ms,
                   "recommend/load: hedge window in ms before a slow rung-0 "
                   "attempt is re-issued to the fallback rung (0 = off)");
  parser.AddString("stream-dir", &stream_flags.stream_dir,
                   "ingest/load: WAL + snapshot state directory (default "
                   "stream_state)");
  parser.AddDouble("cut", &stream_flags.cut_fraction,
                   "ingest/load: fraction of pooled train docs in the base "
                   "model; the rest streams (default 0.5)");
  parser.AddSize("batch-size", &stream_flags.batch_size,
                 "ingest/load: stream tweets per WAL batch (default 8)");
  parser.AddSize("checkpoint-every", &stream_flags.checkpoint_every,
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
  load_flags.seed = load_seed;
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

  int code = Dispatch(*args, flags, serving, load_flags, stream_flags);
  if (flight != nullptr) flight->Stop();
  if (observed) PrintPhaseSummary();
  if (!metrics_path.empty() &&
      !WriteMetricsFile(metrics_path, metrics_format)) {
    code = 1;
  }
  obs::StopTracing();
  return code;
}
