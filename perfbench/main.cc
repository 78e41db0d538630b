// The microrec benchmark (see perfbench/README.md): one command that runs a
// workload through the library's public API, checks its outputs and prints
// every metric by name and unit. The last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//   microrec_perfbench --workload <evaluate|serve|serve_hot|ingest_mix>
//                      --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// the separate traced run: spans around every call into a layer, kept in
// memory, written to <out>/spans-<workload>-<seed>.json at the end, and
// reduced to the per-layer metrics.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "corpus/sources.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "load/backend.h"
#include "load/driver.h"
#include "load/serving_backend.h"
#include "load/workload.h"
#include "obs/metrics.h"
#include "rec/engine.h"
#include "rec/model_config.h"
#include "rec/preprocessed.h"
#include "rec/ranker.h"
#include "rec/serving.h"
#include "spans.h"
#include "stream/live.h"
#include "stream/session.h"
#include "synth/generator.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using microrec::Result;
using microrec::Status;
namespace corpus = microrec::corpus;
namespace eval = microrec::eval;
namespace load = microrec::load;
namespace rec = microrec::rec;
namespace stream = microrec::stream;
namespace synth = microrec::synth;

// ---- Fixed workload settings ----------------------------------------------

// The corpus is fixed, like a benchmark's scale factor: the generator seed
// of MICROREC_SCALE=small. --seed drives everything drawn per run: the
// train/test splits, the models' random streams, tie-breaks and the request
// schedule.
constexpr uint64_t kCorpusSeed = 42;
constexpr int kSetupRepeats = 5;
constexpr size_t kTopK = 10;
constexpr double kZipfSkew = 1.0;
constexpr double kIterScale = 0.03;
constexpr size_t kServeThreads = 2;
constexpr size_t kHotThreads = 4;
constexpr size_t kHotCache = 4096;
constexpr double kIngestQps = 400.0;
constexpr double kIngestShare = 0.01;
constexpr size_t kIngestThreads = 2;
constexpr double kStreamCut = 0.5;
// Closed-loop schedules are replayed until time is up; this is one replay.
constexpr uint64_t kClosedSchedule = 50000;
// Requests replayed on one fresh client after a closed-loop run.
constexpr uint64_t kReplayPrefix = 2000;
// Ingests of the stream probe in traced runs of the other workloads, and
// batches left unapplied by the checkpoint for the recovery diagnostic.
constexpr int kProbeIngests = 3;
constexpr int kRecoverBatches = 2;
// Latency samples kept per client: the buffers are touched in set-up so the
// peak RSS does not depend on how many requests a run completes. A client
// that fills them ends the phase early.
constexpr size_t kSampleCapacity = 1'500'000;
// Serving metrics are medians over windows of the timed phase, so a short
// burst of outside load moves one window, not the result. An open-loop
// window holds 1,000 recommends: its p99 has ten samples beyond it.
constexpr double kClosedWindowSeconds = 1.0;
constexpr double kOpenWindowSeconds =
    1000.0 / (kIngestQps * (1.0 - kIngestShare));

// Per-model MAP at seed 42 (the evaluate check), in kEvaluatedModels order.
constexpr double kPinnedMap42[9] = {0.424569, 0.358626, 0.403954,
                                    0.391832, 0.339136, 0.338067,
                                    0.345821, 0.370245, 0.371397};
constexpr double kPinnedMapTolerance = 0.001;

enum class WorkloadKind { kEvaluate, kServe, kServeHot, kIngestMix };

struct Args {
  WorkloadKind workload = WorkloadKind::kEvaluate;
  std::string workload_name;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_out";
};

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank quantile of sorted `values`.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

// The highest percentile with at least ten samples beyond it.
double SupportedQuantile(size_t n) {
  return n > 10 ? static_cast<double>(n - 10) / static_cast<double>(n) : 0.0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

// ---- Results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Extra facts printed in the "# meta" line (sample counts, hashes, ...).
  std::vector<std::pair<std::string, std::string>> info;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Check(bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
    correct = correct && ok;
  }
  void Info(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }
};

std::string Hex(uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016" PRIx64, value);
  return buffer;
}

std::string Num(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

// ---- The shared corpus, cohort and experiment runner ----------------------

struct World {
  std::unique_ptr<synth::SyntheticDataset> dataset;
  std::unique_ptr<corpus::UserCohort> cohort;
  std::unique_ptr<rec::PreprocessedCorpus> pre;
  std::unique_ptr<eval::ExperimentRunner> runner;
  std::vector<corpus::UserId> users;
  // Test set (positives first) and positives of every evaluated user.
  std::unordered_map<corpus::UserId, std::vector<corpus::TweetId>> candidates;
  std::unordered_map<corpus::UserId, std::unordered_set<corpus::TweetId>>
      positives;
};

Status BuildWorld(uint64_t seed, SpanRecorder* spans, World* world) {
  synth::DatasetSpec spec = synth::DatasetSpec::Small();
  spec.seed = kCorpusSeed;
  {
    ScopedSpan span(spans, "synth.generate");
    Result<synth::SyntheticDataset> dataset = synth::GenerateDataset(spec);
    if (!dataset.ok()) return dataset.status();
    world->dataset =
        std::make_unique<synth::SyntheticDataset>(std::move(*dataset));
    span.set_items(world->dataset->corpus.num_tweets());
  }
  world->cohort = std::make_unique<corpus::UserCohort>(
      corpus::SelectCohort(world->dataset->corpus, spec.cohort));
  std::vector<corpus::TweetId> stop_basis;
  for (corpus::UserId u : world->cohort->all) {
    for (corpus::TweetId id : world->dataset->corpus.PostsOf(u)) {
      stop_basis.push_back(id);
    }
  }
  {
    ScopedSpan span(spans, "rec.preprocess");
    world->pre = std::make_unique<rec::PreprocessedCorpus>(
        world->dataset->corpus, stop_basis, /*stop_top_k=*/100);
    span.set_items(world->dataset->corpus.num_tweets());
  }
  eval::RunOptions options;
  options.topic_iteration_scale = kIterScale;
  options.train_threads = 1;
  options.score_threads = 1;
  options.sampler_kernel = microrec::topic::SamplerKernel::kDense;
  options.seed = seed;
  world->runner = std::make_unique<eval::ExperimentRunner>(
      world->pre.get(), world->cohort.get(), options);
  {
    ScopedSpan span(spans, "eval.init");
    if (Status st = world->runner->Init(); !st.ok()) return st;
    world->users = world->runner->GroupUsers(corpus::UserType::kAllUsers);
    // Materialize the source-R train sets now: Run() builds them lazily on
    // first use and caches them for every later configuration.
    for (corpus::UserId u : world->users) {
      (void)world->runner->TrainSet(corpus::Source::kR, u);
    }
    span.set_items(world->users.size());
  }
  for (corpus::UserId u : world->users) {
    const corpus::UserSplit& split = world->runner->SplitOf(u);
    world->candidates[u] = split.TestSet();
    world->positives[u] = std::unordered_set<corpus::TweetId>(
        split.positives.begin(), split.positives.end());
  }
  return Status::OK();
}

Result<rec::ModelConfig> FirstValidConfig(rec::ModelKind kind) {
  for (const rec::ModelConfig& config : rec::EnumerateConfigs(kind)) {
    if (config.IsValidForSource(
            corpus::HasNegativeExamples(corpus::Source::kR))) {
      return config;
    }
  }
  return Status::NotFound("no valid configuration for source R: " +
                          std::string(rec::ModelKindName(kind)));
}

double ServedAp(const World& world, corpus::UserId u,
                const std::vector<rec::Recommendation>& ranking) {
  const std::unordered_set<corpus::TweetId>& positives =
      world.positives.at(u);
  std::vector<bool> relevant;
  relevant.reserve(ranking.size());
  for (const rec::Recommendation& r : ranking) {
    relevant.push_back(positives.count(r.tweet) != 0);
  }
  return eval::AveragePrecision(relevant);
}

// ---- evaluate: the paper's protocol ---------------------------------------

struct PassResult {
  std::vector<double> model_seconds;  // per model, kEvaluatedModels order
  std::vector<double> maps;
  double wall_seconds = 0.0;
  uint64_t rankings = 0;  // (model, user) test-set rankings
  uint64_t failed = 0;
};

// One pass of ExperimentRunner::Run over the nine models on source R.
PassResult RunPass(World& world) {
  PassResult pass;
  const Clock::time_point start = Clock::now();
  for (rec::ModelKind kind : rec::kEvaluatedModels) {
    Result<rec::ModelConfig> config = FirstValidConfig(kind);
    const Clock::time_point t0 = Clock::now();
    Result<eval::RunResult> run =
        config.ok() ? world.runner->Run(*config, corpus::Source::kR)
                    : Result<eval::RunResult>(config.status());
    pass.model_seconds.push_back(Seconds(t0, Clock::now()));
    if (!run.ok()) {
      std::fprintf(stderr, "error: %s run: %s\n",
                   std::string(rec::ModelKindName(kind)).c_str(),
                   run.status().ToString().c_str());
      ++pass.failed;
      pass.maps.push_back(0.0);
      continue;
    }
    pass.maps.push_back(run->Map());
    pass.rankings += run->users.size();
  }
  pass.wall_seconds = Seconds(start, Clock::now());
  return pass;
}

// The same protocol through direct layer calls (Engine::Prepare,
// Engine::BuildUser, BatchRanker::Rank), each inside a span. Must yield the
// MAP ExperimentRunner::Run yields. Keeps the TN engine for the probes.
struct SweepResult {
  std::vector<double> maps;
  double wall_seconds = 0.0;
  uint64_t failed = 0;
  std::unique_ptr<rec::Engine> tn_engine;
  rec::EngineContext tn_ctx;
  rec::ModelConfig tn_config;
};

Status TracedSweep(World& world, SpanRecorder* spans, SweepResult* out) {
  const Clock::time_point start = Clock::now();
  const corpus::Source source = corpus::Source::kR;
  for (rec::ModelKind kind : rec::kEvaluatedModels) {
    Result<rec::ModelConfig> config = FirstValidConfig(kind);
    if (!config.ok()) return config.status();
    const std::string model(rec::ModelKindName(kind));
    const char* prepare_name = spans->Intern("eval." + model + ".prepare");
    const char* build_name = spans->Intern("eval." + model + ".build_user");
    const char* rank_name = spans->Intern("eval." + model + ".rank");

    std::unique_ptr<rec::Engine> engine = rec::MakeEngine(*config);
    rec::EngineContext ctx = world.runner->MakeContext(*config, source);
    Status status;
    {
      ScopedSpan span(spans, prepare_name);
      status = engine->Prepare(ctx);
    }
    for (corpus::UserId u : world.users) {
      if (!status.ok()) break;
      const corpus::LabeledTrainSet& train = world.runner->TrainSet(source, u);
      ScopedSpan span(spans, build_name);
      span.set_items(train.docs.size());
      status = engine->BuildUser(u, train, ctx);
    }
    std::vector<double> aps;
    if (status.ok()) {
      rec::BatchRanker ranker(engine.get(), &ctx, rec::RankerOptions{});
      microrec::Rng tie_rng(world.runner->options().seed,
                            rec::kTieBreakStream);
      for (corpus::UserId u : world.users) {
        const std::vector<corpus::TweetId>& candidates =
            world.candidates.at(u);
        Result<std::vector<rec::RankedItem>> ranked =
            Status::Internal("not ranked");
        {
          ScopedSpan span(spans, rank_name);
          span.set_items(candidates.size());
          ranked = ranker.Rank(u, candidates, &tie_rng);
        }
        if (!ranked.ok()) {
          status = ranked.status();
          break;
        }
        const size_t positives = world.runner->SplitOf(u).positives.size();
        std::vector<bool> relevant;
        relevant.reserve(ranked->size());
        for (const rec::RankedItem& item : *ranked) {
          relevant.push_back(item.index < positives);
        }
        aps.push_back(eval::AveragePrecision(relevant));
      }
    }
    if (!status.ok()) {
      std::fprintf(stderr, "error: traced %s: %s\n", model.c_str(),
                   status.ToString().c_str());
      ++out->failed;
      out->maps.push_back(0.0);
      continue;
    }
    out->maps.push_back(eval::MeanAveragePrecision(aps));
    if (kind == rec::ModelKind::kTN) {
      out->tn_engine = std::move(engine);
      out->tn_ctx = ctx;
      out->tn_config = *config;
    }
  }
  out->wall_seconds = Seconds(start, Clock::now());
  return Status::OK();
}

void CheckPinnedMaps(const Args& args, const std::vector<double>& maps,
                     const char* label, Report* report) {
  if (args.seed != 42) return;
  for (size_t i = 0; i < maps.size() && i < 9; ++i) {
    const std::string model(rec::ModelKindName(rec::kEvaluatedModels[i]));
    report->Check(std::fabs(maps[i] - kPinnedMap42[i]) <= kPinnedMapTolerance,
                  std::string(label) + " MAP of " + model + " " +
                      Num(maps[i]) + " matches the seed-42 pin " +
                      Num(kPinnedMap42[i]));
  }
}

// ---- Serving clients -------------------------------------------------------

// State shared by every client of one load phase.
struct Phase {
  const World* world = nullptr;
  std::vector<corpus::UserId> users;  // user_rank r -> users[r % size]
  Clock::time_point start;            // phase start; open loop: rid 1 due
  Clock::time_point deadline;         // closed loop: stop issuing after
  double target_qps = 0.0;            // 0 = closed loop
  std::atomic<bool> stop{false};
  SpanRecorder* spans = nullptr;      // non-null while tracing
  // Served ranking hash per rid (0 = not served yet). Slot rid is only
  // written by the thread that owns rid, and read after the run joins.
  std::vector<uint64_t> rid_hash;
  // The ingest step (stream::LiveRecommender publish path); null when the
  // workload has no ingest ops. Runs under ingest_mu.
  std::function<Result<uint64_t>()> ingest;
  std::mutex ingest_mu;
};

// Per-thread direct-call path used by traced runs: an engine loaded from
// the same snapshot and a BatchRanker with the serving options, so each
// served request can be re-ranked, embedded and scored on the same inputs.
struct Direct {
  std::unique_ptr<rec::Engine> engine;
  std::unique_ptr<rec::BatchRanker> ranker;
  const rec::EngineContext* ctx = nullptr;
};

struct ClientStats {
  // Per recommend: latency (service time, or from the due time in an open
  // loop), its window coordinate (completion or due time since the phase
  // start) and wait (due time, or the previous completion, to start).
  std::vector<float> latency_us;
  std::vector<float> at_s;
  std::vector<float> wait_us;
  std::vector<double> freshness_ms;
  uint64_t recommends = 0;
  uint64_t ingests = 0;
  uint64_t failed = 0;
  uint64_t below_rung0 = 0;
  uint64_t hash_conflicts = 0;
  uint64_t direct_mismatches = 0;
  uint64_t ingest_batches = 0;
  bool drained = false;
};

class Client {
 public:
  using RecommendFn = std::function<Result<rec::RecommendResult>(
      corpus::UserId, const std::vector<corpus::TweetId>&,
      const rec::QueryOptions&)>;

  Client(Phase* phase, RecommendFn recommend)
      : phase_(phase), recommend_(std::move(recommend)) {
    // Touch the sample buffers now, in set-up (see kSampleCapacity).
    for (std::vector<float>* v :
         {&stats_.latency_us, &stats_.at_s, &stats_.wait_us}) {
      v->assign(kSampleCapacity, 0.0f);
      v->clear();
    }
  }

  void set_direct(Direct direct) { direct_ = std::move(direct); }
  const ClientStats& stats() const { return stats_; }
  void ResetStats() {
    ClientStats fresh;
    fresh.latency_us = std::move(stats_.latency_us);
    fresh.at_s = std::move(stats_.at_s);
    fresh.wait_us = std::move(stats_.wait_us);
    fresh.latency_us.clear();
    fresh.at_s.clear();
    fresh.wait_us.clear();
    stats_ = std::move(fresh);
    has_last_ = false;
  }
  /// Starts a new RunLoad call: closed-loop gaps restart.
  void NewCall() { has_last_ = false; }

  /// One warm-up query per user (anonymous request id) and, when tracing,
  /// the same for the direct-call path.
  Status WarmUp() {
    for (corpus::UserId u : phase_->users) {
      Result<rec::RecommendResult> served =
          recommend_(u, phase_->world->candidates.at(u), rec::QueryOptions{});
      if (!served.ok()) return served.status();
      if (direct_.engine != nullptr) {
        Result<std::vector<rec::RankedItem>> ranked = direct_.ranker->Rank(
            u, phase_->world->candidates.at(u), nullptr);
        if (!ranked.ok()) return ranked.status();
      }
    }
    return Status::OK();
  }

  Result<load::RecommendOutcome> Recommend(uint64_t rid, uint64_t user_rank,
                                           microrec::obs::RequestTrace* trace) {
    const Clock::time_point start = Clock::now();
    const corpus::UserId u = phase_->users[user_rank % phase_->users.size()];
    const std::vector<corpus::TweetId>& candidates =
        phase_->world->candidates.at(u);
    rec::QueryOptions query;
    query.request_id = rid;
    query.trace = trace;
    // Traced runs re-rank each request through the direct-call path,
    // alternating which side runs first so neither always finds the
    // other's data in cache.
    const bool direct =
        phase_->spans != nullptr && direct_.engine != nullptr;
    uint64_t direct_hash = 0;
    if (direct && rid % 2 == 1) direct_hash = DirectCalls(rid, u, candidates);
    Result<rec::RecommendResult> served = Status::Internal("not served");
    {
      ScopedSpan span(phase_->spans, "rec.serving.recommend", rid);
      span.set_items(candidates.size());
      served = recommend_(u, candidates, query);
    }
    const Clock::time_point end = Clock::now();
    ++stats_.recommends;
    RecordTimes(rid, start, end);
    if (!served.ok()) {
      ++stats_.failed;
      return served.status();
    }
    load::RecommendOutcome outcome;
    outcome.rung = static_cast<int>(served->rung);
    outcome.ranked = served->ranking.size();
    outcome.ranking_hash = load::RankingHash(served->ranking);
    if (served->rung != rec::ServingRung::kPrimary) {
      ++stats_.failed;
      ++stats_.below_rung0;
    }
    uint64_t& slot = phase_->rid_hash[rid];
    if (slot == 0) {
      slot = outcome.ranking_hash;
    } else if (slot != outcome.ranking_hash) {
      ++stats_.hash_conflicts;
    }
    if (direct && rid % 2 == 0) direct_hash = DirectCalls(rid, u, candidates);
    if (direct && direct_hash != outcome.ranking_hash) {
      ++stats_.direct_mismatches;
    }
    if (phase_->target_qps == 0.0 && end >= phase_->deadline) {
      phase_->stop.store(true, std::memory_order_relaxed);
    }
    if (stats_.latency_us.size() >= kSampleCapacity) {
      phase_->stop.store(true, std::memory_order_relaxed);
    }
    return outcome;
  }

  Result<uint64_t> Ingest(uint64_t rid) {
    if (!phase_->ingest) {
      return Status::FailedPrecondition("workload has no ingest path");
    }
    const Clock::time_point start = Clock::now();
    Result<uint64_t> applied = Status::Internal("not applied");
    {
      std::lock_guard<std::mutex> lock(phase_->ingest_mu);
      ScopedSpan span(phase_->spans, "stream.ingest", rid);
      applied = phase_->ingest();
    }
    const Clock::time_point end = Clock::now();
    ++stats_.ingests;
    const Clock::time_point due = Due(rid, start);
    stats_.freshness_ms.push_back(Seconds(due, end) * 1e3);
    if (!applied.ok()) {
      ++stats_.failed;
      return applied.status();
    }
    if (*applied == 0) {
      ++stats_.failed;
      stats_.drained = true;
    } else {
      ++stats_.ingest_batches;
    }
    return applied;
  }

 private:
  Clock::time_point Due(uint64_t rid, Clock::time_point start) const {
    if (phase_->target_qps <= 0.0) return start;
    return phase_->start +
           std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(
                   static_cast<double>(rid - 1) / phase_->target_qps));
  }

  void RecordTimes(uint64_t rid, Clock::time_point start,
                   Clock::time_point end) {
    if (phase_->target_qps > 0.0) {
      // Open loop: latency counts from the due time, so a stall delays
      // every request queued behind it; the wait is how late service began.
      const Clock::time_point due = Due(rid, start);
      stats_.latency_us.push_back(static_cast<float>(Seconds(due, end) * 1e6));
      stats_.at_s.push_back(static_cast<float>(Seconds(phase_->start, due)));
      stats_.wait_us.push_back(static_cast<float>(Seconds(due, start) * 1e6));
    } else {
      stats_.latency_us.push_back(
          static_cast<float>(Seconds(start, end) * 1e6));
      stats_.at_s.push_back(static_cast<float>(Seconds(phase_->start, end)));
      if (has_last_) {
        stats_.wait_us.push_back(
            static_cast<float>(Seconds(last_end_, start) * 1e6));
      }
    }
    last_end_ = end;
    has_last_ = true;
  }

  // Re-ranks, embeds and scores one request on the direct-call path;
  // returns the ranking's hash (0 when ranking failed).
  uint64_t DirectCalls(uint64_t rid, corpus::UserId u,
                       const std::vector<corpus::TweetId>& candidates) {
    SpanRecorder* spans = phase_->spans;
    ScopedSpan parent(spans, "rec.direct", rid);
    parent.set_items(candidates.size());
    microrec::Rng tie_rng(direct_.ctx->seed,
                          microrec::streams::RequestTieStream(rid));
    Result<std::vector<rec::RankedItem>> ranked =
        Status::Internal("not ranked");
    {
      ScopedSpan span(spans, "rec.ranker.rank", rid);
      span.set_items(candidates.size());
      ranked = direct_.ranker->Rank(u, candidates, &tie_rng);
    }
    if (!ranked.ok()) return 0;
    uint64_t hash = load::kFnvOffsetBasis;
    for (const rec::RankedItem& item : *ranked) {
      hash = load::FnvMixU64(hash, static_cast<uint64_t>(item.tweet));
    }
    rec::SparseProfileScorer* scorer = direct_.engine->sparse_scorer();
    const microrec::bag::SparseVector* profile =
        scorer != nullptr ? scorer->Profile(u) : nullptr;
    if (profile == nullptr) return hash;
    std::vector<microrec::bag::SparseVector> docs;
    docs.reserve(candidates.size());
    {
      ScopedSpan span(spans, "bag.embed", rid);
      span.set_items(candidates.size());
      for (corpus::TweetId d : candidates) {
        docs.push_back(scorer->Embed(u, d, *direct_.ctx));
      }
    }
    {
      ScopedSpan span(spans, "bag.kernel", rid);
      span.set_items(docs.size());
      for (const microrec::bag::SparseVector& doc : docs) {
        (void)scorer->Kernel(u, *profile, doc);
      }
    }
    return hash;
  }

  Phase* phase_;
  RecommendFn recommend_;
  Direct direct_;
  ClientStats stats_;
  Clock::time_point last_end_;
  bool has_last_ = false;
};

// RunLoad builds one backend per thread per call; each is a thin handle
// onto a long-lived, warmed client.
class Handle final : public load::Backend {
 public:
  explicit Handle(Client* client) : client_(client) {}
  Status Warm() override { return Status::OK(); }
  Result<uint64_t> ProfileLookup(uint64_t) override {
    return Status::FailedPrecondition("not part of any workload");
  }
  Result<load::RecommendOutcome> Recommend(
      uint64_t rid, uint64_t user_rank,
      microrec::obs::RequestTrace* trace) override {
    return client_->Recommend(rid, user_rank, trace);
  }
  Result<uint64_t> Ingest(uint64_t rid) override {
    return client_->Ingest(rid);
  }

 private:
  Client* client_;
};

load::BackendFactory HandleFactory(
    const std::vector<std::unique_ptr<Client>>* clients) {
  auto next = std::make_shared<size_t>(0);
  return [clients, next]() -> std::unique_ptr<load::Backend> {
    Client* client = (*clients)[(*next)++ % clients->size()].get();
    client->NewCall();
    return std::make_unique<Handle>(client);
  };
}

struct LoadTotals {
  std::vector<double> latency_ms;  // sorted
  // Latencies of each whole window of the phase, each sorted.
  std::vector<std::vector<double>> windows;
  std::vector<double> wait_ms;     // sorted
  std::vector<double> freshness_ms;  // sorted
  uint64_t recommends = 0;
  uint64_t ingests = 0;
  uint64_t failed = 0;
  uint64_t below_rung0 = 0;
  uint64_t hash_conflicts = 0;
  uint64_t direct_mismatches = 0;
  uint64_t ingest_batches = 0;
  bool drained = false;
};

// Merges the clients' samples. `windows` whole windows of `window_s`
// seconds are kept per window; samples past the last whole window count
// only in the totals.
LoadTotals Collect(const std::vector<std::unique_ptr<Client>>& clients,
                   double window_s = 1.0, size_t windows = 0) {
  LoadTotals t;
  t.windows.resize(windows);
  for (const auto& client : clients) {
    const ClientStats& s = client->stats();
    for (size_t i = 0; i < s.latency_us.size(); ++i) {
      t.latency_ms.push_back(s.latency_us[i] * 1e-3);
      const double w = std::floor(s.at_s[i] / window_s);
      if (w >= 0.0 && w < static_cast<double>(windows)) {
        t.windows[static_cast<size_t>(w)].push_back(s.latency_us[i] * 1e-3);
      }
    }
    for (float v : s.wait_us) t.wait_ms.push_back(v * 1e-3);
    t.freshness_ms.insert(t.freshness_ms.end(), s.freshness_ms.begin(),
                          s.freshness_ms.end());
    t.recommends += s.recommends;
    t.ingests += s.ingests;
    t.failed += s.failed;
    t.below_rung0 += s.below_rung0;
    t.hash_conflicts += s.hash_conflicts;
    t.direct_mismatches += s.direct_mismatches;
    t.ingest_batches += s.ingest_batches;
    t.drained = t.drained || s.drained;
  }
  std::sort(t.latency_ms.begin(), t.latency_ms.end());
  for (std::vector<double>& w : t.windows) std::sort(w.begin(), w.end());
  std::sort(t.wait_ms.begin(), t.wait_ms.end());
  std::sort(t.freshness_ms.begin(), t.freshness_ms.end());
  return t;
}

// Closed loop: replays `workload` until `seconds` have passed, or exactly
// once when `once` is set. Returns the phase's wall time.
Result<double> RunClosedLoop(const load::Workload& workload, Phase* phase,
                             std::vector<std::unique_ptr<Client>>* clients,
                             double seconds, bool once = false) {
  phase->target_qps = 0.0;
  phase->stop.store(false);
  const Clock::time_point start = Clock::now();
  phase->start = start;
  phase->deadline = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  load::DriverOptions driver;
  driver.threads = clients->size();
  driver.stop = &phase->stop;
  while (!phase->stop.load() && Clock::now() < phase->deadline) {
    Result<load::LoadReport> report =
        load::RunLoad(workload, driver, HandleFactory(clients));
    if (!report.ok()) return report.status();
    if (once) break;
  }
  return Seconds(start, Clock::now());
}

// Open loop at phase->target_qps over the whole schedule.
Result<double> RunOpenLoop(const load::Workload& workload, Phase* phase,
                           std::vector<std::unique_ptr<Client>>* clients) {
  phase->stop.store(false);
  load::DriverOptions driver;
  driver.threads = clients->size();
  driver.target_qps = phase->target_qps;
  // Taken before RunLoad starts its own clock, so due times are never
  // later than RunLoad's: lateness is overstated by microseconds at
  // most, never hidden.
  phase->start = Clock::now();
  Result<load::LoadReport> report =
      load::RunLoad(workload, driver, HandleFactory(clients));
  if (!report.ok()) return report.status();
  return Seconds(phase->start, Clock::now());
}

Result<load::Workload> MakeSchedule(uint64_t seed, uint64_t requests,
                                    uint64_t users, double ingest_share) {
  load::WorkloadOptions spec;
  spec.seed = seed;
  spec.num_requests = requests;
  spec.num_users = users;
  spec.zipf_skew = kZipfSkew;
  spec.mix.recommend = 1.0 - ingest_share;
  spec.mix.profile_lookup = 0.0;
  spec.mix.snapshot_warm = 0.0;
  spec.mix.ingest = ingest_share;
  return load::Workload::Build(spec);
}

// The first schedule drawn from `seed` whose ingest ops are exactly
// kIngestShare of `requests`. load::Workload draws each op independently, so
// the ingest count alone would vary by about ten percent between seeds,
// and the recommend tail with it.
Result<load::Workload> MakeMixedSchedule(uint64_t seed, uint64_t requests,
                                         uint64_t users) {
  const uint64_t wanted = static_cast<uint64_t>(
      std::llround(kIngestShare * static_cast<double>(requests)));
  for (uint64_t attempt = 0; attempt < 10000; ++attempt) {
    Result<load::Workload> schedule = MakeSchedule(
        seed * 1000003 + attempt, requests, users, kIngestShare);
    if (!schedule.ok()) return schedule.status();
    if (schedule->CountOf(load::OpClass::kIngest) == wanted) return schedule;
  }
  return Status::Internal("no schedule with exactly " +
                          std::to_string(wanted) + " ingest ops");
}

// ---- The primary model: first valid TN configuration, trained and saved ---

struct Primary {
  rec::ModelConfig config;
  rec::EngineContext ctx;
  std::string snapshot;
  std::unique_ptr<rec::Engine> engine;  // the trained engine
};

Status TrainPrimary(World& world, const std::string& dir, SpanRecorder* spans,
                    Primary* primary) {
  Result<rec::ModelConfig> config = FirstValidConfig(rec::ModelKind::kTN);
  if (!config.ok()) return config.status();
  primary->config = *config;
  primary->ctx = world.runner->MakeContext(*config, corpus::Source::kR);
  primary->snapshot = dir + "/primary.snap";
  primary->engine = rec::MakeEngine(*config);
  {
    ScopedSpan span(spans, "rec.primary.train");
    if (Status st = primary->engine->Prepare(primary->ctx); !st.ok()) {
      return st;
    }
    for (corpus::UserId u : world.users) {
      if (Status st = primary->engine->BuildUser(
              u, primary->ctx.train_set(u), primary->ctx);
          !st.ok()) {
        return st;
      }
    }
  }
  ScopedSpan span(spans, "snapshot.save");
  return primary->engine->SaveSnapshot(primary->snapshot, primary->ctx);
}

rec::ServingOptions ServingFor(const Primary& primary, size_t cache) {
  rec::ServingOptions serving;
  serving.primary = primary.config;
  serving.snapshot_path = primary.snapshot;
  serving.top_k = kTopK;
  serving.score_threads = 1;  // client threads are the concurrency axis
  serving.score_cache_capacity = cache;
  return serving;
}

// Direct-call path for traced runs (see Direct).
Result<Direct> MakeDirect(const rec::ModelConfig& config,
                          const rec::EngineContext* ctx,
                          const std::string& snapshot,
                          const std::vector<corpus::UserId>& users,
                          size_t cache, SpanRecorder* spans) {
  Direct direct;
  direct.ctx = ctx;
  direct.engine = rec::MakeEngine(config);
  {
    ScopedSpan span(spans, "snapshot.load");
    if (Status st = direct.engine->LoadSnapshot(snapshot, *ctx); !st.ok()) {
      return st;
    }
  }
  for (corpus::UserId u : users) {
    if (Status st = direct.engine->BuildUser(u, ctx->train_set(u), *ctx);
        !st.ok()) {
      return st;
    }
  }
  rec::RankerOptions options;
  options.top_k = kTopK;
  options.shard_size = 16;  // DegradingRecommender's shard size
  options.score_cache_capacity = cache;
  direct.ranker =
      std::make_unique<rec::BatchRanker>(direct.engine.get(), ctx, options);
  return direct;
}

// Writes a microrec.snap/2 copy of `engine` and times Engine::OpenMapped
// on it.
Status ProbeOpenMapped(const Primary& primary, const std::string& dir,
                       SpanRecorder* spans) {
  rec::EngineContext v2 = primary.ctx;
  v2.snapshot_codec = microrec::snapshot::SnapshotCodec::kCompressed;
  const std::string path = dir + "/primary.v2.snap";
  MICROREC_RETURN_IF_ERROR(primary.engine->SaveSnapshot(path, v2));
  std::unique_ptr<rec::Engine> mapped = rec::MakeEngine(primary.config);
  ScopedSpan span(spans, "snapshot.open_mapped");
  return mapped->OpenMapped(path, v2);
}

// ---- Streaming ingest -------------------------------------------------------

// A WAL-backed ingest session over the back half of the cohort, published
// into a live recommender that serves the front half.
struct Stream {
  std::vector<corpus::UserId> query_users;
  std::vector<corpus::UserId> stream_users;
  stream::StreamCut cut;
  stream::StreamSessionOptions options;
  std::unique_ptr<stream::StreamSession> session;
  std::shared_ptr<stream::LiveRecommender> live;
  std::string baseline_snapshot;  // the first published epoch's state
  std::shared_ptr<const stream::TrainSetMap> baseline_train;
};

Status OpenStream(World& world, const Primary& primary, const std::string& dir,
                  SpanRecorder* spans, Stream* s) {
  const size_t half = world.users.size() / 2;
  s->query_users.assign(world.users.begin(),
                        world.users.begin() + static_cast<ptrdiff_t>(half));
  s->stream_users.assign(world.users.begin() + static_cast<ptrdiff_t>(half),
                         world.users.end());
  if (s->query_users.empty() || s->stream_users.empty()) {
    return Status::FailedPrecondition("cohort too small to split");
  }
  stream::StreamCutOptions cut_options;
  cut_options.cut_fraction = kStreamCut;
  cut_options.stream_users = s->stream_users;
  Result<stream::StreamCut> cut = stream::MakeStreamCut(primary.ctx, cut_options);
  if (!cut.ok()) return cut.status();
  s->cut = std::move(*cut);
  s->options.config = primary.config;
  s->options.dir = dir + "/stream";
  {
    ScopedSpan span(spans, "stream.open");
    Result<std::unique_ptr<stream::StreamSession>> session =
        stream::StreamSession::Open(primary.ctx, s->cut, s->options);
    if (!session.ok()) return session.status();
    s->session = std::move(*session);
  }
  s->baseline_snapshot = dir + "/baseline.snap";
  std::error_code ec;
  std::filesystem::copy_file(s->session->checkpoint_snapshot_path(),
                             s->baseline_snapshot,
                             std::filesystem::copy_options::overwrite_existing,
                             ec);
  if (ec) return Status::Internal("copy baseline snapshot: " + ec.message());
  s->baseline_train = s->session->CopyTrainSets();
  stream::LiveRecommender::Options live_options;
  live_options.serving = ServingFor(primary, 0);
  live_options.num_shards = 1;
  s->live = std::make_shared<stream::LiveRecommender>(primary.ctx, live_options);
  ScopedSpan span(spans, "stream.publish");
  return s->live->Publish(s->session->checkpoint_snapshot_path(),
                          s->session->epoch(), s->baseline_train);
}

// One ingest op: IngestNext -> Checkpoint -> LiveRecommender::Publish.
// Returns the tweets applied; 0 when the stream is drained.
Result<uint64_t> IngestStep(Stream* s, SpanRecorder* spans) {
  Result<uint64_t> applied = Status::Internal("not applied");
  {
    ScopedSpan span(spans, "stream.ingest_next");
    applied = s->session->IngestNext();
    if (applied.ok()) span.set_items(*applied);
  }
  if (!applied.ok() || *applied == 0) return applied;
  {
    ScopedSpan span(spans, "stream.checkpoint");
    MICROREC_RETURN_IF_ERROR(s->session->Checkpoint());
  }
  ScopedSpan span(spans, "stream.publish");
  MICROREC_RETURN_IF_ERROR(s->live->Publish(
      s->session->checkpoint_snapshot_path(), s->session->epoch(),
      s->session->CopyTrainSets()));
  return applied;
}

// WAL-replay diagnostic: applies batches past the last checkpoint, drops
// the session and times StreamSession::Open recovering them.
struct RecoverResult {
  uint64_t replayed = 0;
  bool matches = false;
};

Result<RecoverResult> ProbeRecover(const Primary& primary, Stream* s,
                                   SpanRecorder* spans) {
  for (int i = 0; i < kRecoverBatches; ++i) {
    Result<uint64_t> applied = s->session->IngestNext();
    if (!applied.ok()) return applied.status();
    if (*applied == 0) return Status::FailedPrecondition("stream drained");
  }
  const uint64_t applied = s->session->last_applied();
  const uint64_t checkpoint = s->session->last_checkpoint();
  s->session.reset();
  {
    ScopedSpan span(spans, "stream.recover");
    Result<std::unique_ptr<stream::StreamSession>> session =
        stream::StreamSession::Open(primary.ctx, s->cut, s->options);
    if (!session.ok()) return session.status();
    s->session = std::move(*session);
    span.set_items(applied - checkpoint);
  }
  RecoverResult result;
  result.replayed = s->session->last_applied() - s->session->last_checkpoint();
  result.matches = s->session->last_applied() == applied;
  return result;
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

// ---- Per-layer reduction ---------------------------------------------------

struct LayerInputs {
  double overhead_ratio = 0.0;
  uint64_t ranker_candidates = 0;
  uint64_t ranker_pruned = 0;
  LoadTotals load;  // the traced serving phase
  RecoverResult recover;
  uint64_t snapshot_bytes = 0;
};

uint64_t CounterValue(const char* name) {
  return microrec::obs::MetricsRegistry::Global().GetCounter(name)->value();
}

void AddLayerMetrics(const SpanRecorder& spans, const LayerInputs& in,
                     Report* report) {
  const std::map<std::string, SpanRecorder::LayerTotals> totals =
      spans.Totals();
  auto get = [&totals](const std::string& name) {
    auto it = totals.find(name);
    return it == totals.end() ? SpanRecorder::LayerTotals{} : it->second;
  };
  report->Add("synth.generate_s", get("synth.generate").busy_s, "s");
  report->Add("rec.preprocess_s", get("rec.preprocess").busy_s, "s");
  report->Add("rec.preprocess.tweets",
              static_cast<double>(get("rec.preprocess").items), "count");
  report->Add("eval.init_s", get("eval.init").busy_s, "s");
  report->Add("eval.users", static_cast<double>(get("eval.init").items),
              "count");
  for (rec::ModelKind kind : rec::kEvaluatedModels) {
    const std::string model(rec::ModelKindName(kind));
    report->Add("eval." + model + ".prepare_s",
                get("eval." + model + ".prepare").busy_s, "s");
    report->Add("eval." + model + ".build_user_s",
                get("eval." + model + ".build_user").busy_s, "s");
    report->Add("eval." + model + ".rank_s",
                get("eval." + model + ".rank").busy_s, "s");
  }
  report->Add("eval.rank.candidates",
              static_cast<double>(get("eval.TN.rank").items), "count");

  const SpanRecorder::LayerTotals recommend = get("rec.serving.recommend");
  const SpanRecorder::LayerTotals rank = get("rec.ranker.rank");
  report->Add("rec.serving.recommend_s", recommend.busy_s, "s");
  report->Add("rec.serving.requests", static_cast<double>(recommend.count),
              "count");
  report->Add("rec.serving.self_s", recommend.busy_s - rank.busy_s, "s");
  report->Add("rec.ranker.rank_s", rank.busy_s, "s");
  report->Add("rec.ranker.calls", static_cast<double>(rank.count), "count");
  report->Add("rec.ranker.candidates",
              static_cast<double>(in.ranker_candidates), "count");
  report->Add("rec.ranker.scored_ratio",
              in.ranker_candidates == 0
                  ? 0.0
                  : 1.0 - static_cast<double>(in.ranker_pruned) /
                              static_cast<double>(in.ranker_candidates),
              "ratio");
  const SpanRecorder::LayerTotals embed = get("bag.embed");
  const SpanRecorder::LayerTotals kernel = get("bag.kernel");
  report->Add("bag.embed_s", embed.busy_s, "s");
  report->Add("bag.embeds", static_cast<double>(embed.items), "count");
  report->Add("bag.kernel_s", kernel.busy_s, "s");
  report->Add("bag.kernel_calls", static_cast<double>(kernel.items), "count");

  report->Add("snapshot.save_s", get("snapshot.save").busy_s, "s");
  report->Add("snapshot.load_s", get("snapshot.load").busy_s, "s");
  report->Add("snapshot.open_mapped_s", get("snapshot.open_mapped").busy_s,
              "s");
  report->Add("snapshot.bytes", static_cast<double>(in.snapshot_bytes),
              "bytes");

  const SpanRecorder::LayerTotals next = get("stream.ingest_next");
  report->Add("stream.ingest_next_s", next.busy_s, "s");
  report->Add("stream.batches", static_cast<double>(next.count), "count");
  report->Add("stream.tweets", static_cast<double>(next.items), "count");
  report->Add("stream.checkpoint_s", get("stream.checkpoint").busy_s, "s");
  report->Add("stream.publish_s", get("stream.publish").busy_s, "s");
  report->Add("stream.recover_s", get("stream.recover").busy_s, "s");
  report->Add("stream.recover.batches",
              static_cast<double>(in.recover.replayed), "count");
  report->Add("stream.freshness_p50_ms",
              Quantile(in.load.freshness_ms, 0.50), "ms");
  report->Add("stream.freshness_p90_ms",
              Quantile(in.load.freshness_ms, 0.90), "ms");

  report->Add("load.wait_p99_ms", Quantile(in.load.wait_ms, 0.99), "ms");
  report->Add("load.late_ms", Quantile(in.load.wait_ms, 0.50), "ms");

  report->Add("trace.spans", static_cast<double>(spans.NumSpans()), "count");
  report->Add("trace.overhead_ratio", in.overhead_ratio, "ratio");

  // Every span name, for the reader of the run log.
  for (const auto& [name, t] : totals) {
    std::printf("# layer %-28s count %8llu items %10llu busy %10.6fs "
                "self %10.6fs\n",
                name.c_str(), static_cast<unsigned long long>(t.count),
                static_cast<unsigned long long>(t.items), t.busy_s, t.self_s);
  }
}

// ---- Workloads ---------------------------------------------------------------

struct Workdir {
  std::string path;
  ~Workdir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
};

// Destroys a World in dependency order (the runner points into the
// preprocessed corpus, which points into the dataset).
void Reset(World* world) {
  world->runner.reset();
  world->pre.reset();
  world->cohort.reset();
  world->dataset.reset();
  world->users.clear();
  world->candidates.clear();
  world->positives.clear();
}

// p50 and p99 as medians over the phase's windows; the whole-phase
// figures go to the "# meta" line.
void AddLatencyMetrics(const LoadTotals& t, Report* report) {
  std::vector<double> p50, p99;
  size_t smallest = t.windows.empty() ? 0 : t.windows.front().size();
  for (const std::vector<double>& w : t.windows) {
    p50.push_back(Quantile(w, 0.50));
    p99.push_back(Quantile(w, 0.99));
    smallest = std::min(smallest, w.size());
  }
  report->Add("p50_ms", Median(p50), "ms");
  report->Add("p99_ms", Median(p99), "ms");
  const double q = SupportedQuantile(t.latency_ms.size());
  report->Info("latency_samples", std::to_string(t.latency_ms.size()));
  report->Info("latency_windows", std::to_string(t.windows.size()));
  report->Info("latency_window_min_samples", std::to_string(smallest));
  report->Info("latency_whole_phase",
               "p50=" + Num(Quantile(t.latency_ms, 0.5)) + "ms p99=" +
                   Num(Quantile(t.latency_ms, 0.99)) + "ms p" +
                   Num(q * 100.0) + "=" + Num(Quantile(t.latency_ms, q)) +
                   "ms");
}

// Completed requests per second: the median over whole windows.
double WindowedQps(const LoadTotals& t, double window_s) {
  std::vector<double> qps;
  for (const std::vector<double>& w : t.windows) {
    qps.push_back(static_cast<double>(w.size()) / window_s);
  }
  return Median(qps);
}

size_t WholeWindows(double seconds, double window_s) {
  return std::max<size_t>(1, static_cast<size_t>(seconds / window_s));
}

double MeanOf(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

// Serving clients over their own DegradingRecommender (serve, serve_hot).
Status MakeServeClients(const World& world, const Primary& primary,
                        size_t threads, size_t cache, SpanRecorder* spans,
                        Phase* phase,
                        std::vector<std::unique_ptr<Client>>* clients) {
  for (size_t t = 0; t < threads; ++t) {
    auto recommender = std::make_shared<rec::DegradingRecommender>(
        primary.ctx, ServingFor(primary, cache));
    auto client = std::make_unique<Client>(
        phase, [recommender](corpus::UserId u,
                             const std::vector<corpus::TweetId>& candidates,
                             const rec::QueryOptions& query)
                   -> Result<rec::RecommendResult> {
          return recommender->Recommend(u, candidates, query);
        });
    if (Status st = recommender->Warm(); !st.ok()) return st;
    if (spans != nullptr) {
      Result<Direct> direct =
          MakeDirect(primary.config, &primary.ctx, primary.snapshot,
                     world.users, cache, spans);
      if (!direct.ok()) return direct.status();
      client->set_direct(std::move(*direct));
    }
    MICROREC_RETURN_IF_ERROR(client->WarmUp());
    clients->push_back(std::move(client));
  }
  return Status::OK();
}

// Serves rids 1..n of `schedule` on one fresh recommender and checks each
// ranking against the one the load phase served. Returns the mean AP of the
// served lists and folds their hashes into `rankings_hash`.
struct Replay {
  double map = 0.0;
  uint64_t rankings_hash = load::kFnvOffsetBasis;
  uint64_t compared = 0;
  uint64_t mismatched = 0;
  uint64_t below_rung0 = 0;
};

Replay ReplaySchedule(const World& world, rec::DegradingRecommender* recommender,
                      const std::vector<corpus::UserId>& users,
                      const load::Workload& schedule, uint64_t n,
                      const std::vector<uint64_t>& rid_hash) {
  Replay replay;
  std::vector<double> aps;
  for (const load::Request& request : schedule.requests()) {
    if (request.rid > n) break;
    if (request.op != load::OpClass::kRecommend) continue;
    const corpus::UserId u = users[request.user_rank % users.size()];
    rec::QueryOptions query;
    query.request_id = request.rid;
    rec::RecommendResult served =
        recommender->Recommend(u, world.candidates.at(u), query);
    if (served.rung != rec::ServingRung::kPrimary) ++replay.below_rung0;
    const uint64_t hash = load::RankingHash(served.ranking);
    replay.rankings_hash = load::FnvMixU64(replay.rankings_hash, request.rid);
    replay.rankings_hash = load::FnvMixU64(replay.rankings_hash, hash);
    if (request.rid < rid_hash.size() && rid_hash[request.rid] != 0) {
      ++replay.compared;
      if (rid_hash[request.rid] != hash) ++replay.mismatched;
    }
    aps.push_back(ServedAp(world, u, served.ranking));
  }
  replay.map = eval::MeanAveragePrecision(aps);
  return replay;
}

// The stream probe of traced runs whose workload does not ingest: a few
// ingest ops timed from their start, then the recovery diagnostic.
Status StreamProbe(World& world, const Primary& primary, const std::string& dir,
                   SpanRecorder* spans, LayerInputs* layers) {
  Stream s;
  MICROREC_RETURN_IF_ERROR(OpenStream(world, primary, dir, spans, &s));
  for (int i = 0; i < kProbeIngests; ++i) {
    const Clock::time_point start = Clock::now();
    Result<uint64_t> applied = Status::Internal("not applied");
    {
      ScopedSpan span(spans, "stream.ingest");
      applied = IngestStep(&s, spans);
    }
    if (!applied.ok()) return applied.status();
    if (*applied == 0) return Status::FailedPrecondition("stream drained");
    layers->load.freshness_ms.push_back(Seconds(start, Clock::now()) * 1e3);
  }
  std::sort(layers->load.freshness_ms.begin(), layers->load.freshness_ms.end());
  layers->snapshot_bytes = FileBytes(s.session->checkpoint_snapshot_path());
  Result<RecoverResult> recover = ProbeRecover(primary, &s, spans);
  if (!recover.ok()) return recover.status();
  layers->recover = *recover;
  return Status::OK();
}

// Served call plus direct calls, per traced request, in ms.
double PerRequestTracedMs(const SpanRecorder& spans) {
  const std::map<std::string, SpanRecorder::LayerTotals> totals =
      spans.Totals();
  auto served = totals.find("rec.serving.recommend");
  auto direct = totals.find("rec.direct");
  if (served == totals.end() || served->second.count == 0) return 0.0;
  const double direct_s = direct == totals.end() ? 0.0 : direct->second.busy_s;
  return (served->second.busy_s + direct_s) * 1e3 /
         static_cast<double>(served->second.count);
}

void AddLoadChecks(const LoadTotals& t, Report* report) {
  report->Check(t.below_rung0 == 0,
                std::to_string(t.below_rung0) + " requests served below rung 0");
  report->Check(t.hash_conflicts == 0,
                std::to_string(t.hash_conflicts) +
                    " requests served a different ranking on a repeat");
}

// evaluate ---------------------------------------------------------------------

Status Evaluate(const Args& args, const std::string& dir, Report* report) {
  World world;
  if (!args.trace) {
    std::vector<double> setup;
    for (int i = 0; i < kSetupRepeats; ++i) {
      Reset(&world);
      const Clock::time_point t0 = Clock::now();
      MICROREC_RETURN_IF_ERROR(BuildWorld(args.seed, nullptr, &world));
      setup.push_back(Seconds(t0, Clock::now()));
    }
    // As many whole passes as fit in --seconds, rounded to the nearest:
    // another pass starts only if it would end within half a pass of it.
    std::vector<PassResult> passes;
    const Clock::time_point start = Clock::now();
    double elapsed = 0.0;
    do {
      passes.push_back(RunPass(world));
      elapsed = Seconds(start, Clock::now());
    } while (elapsed + 0.5 * elapsed / static_cast<double>(passes.size()) <
             args.seconds);
    // The unit of work is one nine-model pass: p50_ms is the median pass
    // and p99_ms the slowest (a run has too few passes for a tail).
    std::vector<double> pass_ms;
    std::vector<std::vector<double>> model_ms(rec::kEvaluatedModels.size());
    double wall = 0.0;
    uint64_t rankings = 0;
    for (const PassResult& pass : passes) {
      pass_ms.push_back(pass.wall_seconds * 1e3);
      for (size_t i = 0; i < pass.model_seconds.size(); ++i) {
        model_ms[i].push_back(pass.model_seconds[i] * 1e3);
      }
      wall += pass.wall_seconds;
      rankings += pass.rankings;
      report->attempted += pass.model_seconds.size();
      report->failed += pass.failed;
    }
    const std::vector<double>& maps = passes.front().maps;
    bool repeatable = true;
    for (const PassResult& pass : passes) repeatable &= pass.maps == maps;
    report->Check(report->failed == 0,
                  std::to_string(report->failed) + " model runs failed");
    report->Check(repeatable, "every pass yields the same per-model MAP");
    CheckPinnedMaps(args, maps, "untraced", report);

    report->Add("setup_s", Median(setup), "s");
    report->Add("rss_peak_mb", PeakRssMb(), "MB");
    report->Add("qps", static_cast<double>(rankings) / wall, "1/s");
    report->Add("p50_ms", Median(pass_ms), "ms");
    report->Add("p99_ms", *std::max_element(pass_ms.begin(), pass_ms.end()),
                "ms");
    report->Add("map", MeanOf(maps), "1");
    report->Info("passes", std::to_string(passes.size()));
    std::string per_model_ms;
    for (size_t i = 0; i < model_ms.size(); ++i) {
      per_model_ms +=
          std::string(i == 0 ? "" : " ") +
          std::string(rec::ModelKindName(rec::kEvaluatedModels[i])) + "=" +
          Num(Median(model_ms[i]));
    }
    report->Info("run_ms_per_model", per_model_ms);
    std::string per_model;
    for (size_t i = 0; i < maps.size(); ++i) {
      per_model += std::string(i == 0 ? "" : " ") +
                   std::string(rec::ModelKindName(rec::kEvaluatedModels[i])) +
                   "=" + Num(maps[i]);
    }
    report->Info("map_per_model", per_model);
    return Status::OK();
  }

  SpanRecorder spans;
  LayerInputs layers;
  MICROREC_RETURN_IF_ERROR(BuildWorld(args.seed, &spans, &world));
  const PassResult untraced = RunPass(world);
  const uint64_t candidates0 = CounterValue("rec.ranker.candidates");
  const uint64_t pruned0 = CounterValue("rec.ranker.pruned");
  SweepResult sweep;
  MICROREC_RETURN_IF_ERROR(TracedSweep(world, &spans, &sweep));
  layers.ranker_candidates = CounterValue("rec.ranker.candidates") - candidates0;
  layers.ranker_pruned = CounterValue("rec.ranker.pruned") - pruned0;
  layers.overhead_ratio = sweep.wall_seconds / untraced.wall_seconds;
  report->attempted = 2 * rec::kEvaluatedModels.size();
  report->failed = untraced.failed + sweep.failed;
  report->Check(report->failed == 0,
                std::to_string(report->failed) + " model runs failed");
  report->Check(sweep.maps == untraced.maps,
                "traced MAP equals untraced MAP for every model");
  CheckPinnedMaps(args, sweep.maps, "traced", report);
  if (sweep.tn_engine == nullptr) {
    return Status::Internal("traced sweep kept no TN engine");
  }

  // Probes: serve the evaluated TN model from its snapshot, then stream.
  Primary primary;
  primary.config = sweep.tn_config;
  primary.ctx = sweep.tn_ctx;
  primary.engine = std::move(sweep.tn_engine);
  primary.snapshot = dir + "/primary.snap";
  {
    ScopedSpan span(&spans, "snapshot.save");
    MICROREC_RETURN_IF_ERROR(
        primary.engine->SaveSnapshot(primary.snapshot, primary.ctx));
  }
  MICROREC_RETURN_IF_ERROR(ProbeOpenMapped(primary, dir, &spans));
  Phase phase;
  phase.world = &world;
  phase.users = world.users;
  std::vector<std::unique_ptr<Client>> clients;
  MICROREC_RETURN_IF_ERROR(
      MakeServeClients(world, primary, 1, 0, &spans, &phase, &clients));
  Result<load::Workload> schedule =
      MakeSchedule(args.seed, 2 * world.users.size(), world.users.size(), 0.0);
  if (!schedule.ok()) return schedule.status();
  phase.rid_hash.assign(schedule->requests().size() + 1, 0);
  phase.spans = &spans;
  Result<double> wall = RunClosedLoop(*schedule, &phase, &clients, 3600.0,
                                      /*once=*/true);
  if (!wall.ok()) return wall.status();
  layers.load = Collect(clients);
  report->attempted += layers.load.recommends;
  report->failed += layers.load.failed;
  AddLoadChecks(layers.load, report);
  report->Check(layers.load.direct_mismatches == 0,
                "direct BatchRanker::Rank reproduces every served ranking");
  MICROREC_RETURN_IF_ERROR(StreamProbe(world, primary, dir, &spans, &layers));
  report->Check(layers.recover.matches && layers.recover.replayed > 0,
                "recovery replayed " +
                    std::to_string(layers.recover.replayed) + " WAL batches");
  AddLayerMetrics(spans, layers, report);
  spans.WriteJson(args.out + "/spans-evaluate-" + std::to_string(args.seed) +
                  ".json");
  return Status::OK();
}

// serve / serve_hot ---------------------------------------------------------

Status Serve(const Args& args, const std::string& dir, Report* report) {
  const bool hot = args.workload == WorkloadKind::kServeHot;
  const size_t threads = hot ? kHotThreads : kServeThreads;
  const size_t cache = hot ? kHotCache : 0;
  World world;
  Primary primary;
  Phase phase;
  std::vector<std::unique_ptr<Client>> clients;
  std::unique_ptr<SpanRecorder> spans;
  if (args.trace) spans = std::make_unique<SpanRecorder>();
  std::vector<double> setup;
  const int repeats = args.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    clients.clear();
    primary = Primary{};
    Reset(&world);
    const Clock::time_point t0 = Clock::now();
    MICROREC_RETURN_IF_ERROR(BuildWorld(args.seed, spans.get(), &world));
    MICROREC_RETURN_IF_ERROR(TrainPrimary(world, dir, spans.get(), &primary));
    phase.world = &world;
    phase.users = world.users;
    MICROREC_RETURN_IF_ERROR(MakeServeClients(world, primary, threads, cache,
                                              spans.get(), &phase, &clients));
    setup.push_back(Seconds(t0, Clock::now()));
  }
  Result<load::Workload> schedule =
      MakeSchedule(args.seed, kClosedSchedule, world.users.size(), 0.0);
  if (!schedule.ok()) return schedule.status();
  phase.rid_hash.assign(kClosedSchedule + 1, 0);

  if (!args.trace) {
    Result<double> wall = RunClosedLoop(*schedule, &phase, &clients, args.seconds);
    if (!wall.ok()) return wall.status();
    const LoadTotals totals =
        Collect(clients, kClosedWindowSeconds,
                WholeWindows(*wall, kClosedWindowSeconds));
    report->attempted = totals.recommends;
    report->failed = totals.failed;
    AddLoadChecks(totals, report);
    // A fresh recommender must serve the schedule's first requests exactly
    // as the concurrent clients did.
    rec::DegradingRecommender fresh(primary.ctx, ServingFor(primary, cache));
    const Replay replay = ReplaySchedule(world, &fresh, world.users, *schedule,
                                         kReplayPrefix, phase.rid_hash);
    report->Check(replay.mismatched == 0 && replay.compared > 0,
                  "a fresh single-thread replay matches " +
                      std::to_string(replay.compared) + " served rankings");
    report->Check(replay.below_rung0 == 0, "the replay is served on rung 0");
    report->Add("setup_s", Median(setup), "s");
    report->Add("rss_peak_mb", PeakRssMb(), "MB");
    report->Add("qps", WindowedQps(totals, kClosedWindowSeconds), "1/s");
    AddLatencyMetrics(totals, report);
    report->Add("map", replay.map, "1");
    report->Info("rankings_hash", Hex(replay.rankings_hash));
    report->Info("threads", std::to_string(threads));
    report->Info("score_cache", std::to_string(cache));
    return Status::OK();
  }

  LayerInputs layers;
  MICROREC_RETURN_IF_ERROR(ProbeOpenMapped(primary, dir, spans.get()));
  // Untraced half, then traced half, on the same warmed clients.
  Result<double> wall =
      RunClosedLoop(*schedule, &phase, &clients, args.seconds / 2);
  if (!wall.ok()) return wall.status();
  const LoadTotals untraced = Collect(clients);
  const double untraced_wall = *wall;
  for (auto& client : clients) client->ResetStats();
  phase.spans = spans.get();
  const uint64_t candidates0 = CounterValue("rec.ranker.candidates");
  const uint64_t pruned0 = CounterValue("rec.ranker.pruned");
  wall = RunClosedLoop(*schedule, &phase, &clients, args.seconds / 2);
  if (!wall.ok()) return wall.status();
  layers.ranker_candidates = CounterValue("rec.ranker.candidates") - candidates0;
  layers.ranker_pruned = CounterValue("rec.ranker.pruned") - pruned0;
  layers.load = Collect(clients);
  // The traced half against the untraced half, per request; RunLoad's
  // gaps come from the untraced half, which has no direct calls between
  // requests.
  layers.overhead_ratio =
      (static_cast<double>(untraced.recommends) / untraced_wall) /
      (static_cast<double>(layers.load.recommends) / *wall);
  layers.load.wait_ms = untraced.wait_ms;
  report->attempted = untraced.recommends + layers.load.recommends;
  report->failed = untraced.failed + layers.load.failed;
  AddLoadChecks(untraced, report);
  AddLoadChecks(layers.load, report);
  report->Check(layers.load.direct_mismatches == 0,
                "direct BatchRanker::Rank reproduces every served ranking");

  SweepResult sweep;
  MICROREC_RETURN_IF_ERROR(TracedSweep(world, spans.get(), &sweep));
  report->attempted += rec::kEvaluatedModels.size();
  report->failed += sweep.failed;
  CheckPinnedMaps(args, sweep.maps, "traced", report);
  MICROREC_RETURN_IF_ERROR(
      StreamProbe(world, primary, dir, spans.get(), &layers));
  report->Check(layers.recover.matches && layers.recover.replayed > 0,
                "recovery replayed " +
                    std::to_string(layers.recover.replayed) + " WAL batches");
  AddLayerMetrics(*spans, layers, report);
  spans->WriteJson(args.out + "/spans-" + args.workload_name + "-" +
                   std::to_string(args.seed) + ".json");
  return Status::OK();
}

// ingest_mix ------------------------------------------------------------------

Status IngestMix(const Args& args, const std::string& dir, Report* report) {
  World world;
  Primary primary;
  Stream s;
  Phase phase;
  std::vector<std::unique_ptr<Client>> clients;
  std::unique_ptr<SpanRecorder> spans;
  if (args.trace) spans = std::make_unique<SpanRecorder>();
  // Traced runs replay the (half-length) schedule twice: untraced, traced.
  const double phase_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const uint64_t requests =
      static_cast<uint64_t>(std::llround(kIngestQps * phase_seconds));
  std::vector<double> setup;
  const int repeats = args.trace ? 1 : kSetupRepeats;
  Result<load::Workload> schedule = Status::Internal("no schedule");
  for (int i = 0; i < repeats; ++i) {
    clients.clear();
    s = Stream{};
    primary = Primary{};
    Reset(&world);
    const Clock::time_point t0 = Clock::now();
    MICROREC_RETURN_IF_ERROR(BuildWorld(args.seed, spans.get(), &world));
    MICROREC_RETURN_IF_ERROR(TrainPrimary(world, dir, spans.get(), &primary));
    std::error_code ec;
    std::filesystem::remove_all(dir + "/stream", ec);
    MICROREC_RETURN_IF_ERROR(OpenStream(world, primary, dir, spans.get(), &s));
    phase.world = &world;
    phase.users = s.query_users;
    phase.target_qps = kIngestQps;
    stream::LiveRecommender* live = s.live.get();
    for (size_t t = 0; t < kIngestThreads; ++t) {
      auto client = std::make_unique<Client>(
          &phase, [live](corpus::UserId u,
                         const std::vector<corpus::TweetId>& candidates,
                         const rec::QueryOptions& query) {
            return live->Recommend(u, candidates, query);
          });
      if (spans != nullptr) {
        Result<Direct> direct =
            MakeDirect(primary.config, &primary.ctx, s.baseline_snapshot,
                       s.query_users, 0, spans.get());
        if (!direct.ok()) return direct.status();
        client->set_direct(std::move(*direct));
      }
      MICROREC_RETURN_IF_ERROR(client->WarmUp());
      clients.push_back(std::move(client));
    }
    schedule = MakeMixedSchedule(args.seed, requests, s.query_users.size());
    if (!schedule.ok()) return schedule.status();
    setup.push_back(Seconds(t0, Clock::now()));
  }
  const uint64_t ingests_needed =
      schedule->CountOf(load::OpClass::kIngest) * (args.trace ? 2 : 1) +
      kRecoverBatches;
  report->Check(s.session->remaining_batches() > ingests_needed,
                std::to_string(s.session->remaining_batches()) +
                    " stream batches cover the " +
                    std::to_string(ingests_needed) + " the run applies");
  phase.ingest = [&s, &phase]() { return IngestStep(&s, phase.spans); };
  phase.rid_hash.assign(requests + 1, 0);
  const uint64_t epoch0 = s.live->EpochOf(0);

  LoadTotals untraced;
  Result<double> wall = RunOpenLoop(*schedule, &phase, &clients);
  if (!wall.ok()) return wall.status();
  untraced = Collect(clients, kOpenWindowSeconds,
                     WholeWindows(phase_seconds, kOpenWindowSeconds));
  report->attempted = untraced.recommends + untraced.ingests;
  report->failed = untraced.failed;
  AddLoadChecks(untraced, report);
  report->Check(!untraced.drained, "no ingest op found the stream drained");
  report->Check(untraced.ingest_batches > 0 && s.live->EpochOf(0) > epoch0,
                std::to_string(untraced.ingest_batches) +
                    " ingest ops rotated the live epoch");

  if (!args.trace) {
    // The recommend hash must not change with epoch rotation: the same
    // requests on the first published epoch, ingests dropped, serve the
    // same rankings.
    rec::EngineContext baseline_ctx = primary.ctx;
    std::shared_ptr<const stream::TrainSetMap> view = s.baseline_train;
    baseline_ctx.train_set =
        [view](corpus::UserId u) -> const corpus::LabeledTrainSet& {
      return view->at(u);
    };
    rec::ServingOptions serving = ServingFor(primary, 0);
    serving.snapshot_path = s.baseline_snapshot;
    rec::DegradingRecommender baseline(baseline_ctx, serving);
    const Replay replay = ReplaySchedule(world, &baseline, s.query_users,
                                         *schedule, requests, phase.rid_hash);
    report->Check(replay.mismatched == 0 &&
                      replay.compared == untraced.recommends,
                  "rankings without the ingest ops match all " +
                      std::to_string(replay.compared) + " served rankings");
    report->Add("setup_s", Median(setup), "s");
    report->Add("rss_peak_mb", PeakRssMb(), "MB");
    report->Add("qps", static_cast<double>(untraced.recommends) / *wall,
                "1/s");
    AddLatencyMetrics(untraced, report);
    report->Add("map", replay.map, "1");
    report->Info("rankings_hash", Hex(replay.rankings_hash));
    report->Info("ingests", std::to_string(untraced.ingests));
    report->Info("ingest_p50_ms", Num(Quantile(untraced.freshness_ms, 0.5)));
    report->Info("ingest_p90_ms", Num(Quantile(untraced.freshness_ms, 0.9)));
    report->Info("late_p50_ms", Num(Quantile(untraced.wait_ms, 0.5)));
    report->Info("final_epoch", std::to_string(s.live->EpochOf(0)));
    return Status::OK();
  }

  LayerInputs layers;
  MICROREC_RETURN_IF_ERROR(ProbeOpenMapped(primary, dir, spans.get()));
  for (auto& client : clients) client->ResetStats();
  phase.spans = spans.get();
  const uint64_t candidates0 = CounterValue("rec.ranker.candidates");
  const uint64_t pruned0 = CounterValue("rec.ranker.pruned");
  wall = RunOpenLoop(*schedule, &phase, &clients);
  if (!wall.ok()) return wall.status();
  layers.ranker_candidates = CounterValue("rec.ranker.candidates") - candidates0;
  layers.ranker_pruned = CounterValue("rec.ranker.pruned") - pruned0;
  layers.load = Collect(clients);
  phase.spans = nullptr;
  report->attempted += layers.load.recommends + layers.load.ingests;
  report->failed += layers.load.failed;
  AddLoadChecks(layers.load, report);
  report->Check(layers.load.direct_mismatches == 0,
                "direct BatchRanker::Rank on the first epoch reproduces every "
                "served ranking");
  // Per-request time of the traced half (the served call plus the direct
  // calls) against the untraced service time (due-time latency minus the
  // wait); lateness comes from the untraced half (see Serve).
  layers.overhead_ratio =
      PerRequestTracedMs(*spans) /
      (MeanOf(untraced.latency_ms) - MeanOf(untraced.wait_ms));
  layers.load.wait_ms = untraced.wait_ms;
  layers.snapshot_bytes = FileBytes(s.session->checkpoint_snapshot_path());
  Result<RecoverResult> recover = ProbeRecover(primary, &s, spans.get());
  if (!recover.ok()) return recover.status();
  layers.recover = *recover;
  report->Check(layers.recover.matches && layers.recover.replayed > 0,
                "recovery replayed " +
                    std::to_string(layers.recover.replayed) + " WAL batches");
  SweepResult sweep;
  MICROREC_RETURN_IF_ERROR(TracedSweep(world, spans.get(), &sweep));
  report->attempted += rec::kEvaluatedModels.size();
  report->failed += sweep.failed;
  CheckPinnedMaps(args, sweep.maps, "traced", report);
  AddLayerMetrics(*spans, layers, report);
  spans->WriteJson(args.out + "/spans-ingest_mix-" +
                   std::to_string(args.seed) + ".json");
  return Status::OK();
}

// ---- Command line and output -------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload_name = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "flags come in --name value pairs\n");
    return false;
  }
  static const std::map<std::string, WorkloadKind> kWorkloads = {
      {"evaluate", WorkloadKind::kEvaluate},
      {"serve", WorkloadKind::kServe},
      {"serve_hot", WorkloadKind::kServeHot},
      {"ingest_mix", WorkloadKind::kIngestMix}};
  auto it = kWorkloads.find(args->workload_name);
  if (it == kWorkloads.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n",
                 args->workload_name.c_str());
    return false;
  }
  args->workload = it->second;
  return args->seconds > 0.0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

void PrintResult(const Args& args, const Report& report) {
  std::string meta = "{\"workload\":" + JsonString(args.workload_name) +
                     ",\"seed\":" + std::to_string(args.seed) +
                     ",\"seconds\":" + Num(args.seconds) +
                     ",\"trace\":" + (args.trace ? "1" : "0") +
                     ",\"scale\":\"small\"" + ",\"nproc\":" +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ",\"compiler\":" + JsonString(PERFBENCH_COMPILER) +
                     ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE);
  for (const auto& [key, value] : report.info) {
    meta += "," + JsonString(key) + ":" + JsonString(value);
  }
  std::printf("# meta %s}\n", meta.c_str());
  for (const Metric& m : report.metrics) {
    std::printf("# metric %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string line = std::string("{\"correct\": ") +
                     (report.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", report.metrics[i].value);
    line += (i == 0 ? "" : ", ") + JsonString(report.metrics[i].name) +
            ": {\"value\": " + value +
            ", \"unit\": " + JsonString(report.metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: microrec_perfbench --workload "
                 "<evaluate|serve|serve_hot|ingest_mix> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out <dir>]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  Workdir workdir;
  workdir.path = args.out + "/work-" + args.workload_name + "-" +
                 std::to_string(::getpid());
  std::filesystem::create_directories(workdir.path, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create %s: %s\n", workdir.path.c_str(),
                 ec.message().c_str());
    return 1;
  }
  Report report;
  Status status;
  switch (args.workload) {
    case WorkloadKind::kEvaluate:
      status = Evaluate(args, workdir.path, &report);
      break;
    case WorkloadKind::kServe:
    case WorkloadKind::kServeHot:
      status = Serve(args, workdir.path, &report);
      break;
    case WorkloadKind::kIngestMix:
      status = IngestMix(args, workdir.path, &report);
      break;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  PrintResult(args, report);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
