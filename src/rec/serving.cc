#include "rec/serving.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <string>

#include "corpus/corpus.h"
#include "obs/metrics.h"
#include "rec/ranker.h"
#include "util/thread_pool.h"

namespace microrec::rec {
namespace {

// Every metric a served query touches, resolved once: the request path
// never builds a metric name or takes the registry lock.
struct ServingMetrics {
  obs::Counter* queries = nullptr;
  obs::Counter* degraded = nullptr;
  obs::Gauge* fallback_rung = nullptr;
  // Per-rung query counters, indexed by ServingRung: unlike the
  // rec.fallback_rung gauge (last rung only) these accumulate, so a load
  // run's rung mix is auditable afterwards — and they must sum to
  // rec.queries, which the serving tests pin.
  std::array<obs::Counter*, 3> rung{};
  // Per-rung end-to-end query latency (seconds), rec.latency.<rung>.
  std::array<obs::Histogram*, 3> latency{};
  // Per-stage latency (seconds), rec.stage.<stage>, indexed by obs::Stage.
  std::array<obs::Histogram*, obs::kNumStages> stage{};
};

const ServingMetrics& Metrics() {
  static const ServingMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    ServingMetrics m;
    m.queries = registry.GetCounter("rec.queries");
    m.degraded = registry.GetCounter("rec.degraded");
    m.fallback_rung = registry.GetGauge("rec.fallback_rung");
    const std::array<std::string, 3> rungs = {"primary", "bag_fallback",
                                              "popularity"};
    for (size_t r = 0; r < rungs.size(); ++r) {
      m.rung[r] = registry.GetCounter("rec.rung." + rungs[r]);
      m.latency[r] = registry.GetHistogram("rec.latency." + rungs[r]);
    }
    for (size_t s = 0; s < obs::kNumStages; ++s) {
      m.stage[s] = registry.GetHistogram(
          "rec.stage." +
          std::string(obs::StageName(static_cast<obs::Stage>(s))));
    }
    return m;
  }();
  return metrics;
}

// Stores only on change: while the rung holds steady, client threads read
// the gauge's cache line instead of each writing it on every query.
void SetFallbackRung(double rung) {
  obs::Gauge* gauge = Metrics().fallback_rung;
  if (gauge->value() != rung) gauge->Set(rung);
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Rung-mix accounting for one answered query: rung counter, rung latency
// histogram, and — when the query carried a trace — one sample per stage
// it entered into that stage's histogram.
void RecordServed(ServingRung rung, double seconds,
                  const obs::RequestTrace* trace) {
  const ServingMetrics& metrics = Metrics();
  const size_t r = static_cast<size_t>(rung);
  metrics.rung[r]->Increment();
  metrics.latency[r]->Record(seconds);
  if (trace == nullptr) return;
  for (size_t s = 0; s < obs::kNumStages; ++s) {
    const auto stage = static_cast<obs::Stage>(s);
    if (trace->Entered(stage)) {
      metrics.stage[s]->Record(trace->StageSeconds(stage));
    }
  }
}

/// Candidates per scoring shard: the unit of parallel kernel work and of
/// deadline re-checks. A deadline check is one clock read — cheap but not
/// free — so shards amortize it without letting an expired query run on
/// for hundreds of candidates.
constexpr size_t kScoreShardSize = 16;

// The rung-1 model: TN over token unigrams, TF weighting, centroid, cosine.
ModelConfig FallbackConfig() {
  ModelConfig config;
  config.kind = ModelKind::kTN;
  config.bag.kind = bag::NgramKind::kToken;
  config.bag.n = 1;
  config.bag.weighting = bag::Weighting::kTF;
  config.bag.aggregation = bag::Aggregation::kCentroid;
  config.bag.similarity = bag::BagSimilarity::kCosine;
  return config;
}

}  // namespace

std::string_view ServingRungName(ServingRung rung) {
  switch (rung) {
    case ServingRung::kPrimary:
      return "primary";
    case ServingRung::kBagFallback:
      return "bag-fallback";
    case ServingRung::kPopularity:
      return "popularity";
  }
  return "unknown";
}

DegradingRecommender::DegradingRecommender(const EngineContext& ctx,
                                           ServingOptions options)
    : ctx_(ctx),
      options_(std::move(options)),
      // The same seed-derived stream the experiment runner ranks with:
      // evaluation and serving resolve ties identically (DESIGN.md §9).
      tie_rng_(ctx.seed, kTieBreakStream) {
  if (options_.score_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.score_threads);
  }
  // Popularity state is precomputed eagerly: rung 2 must never block on
  // anything at query time, it is the "always answers" floor.
  if (ctx_.pre != nullptr) {
    for (const corpus::Tweet& t : ctx_.pre->corpus().tweets()) {
      if (t.IsRetweet()) ++retweet_counts_[t.retweet_of];
    }
  }
}

DegradingRecommender::~DegradingRecommender() = default;

Status DegradingRecommender::EnsurePrimary() {
  if (primary_state_ == PrimaryState::kReady) return Status::OK();
  if (primary_state_ == PrimaryState::kFailed) return primary_status_;
  primary_state_ = PrimaryState::kFailed;  // until proven otherwise
  primary_ = MakeEngine(options_.primary);
  if (primary_ == nullptr) {
    primary_status_ = Status::InvalidArgument(
        "serving: no engine for primary configuration " +
        options_.primary.ToString());
    return primary_status_;
  }
  primary_status_ = primary_->WarmStart(options_.snapshot_path, ctx_);
  if (!primary_status_.ok()) {
    primary_.reset();
    return primary_status_;
  }
  primary_ranker_ = MakeRanker(primary_.get());
  primary_state_ = PrimaryState::kReady;
  return Status::OK();
}

Status DegradingRecommender::EnsureFallbackUser(corpus::UserId u) {
  if (fallback_ == nullptr) {
    fallback_ = MakeEngine(FallbackConfig());
    // Bag engines have no global phase, so Prepare is instant; a cold
    // context without the warm-start path keeps it that way.
    EngineContext cold = ctx_;
    cold.warm_start_snapshot.clear();
    MICROREC_RETURN_IF_ERROR(fallback_->Prepare(cold));
    fallback_ranker_ = MakeRanker(fallback_.get());
  }
  if (fallback_users_.count(u) != 0) return Status::OK();
  if (!ctx_.train_set) {
    return Status::FailedPrecondition(
        "serving: context has no train_set accessor");
  }
  MICROREC_RETURN_IF_ERROR(fallback_->BuildUser(u, ctx_.train_set(u), ctx_));
  fallback_users_.insert(u);
  return Status::OK();
}

std::unique_ptr<BatchRanker> DegradingRecommender::MakeRanker(
    Engine* engine) const {
  RankerOptions ranker_options;
  ranker_options.top_k = options_.top_k;
  ranker_options.shard_size = kScoreShardSize;
  ranker_options.pool = pool_.get();
  ranker_options.score_cache_capacity = options_.score_cache_capacity;
  return std::make_unique<BatchRanker>(engine, &ctx_, ranker_options);
}

Status DegradingRecommender::RankWith(
    BatchRanker* ranker, corpus::UserId u,
    const std::vector<corpus::TweetId>& candidates,
    const resilience::Deadline& deadline, Rng* tie_rng,
    obs::RequestTrace* trace, std::vector<Recommendation>* out) {
  Result<std::vector<RankedItem>> ranked =
      ranker->Rank(u, candidates, tie_rng, &deadline, trace);
  if (!ranked.ok()) return ranked.status();
  *out = std::move(*ranked);
  return Status::OK();
}

std::vector<Recommendation> DegradingRecommender::PopularityRanking(
    const std::vector<corpus::TweetId>& candidates) const {
  std::vector<Recommendation> ranking;
  ranking.reserve(candidates.size());
  const corpus::Corpus* corpus =
      ctx_.pre != nullptr ? &ctx_.pre->corpus() : nullptr;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const corpus::TweetId id = candidates[i];
    double count = 0.0;
    if (corpus != nullptr && id < corpus->num_tweets()) {
      const corpus::Tweet& t = corpus->tweet(id);
      // A retweet candidate inherits the popularity of the original post it
      // forwards; an original is keyed by its own id.
      corpus::TweetId key = t.IsRetweet() ? t.retweet_of : t.id;
      auto it = retweet_counts_.find(key);
      if (it != retweet_counts_.end()) {
        count = static_cast<double>(it->second);
      }
    }
    ranking.push_back(Recommendation{id, count, static_cast<uint32_t>(i)});
  }
  // Recency breaks popularity ties: a fresher tweet ranks above an equally
  // retweeted stale one (then tweet id, for full determinism).
  std::stable_sort(
      ranking.begin(), ranking.end(),
      [corpus](const Recommendation& a, const Recommendation& b) {
        if (a.score != b.score) return a.score > b.score;
        if (corpus != nullptr && a.tweet < corpus->num_tweets() &&
            b.tweet < corpus->num_tweets()) {
          corpus::Timestamp ta = corpus->tweet(a.tweet).time;
          corpus::Timestamp tb = corpus->tweet(b.tweet).time;
          if (ta != tb) return ta > tb;
        }
        return a.tweet < b.tweet;
      });
  return ranking;
}

RecommendResult DegradingRecommender::Recommend(
    corpus::UserId u, const std::vector<corpus::TweetId>& candidates) {
  return Recommend(u, candidates, QueryOptions{});
}

RecommendResult DegradingRecommender::Recommend(
    corpus::UserId u, const std::vector<corpus::TweetId>& candidates,
    const QueryOptions& query) {
  Metrics().queries->Increment();
  const auto query_start = std::chrono::steady_clock::now();
  obs::RequestTrace* trace = query.trace;

  // With a request id, the tie permutation comes from the reserved
  // per-request stream: the served ranking is then a pure function of
  // (seed, request_id), independent of driver thread count and of every
  // query served before it. Anonymous queries keep the lifetime stream.
  Rng request_tie;
  Rng* tie_rng = &tie_rng_;
  if (query.request_id != 0) {
    request_tie = Rng(ctx_.seed, streams::RequestTieStream(query.request_id));
    tie_rng = &request_tie;
  }

  const double budget_seconds = query.deadline_seconds > 0.0
                                    ? query.deadline_seconds
                                    : options_.query_deadline_seconds;
  const resilience::Deadline deadline =
      budget_seconds > 0.0 ? resilience::Deadline::After(budget_seconds)
                           : resilience::Deadline::Infinite();
  const int min_rung = std::clamp(query.min_rung, 0, 2);

  RecommendResult result;
  // Each rung attempt attributes its stages into a scratch trace, folded
  // into the query's trace only if the attempt serves; a failed attempt's
  // whole duration becomes `degrade` time instead, so candidate_gen/score/
  // rank reflect only the work that produced the served ranking and the
  // ladder's wasted walk is visible as its own stage.
  const uint64_t rid = trace != nullptr ? trace->id() : 0;
  const std::string_view op = trace != nullptr ? trace->op() : "";
  // Attempts chain like stages: the first starts with the query, and each
  // later one at the clock read that charged its predecessor to `degrade`.
  auto attempt_start = query_start;
  auto charge_degrade = [&] {
    if (trace == nullptr) return;
    const auto now = std::chrono::steady_clock::now();
    trace->AddStage(obs::Stage::kDegrade,
                    std::chrono::duration<double>(now - attempt_start).count());
    attempt_start = now;
  };

  // Rung 0: the requested model, warm-started from its snapshot.
  if (min_rung <= 0) {
    obs::RequestTrace attempt(rid, op);
    obs::RequestTrace* attempt_trace = trace != nullptr ? &attempt : nullptr;
    Status primary = EnsurePrimary();
    if (primary.ok() && !deadline.Expired()) {
      // Users absent from the snapshot are modeled on demand (the engine
      // skips the ones the snapshot already restored).
      if (primary_users_.count(u) == 0 && ctx_.train_set) {
        primary = primary_->BuildUser(u, ctx_.train_set(u), ctx_);
        if (primary.ok()) primary_users_.insert(u);
      }
      if (primary.ok()) {
        primary = RankWith(primary_ranker_.get(), u, candidates, deadline,
                           tie_rng, attempt_trace, &result.ranking);
      }
      if (primary.ok()) {
        result.rung = ServingRung::kPrimary;
        SetFallbackRung(0.0);
        if (trace != nullptr) trace->AddStages(attempt);
        RecordServed(result.rung, SecondsSince(query_start), trace);
        return result;
      }
    } else if (primary.ok()) {
      primary = Status::DeadlineExceeded(
          "serving: query deadline expired before primary scoring");
    }
    if (primary.code() == StatusCode::kDeadlineExceeded) {
      result.deadline_expired = true;
    }
    result.degraded_reason = primary.ToString();
    charge_degrade();
  } else {
    result.degraded_reason = "rung 0 skipped (min_rung=" +
                             std::to_string(min_rung) + ")";
  }

  // Rung 1: the cached bag-of-words fallback.
  if (min_rung <= 1) {
    obs::RequestTrace attempt(rid, op);
    obs::RequestTrace* attempt_trace = trace != nullptr ? &attempt : nullptr;
    Status fallback = EnsureFallbackUser(u);
    if (fallback.ok()) {
      fallback = RankWith(fallback_ranker_.get(), u, candidates, deadline,
                          tie_rng, attempt_trace, &result.ranking);
    }
    if (fallback.ok()) {
      result.rung = ServingRung::kBagFallback;
      Metrics().degraded->Increment();
      SetFallbackRung(1.0);
      if (trace != nullptr) trace->AddStages(attempt);
      RecordServed(result.rung, SecondsSince(query_start), trace);
      return result;
    }
    if (fallback.code() == StatusCode::kDeadlineExceeded) {
      result.deadline_expired = true;
    }
    result.degraded_reason += "; " + fallback.ToString();
    charge_degrade();
  }

  // Rung 2: popularity — no model state, no deadline checks, always ranks.
  {
    obs::StageClock stages(trace);
    stages.Enter(obs::Stage::kRank);
    result.rung = ServingRung::kPopularity;
    result.ranking = PopularityRanking(candidates);
    if (options_.top_k > 0 && result.ranking.size() > options_.top_k) {
      result.ranking.resize(options_.top_k);
    }
  }
  Metrics().degraded->Increment();
  SetFallbackRung(2.0);
  RecordServed(result.rung, SecondsSince(query_start), trace);
  return result;
}

Status DegradingRecommender::Warm() { return EnsurePrimary(); }

Result<size_t> DegradingRecommender::ProfileLookup(corpus::UserId u) {
  Status primary = EnsurePrimary();
  if (primary.ok()) {
    if (primary_users_.count(u) == 0 && ctx_.train_set) {
      primary = primary_->BuildUser(u, ctx_.train_set(u), ctx_);
      if (primary.ok()) primary_users_.insert(u);
    }
    if (primary.ok()) {
      SparseProfileScorer* scorer = primary_->sparse_scorer();
      const bag::SparseVector* profile =
          scorer != nullptr ? scorer->Profile(u) : nullptr;
      return profile != nullptr ? profile->size() : size_t{0};
    }
  }
  // The primary is unavailable: answer from the rung-1 fallback, the same
  // degradation step a ranking query would take.
  MICROREC_RETURN_IF_ERROR(EnsureFallbackUser(u));
  SparseProfileScorer* scorer = fallback_->sparse_scorer();
  const bag::SparseVector* profile =
      scorer != nullptr ? scorer->Profile(u) : nullptr;
  return profile != nullptr ? profile->size() : size_t{0};
}

}  // namespace microrec::rec
