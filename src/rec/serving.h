// The degradation-aware serving path (train-once / recommend-many): ranks a
// user's candidate tweets under a per-query deadline, walking a three-rung
// ladder instead of failing —
//   rung 0  the requested configuration, warm-started from a snapshot;
//   rung 1  a cached TN bag-of-words fallback built directly from the
//           user's train set (no global training phase, Section 3.2);
//   rung 2  a popularity baseline (global retweet counts, recency
//           tiebreak) that needs no model state and cannot fail.
// Every degradation is counted in `rec.degraded` and the rung served is
// published in the `rec.fallback_rung` gauge, so an operator can see a
// corrupted snapshot or an overloaded box in the run report instead of a
// crash log.
//
// Rungs 0 and 1 rank through rec::BatchRanker — the same batched, pruned
// scoring path and canonical tie-break protocol the experiment runner
// uses — so a score served online is ordered exactly as it would be in
// offline evaluation.
#ifndef MICROREC_REC_SERVING_H_
#define MICROREC_REC_SERVING_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/request.h"
#include "rec/engine.h"
#include "rec/model_config.h"
#include "rec/ranker.h"
#include "util/rng.h"
#include "util/status.h"

namespace microrec {
class ThreadPool;
}

namespace microrec::rec {

/// Which rung of the ladder produced a ranking. Numeric values are what
/// the `rec.fallback_rung` gauge reports.
enum class ServingRung : int {
  kPrimary = 0,
  kBagFallback = 1,
  kPopularity = 2,
};

std::string_view ServingRungName(ServingRung rung);

/// Serving configuration. `primary` + `snapshot_path` name the trained
/// state produced by Engine::SaveSnapshot. The rung-1 fallback is always
/// plain TN (token unigrams, TF weighting, centroid, cosine): the cheapest
/// model of Table 5 that still personalizes.
struct ServingOptions {
  ModelConfig primary;
  std::string snapshot_path;
  /// Per-query budget in seconds; <= 0 means unlimited. The ladder drops a
  /// rung whenever the remaining budget expires mid-phase; scoring re-checks
  /// the budget every shard of candidates, not just once per query.
  double query_deadline_seconds = 0.0;
  /// Return only the best `top_k` recommendations (0 = rank everything).
  /// The ranker selects them in one pass: the result is exactly the head
  /// of the full canonical ranking.
  size_t top_k = 0;
  /// Threads for the sharded scoring phase; 1 scores on the query thread.
  /// Rankings are bit-identical at any value.
  size_t score_threads = 1;
  /// Per-user ranker score-cache entries (0 disables): repeat candidates
  /// across queries skip embedding and the similarity kernel. Cached
  /// scores are exact, so caching never changes a ranking.
  size_t score_cache_capacity = 0;
};

/// A served item is a ranked one: the ranker's output moves into the
/// result as is. `index` is the item's position in the candidate list.
using Recommendation = RankedItem;

/// Per-query request telemetry (DESIGN.md §12). Both fields are optional
/// and never change which tweets are served — only *how* ties break and
/// what gets attributed where:
///   - request_id != 0 switches the tie-break permutation from the
///     recommender's advancing lifetime stream to the reserved per-request
///     stream streams::RequestTieStream(request_id), making the ranking a
///     pure function of (seed, request_id) — the property the load
///     driver's cross-thread determinism gate checks. Id 0 means
///     "anonymous query" and keeps the legacy advancing stream
///     bit-identical; request generators number requests from 1.
///   - trace, when non-null, receives per-stage latency attribution for
///     this query (candidate_gen / score / rank / degrade) and tags the
///     query's Chrome spans with the request id.
struct QueryOptions {
  uint64_t request_id = 0;
  obs::RequestTrace* trace = nullptr;
  /// Per-query budget override in seconds; > 0 replaces
  /// ServingOptions::query_deadline_seconds for this query only. The shard
  /// router uses it to carve each shard attempt's deadline out of the
  /// remaining whole-query budget.
  double deadline_seconds = 0.0;
  /// Lowest ladder rung allowed to serve (0 = whole ladder). The router
  /// re-issues hedged queries with min_rung = 1 — "stop waiting on the
  /// primary, give me the fallback now" — and pins a shard whose snapshot
  /// failed to load to its surviving rungs. Clamped to rung 2.
  int min_rung = 0;
};

/// One query's outcome. `ranking` is always non-empty when `candidates`
/// was; `degraded_reason` is empty on rung 0 and otherwise explains the
/// first failure that pushed the query down the ladder.
struct RecommendResult {
  ServingRung rung = ServingRung::kPrimary;
  std::vector<Recommendation> ranking;  // descending score
  std::string degraded_reason;
  /// True when an expired query deadline pushed this query down at least
  /// one rung — the signal the shard router's hedging and breaker
  /// deadline-miss accounting key on. False for degradations with other
  /// causes (bad snapshot, build failure) and for rungs skipped by
  /// min_rung.
  bool deadline_expired = false;
};

/// Serves rankings for one (configuration, source) pair. The primary
/// engine is warm-started lazily on the first query (Engine::WarmStart, so
/// `ctx.serve_mode` picks resident or mmap) and cached across queries; a
/// load failure (missing file, corruption, identity mismatch — or an
/// injected `snapshot.load` fault, in either mode) is remembered so later
/// queries go straight to the fallback instead of re-reading a bad file.
///
/// Not thread-safe; `ctx.pre`, `ctx.train_set` and the cohort data they
/// reference must outlive the recommender.
class DegradingRecommender {
 public:
  DegradingRecommender(const EngineContext& ctx, ServingOptions options);
  ~DegradingRecommender();

  /// Ranks `candidates` for user `u`. Never returns an error for runtime
  /// degradation causes (bad snapshot, expired deadline, fallback build
  /// failure); the popularity rung always produces a ranking. `query` adds
  /// request telemetry: a per-request tie-break stream when
  /// `query.request_id` != 0 and stage attribution into `query.trace`.
  RecommendResult Recommend(corpus::UserId u,
                            const std::vector<corpus::TweetId>& candidates,
                            const QueryOptions& query = {});

  /// Eagerly loads the primary snapshot (the load driver's snapshot-warm op
  /// class). Returns the primary status; failure means later queries serve
  /// degraded, which is the ladder's job, not a hard error.
  Status Warm();

  /// Ensures `u` has a profile on the best available rung (primary first,
  /// bag fallback otherwise) and returns its term count — the load
  /// driver's profile-lookup op class. 0 for engines without sparse
  /// profiles or users with empty train sets.
  Result<size_t> ProfileLookup(corpus::UserId u);

  /// Status of the lazy primary load: OK before the first query and after
  /// a successful load, otherwise the remembered failure.
  const Status& primary_status() const { return primary_status_; }

 private:
  enum class PrimaryState { kUntried, kReady, kFailed };

  /// Loads the primary engine from the snapshot once; degrades on failure.
  Status EnsurePrimary();
  /// Lazily builds the rung-1 bag model of `u` from her train set.
  Status EnsureFallbackUser(corpus::UserId u);

  /// Builds a BatchRanker over `engine` with this recommender's options
  /// (top-K, shard size, pool, score cache).
  std::unique_ptr<BatchRanker> MakeRanker(Engine* engine) const;

  std::vector<Recommendation> PopularityRanking(
      const std::vector<corpus::TweetId>& candidates) const;

  EngineContext ctx_;
  ServingOptions options_;

  /// One tie-break stream for the recommender's lifetime: every ranking
  /// attempt advances it, so repeated queries break ties independently but
  /// a fixed seed replays the exact query sequence.
  Rng tie_rng_;
  std::unique_ptr<ThreadPool> pool_;

  PrimaryState primary_state_ = PrimaryState::kUntried;
  Status primary_status_;
  std::unique_ptr<Engine> primary_;
  std::unique_ptr<BatchRanker> primary_ranker_;
  std::unordered_set<corpus::UserId> primary_users_;

  std::unique_ptr<Engine> fallback_;
  std::unique_ptr<BatchRanker> fallback_ranker_;
  std::unordered_set<corpus::UserId> fallback_users_;

  /// Global retweet count per original tweet id, built once.
  std::unordered_map<corpus::TweetId, uint64_t> retweet_counts_;
};

}  // namespace microrec::rec

#endif  // MICROREC_REC_SERVING_H_
