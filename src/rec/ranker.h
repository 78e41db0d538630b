// The shared score -> rank hot path (DESIGN.md §9). Both the experiment
// runner (ETime, Fig. 7) and the degradation-aware serving ladder rank
// through BatchRanker, so evaluation and serving cannot drift apart on
// ordering semantics:
//
//   * one canonical tie-break protocol — a seeded permutation of the
//     candidate list followed by a stable sort on descending score (the
//     unbiased-tie protocol the experiment runner has always used);
//   * non-finite scores (e.g. a corrupted snapshot weight) are mapped to
//     -infinity before any comparator sees them — a single NaN otherwise
//     violates std::sort's strict-weak-ordering precondition, which is UB —
//     and counted in `rec.nonfinite_scores` once per score the engine
//     returned (a cache hit is not counted again);
//   * one scoring loop for every family: Engine::Score per uncached
//     candidate, in shards whose bounds depend only on the candidate
//     count. Engines that score concurrently (resident bag and graph) run
//     the shards on a ThreadPool; the rest score in candidate order on the
//     caller thread. Either way the ranking is byte-for-byte the
//     brute-force ranking at any thread count;
//   * a one-pass top-K selection over the permutation when only the head
//     of the ranking is needed (serving), instead of sorting the full
//     candidate set. Up to 64 kept items and their scores sit in fixed
//     stack buffers, and each insert is a backward shift; a wider top-K
//     sorts fully and truncates. Both give the head of the full ranking;
//   * an optional per-user score cache, a flat open-addressing map
//     (util/flat_map.h), so repeated candidates across queries skip
//     Engine::Score entirely;
//   * per-ranker scratch for the scores, the uncached slots and the
//     permutation, reused across calls: once it has grown, a query whose
//     scores all hit the cache allocates only the ranking it returns.
#ifndef MICROREC_REC_RANKER_H_
#define MICROREC_REC_RANKER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "obs/request.h"
#include "rec/engine.h"
#include "resilience/deadline.h"
#include "util/flat_map.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace microrec::rec {

/// The Rng stream id of the canonical tie-break permutation. Evaluation
/// and serving both derive their tie-break generator from this stream so
/// "same seed" means "same tie resolution" everywhere. The id lives in the
/// reserved-stream registry (util/rng.h) so nothing else — in particular no
/// parallel-Gibbs shard substream — can collide with it.
inline constexpr uint64_t kTieBreakStream = streams::kTieBreak;

/// One ranked candidate. `index` is the candidate's position in the input
/// list, which is how the experiment runner recovers relevance labels
/// (positives precede negatives in the candidate list it builds).
struct RankedItem {
  corpus::TweetId tweet = corpus::kInvalidTweet;
  double score = 0.0;   // after non-finite mapping
  uint32_t index = 0;   // position in the input candidate list
};

struct RankerOptions {
  /// 0 = full ranking; otherwise only the best `top_k` items are returned,
  /// selected in one pass over the tie-break permutation (identical to the
  /// first top_k entries of the full canonical ranking).
  size_t top_k = 0;
  /// Candidates per scoring shard: the unit of parallel scoring work and
  /// of deadline re-checks (a deadline is consulted at every shard
  /// boundary, not just once per query).
  size_t shard_size = 64;
  /// Pool for sharded scoring, used when the engine ScoresConcurrently();
  /// nullptr scores on the caller thread. Rankings are bit-identical
  /// either way.
  ThreadPool* pool = nullptr;
  /// Per-user score-cache entries (0 disables), filled in candidate order
  /// until full. Cached scores are exact, so caching never changes a
  /// ranking, only skips recomputation.
  size_t score_cache_capacity = 0;
};

/// Maps every non-finite score to -infinity in place (so ties among them
/// still break canonically at the bottom of the ranking) and bumps the
/// `rec.nonfinite_scores` counter per occurrence. Returns how many scores
/// were mapped.
size_t SanitizeScores(std::vector<double>* scores);

/// The canonical tie-break order over `scores`: Fisher-Yates permutation
/// drawn from `tie_rng` (consuming exactly one Shuffle of size n, whether
/// or not top_k truncates), then a stable sort on descending score.
/// Returns candidate indices in rank order — all of them for top_k == 0,
/// otherwise the best top_k, kept sorted in one pass over the permutation.
/// `tie_rng` may be nullptr (no permutation: ties break by input
/// position). Scores must be NaN-free; call SanitizeScores first.
std::vector<uint32_t> CanonicalOrder(const std::vector<double>& scores,
                                     Rng* tie_rng, size_t top_k = 0);

/// Batched, sharded scoring + canonical ranking over one engine. Not
/// thread-safe itself (internal parallelism only): its score cache and
/// per-call scratch belong to one caller at a time. The engine and context
/// must outlive the ranker.
class BatchRanker {
 public:
  BatchRanker(Engine* engine, const EngineContext* ctx,
              RankerOptions options);

  /// Scores `candidates` for user `u` and returns them in canonical rank
  /// order. Advances `tie_rng` by exactly one Shuffle of candidates.size()
  /// elements (nullptr = no permutation). The deadline, when given, is
  /// re-checked at every shard boundary; expiry aborts with
  /// DeadlineExceeded before any ranking is produced. `trace`, when given,
  /// receives per-stage latency attribution (candidate_gen / score / rank,
  /// one clock read per stage boundary) and tags the Chrome spans of this
  /// call with its request id; tracing never changes scores or ordering.
  Result<std::vector<RankedItem>> Rank(
      corpus::UserId u, const std::vector<corpus::TweetId>& candidates,
      Rng* tie_rng, const resilience::Deadline* deadline = nullptr,
      obs::RequestTrace* trace = nullptr);

  const RankerOptions& options() const { return options_; }

 private:
  Engine* engine_;
  const EngineContext* ctx_;
  RankerOptions options_;
  std::unordered_map<corpus::UserId, FlatMap<corpus::TweetId, double>>
      cache_;
  // Per-call scratch; Rank() resets each before use.
  std::vector<double> scores_;      // by candidate position
  std::vector<uint32_t> uncached_;  // positions Engine::Score fills
  std::vector<uint32_t> order_;     // tie permutation, then rank order
};

}  // namespace microrec::rec

#endif  // MICROREC_REC_RANKER_H_
