#include "rec/ranker.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <string>

#include "obs/metrics.h"

namespace microrec::rec {

namespace {

obs::Counter* CandidatesCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("rec.ranker.candidates");
  return counter;
}

obs::Counter* NonfiniteCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("rec.nonfinite_scores");
  return counter;
}

// Maps a non-finite *score to -infinity; returns whether it did.
bool MapNonfinite(double* score) {
  if (std::isfinite(*score)) return false;
  *score = -std::numeric_limits<double>::infinity();
  return true;
}

size_t CountNonfinite(size_t mapped) {
  if (mapped > 0) NonfiniteCounter()->Add(mapped);
  return mapped;
}

}  // namespace

size_t SanitizeScores(std::vector<double>* scores) {
  size_t mapped = 0;
  for (double& s : *scores) mapped += MapNonfinite(&s);
  return CountNonfinite(mapped);
}

std::vector<uint32_t> CanonicalOrder(const std::vector<double>& scores,
                                     Rng* tie_rng, size_t top_k) {
  std::vector<uint32_t> perm(scores.size());
  std::iota(perm.begin(), perm.end(), 0u);
  if (tie_rng != nullptr) tie_rng->Shuffle(perm);
  if (top_k == 0 || top_k >= perm.size()) {
    std::stable_sort(perm.begin(), perm.end(),
                     [&scores](uint32_t a, uint32_t b) {
                       return scores[a] > scores[b];
                     });
    return perm;
  }
  // One pass keeps the best top_k, sorted. Permuted positions arrive in
  // ascending order, so placing each item after every kept item of equal
  // score realises (score desc, permuted position asc): the total order the
  // stable sort above gives, so this is the head of the full ranking.
  std::vector<uint32_t> kept;
  kept.reserve(top_k);
  for (uint32_t i : perm) {
    const double score = scores[i];
    if (kept.size() == top_k) {
      if (!(score > scores[kept.back()])) continue;
      kept.pop_back();
    }
    kept.insert(std::upper_bound(kept.begin(), kept.end(), score,
                                 [&scores](double s, uint32_t k) {
                                   return s > scores[k];
                                 }),
                i);
  }
  return kept;
}

BatchRanker::BatchRanker(Engine* engine, const EngineContext* ctx,
                         RankerOptions options)
    : engine_(engine), ctx_(ctx), options_(options) {
  if (options_.shard_size == 0) options_.shard_size = 1;
}

Result<std::vector<RankedItem>> BatchRanker::Rank(
    corpus::UserId u, const std::vector<corpus::TweetId>& candidates,
    Rng* tie_rng, const resilience::Deadline* deadline,
    obs::RequestTrace* trace) {
  const size_t n = candidates.size();
  CandidatesCounter()->Add(n);
  std::vector<double> scores(n, 0.0);
  std::vector<uint32_t> uncached(n);  // slots Engine::Score fills, in order
  std::iota(uncached.begin(), uncached.end(), 0u);
  FlatMap<corpus::TweetId, double>* user_cache = nullptr;
  if (options_.score_cache_capacity > 0) {
    obs::ScopedStage stage(trace, obs::Stage::kCandidateGen);
    auto it = cache_.find(u);
    if (it != cache_.end()) {
      user_cache = &it->second;
      uncached.clear();
      for (uint32_t i = 0; i < n; ++i) {
        if (const double* hit = user_cache->Find(candidates[i])) {
          scores[i] = *hit;
        } else {
          uncached.push_back(i);
        }
      }
    }
  }

  {
    obs::ScopedStage stage(trace, obs::Stage::kScore);
    // Each shard writes its own slots, and shard bounds depend only on
    // (uncached.size(), shard_size), so any pool size yields the same bits.
    std::atomic<bool> expired{false};
    auto score_shard = [&](size_t begin, size_t end) {
      if (deadline != nullptr && deadline->Expired()) {
        expired.store(true, std::memory_order_relaxed);
        return;
      }
      for (size_t k = begin; k < end; ++k) {
        scores[uncached[k]] =
            engine_->Score(u, candidates[uncached[k]], *ctx_);
      }
    };
    const size_t shard_size = options_.shard_size;
    if (options_.pool != nullptr && engine_->ScoresConcurrently()) {
      options_.pool->ParallelForShards(uncached.size(), shard_size,
                                       score_shard);
    } else {
      // In candidate order on this thread: topic fold-in draws, and mapped
      // row decodes, follow the call order.
      const size_t shards = ThreadPool::NumShards(uncached.size(), shard_size);
      for (size_t s = 0; s < shards && !expired; ++s) {
        const auto [begin, end] =
            ThreadPool::ShardBounds(uncached.size(), shard_size, s);
        score_shard(begin, end);
      }
    }
    if (expired) {
      return Status::DeadlineExceeded(
          "ranker: deadline expired scoring " +
          std::to_string(uncached.size()) + " candidates");
    }
  }

  obs::ScopedStage rank_stage(trace, obs::Stage::kRank);
  // A non-finite score would be UB inside the sort comparators below, and a
  // NaN-ranked item is a model bug worth surfacing, not propagating. Cache
  // hits were sanitized when they were scored.
  size_t mapped = 0;
  for (uint32_t i : uncached) mapped += MapNonfinite(&scores[i]);
  CountNonfinite(mapped);

  if (options_.score_cache_capacity > 0 && !uncached.empty()) {
    if (user_cache == nullptr) user_cache = &cache_[u];
    for (uint32_t i : uncached) {
      if (user_cache->size() >= options_.score_cache_capacity) break;
      user_cache->Insert(candidates[i], scores[i]);
    }
  }

  std::vector<uint32_t> order = CanonicalOrder(scores, tie_rng,
                                               options_.top_k);
  std::vector<RankedItem> ranked;
  ranked.reserve(order.size());
  for (uint32_t idx : order) {
    ranked.push_back(RankedItem{candidates[idx], scores[idx], idx});
  }
  return ranked;
}

}  // namespace microrec::rec
