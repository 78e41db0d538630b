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

// The widest top-K selection kept on the stack. A wider top_k takes the
// full stable sort and truncates it, which is the same ranking head.
constexpr size_t kMaxSelectK = 64;

// CanonicalOrder into `order`, whose capacity carries over between calls:
// the permutation is drawn in it, then sorted in place or overwritten with
// the selected head.
void CanonicalOrderInto(const std::vector<double>& scores, Rng* tie_rng,
                        size_t top_k, std::vector<uint32_t>* order) {
  const size_t n = scores.size();
  order->resize(n);
  std::iota(order->begin(), order->end(), 0u);
  if (tie_rng != nullptr) tie_rng->Shuffle(*order);
  if (top_k == 0 || top_k >= n || top_k > kMaxSelectK) {
    std::stable_sort(order->begin(), order->end(),
                     [&scores](uint32_t a, uint32_t b) {
                       return scores[a] > scores[b];
                     });
    if (top_k != 0 && top_k < n) order->resize(top_k);
    return;
  }
  // One pass keeps the best top_k, sorted, with their scores beside them.
  // Permuted positions arrive in ascending order, so placing each item
  // after every kept item of equal score realises (score desc, permuted
  // position asc): the total order the stable sort above gives, so this is
  // the head of the full ranking.
  uint32_t kept[kMaxSelectK] = {};
  double kept_score[kMaxSelectK] = {};
  size_t size = 0;
  for (uint32_t i : *order) {
    const double score = scores[i];
    size_t pos;
    if (size < top_k) {
      pos = size++;
    } else if (score > kept_score[top_k - 1]) {
      pos = top_k - 1;  // the last kept item drops out
    } else {
      continue;
    }
    for (; pos > 0 && score > kept_score[pos - 1]; --pos) {
      kept[pos] = kept[pos - 1];
      kept_score[pos] = kept_score[pos - 1];
    }
    kept[pos] = i;
    kept_score[pos] = score;
  }
  order->assign(kept, kept + size);
}

}  // namespace

size_t SanitizeScores(std::vector<double>* scores) {
  size_t mapped = 0;
  for (double& s : *scores) mapped += MapNonfinite(&s);
  return CountNonfinite(mapped);
}

std::vector<uint32_t> CanonicalOrder(const std::vector<double>& scores,
                                     Rng* tie_rng, size_t top_k) {
  std::vector<uint32_t> order;
  CanonicalOrderInto(scores, tie_rng, top_k, &order);
  return order;
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
  obs::StageClock stages(trace);
  // Every slot is written before it is read: hits by the probe below,
  // misses by Engine::Score.
  scores_.resize(n);
  uncached_.clear();  // slots Engine::Score fills, in order
  FlatMap<corpus::TweetId, double>* user_cache = nullptr;
  if (options_.score_cache_capacity > 0) {
    stages.Enter(obs::Stage::kCandidateGen);
    auto it = cache_.find(u);
    if (it != cache_.end()) user_cache = &it->second;
  }
  if (user_cache == nullptr) {
    uncached_.resize(n);
    std::iota(uncached_.begin(), uncached_.end(), 0u);
  } else {
    for (uint32_t i = 0; i < n; ++i) {
      if (const double* hit = user_cache->Find(candidates[i])) {
        scores_[i] = *hit;
      } else {
        uncached_.push_back(i);
      }
    }
  }

  stages.Enter(obs::Stage::kScore);
  {
    // Each shard writes its own slots, and shard bounds depend only on
    // (uncached_.size(), shard_size), so any pool size yields the same bits.
    std::atomic<bool> expired{false};
    auto score_shard = [&](size_t begin, size_t end) {
      if (deadline != nullptr && deadline->Expired()) {
        expired.store(true, std::memory_order_relaxed);
        return;
      }
      for (size_t k = begin; k < end; ++k) {
        scores_[uncached_[k]] =
            engine_->Score(u, candidates[uncached_[k]], *ctx_);
      }
    };
    const size_t shard_size = options_.shard_size;
    if (options_.pool != nullptr && engine_->ScoresConcurrently()) {
      options_.pool->ParallelForShards(uncached_.size(), shard_size,
                                       score_shard);
    } else {
      // In candidate order on this thread: topic fold-in draws, and mapped
      // row decodes, follow the call order.
      const size_t shards =
          ThreadPool::NumShards(uncached_.size(), shard_size);
      for (size_t s = 0; s < shards && !expired; ++s) {
        const auto [begin, end] =
            ThreadPool::ShardBounds(uncached_.size(), shard_size, s);
        score_shard(begin, end);
      }
    }
    if (expired) {
      return Status::DeadlineExceeded(
          "ranker: deadline expired scoring " +
          std::to_string(uncached_.size()) + " candidates");
    }
  }

  stages.Enter(obs::Stage::kRank);
  // A non-finite score would be UB inside the sort comparators below, and a
  // NaN-ranked item is a model bug worth surfacing, not propagating. Cache
  // hits were sanitized when they were scored.
  size_t mapped = 0;
  for (uint32_t i : uncached_) mapped += MapNonfinite(&scores_[i]);
  CountNonfinite(mapped);

  if (options_.score_cache_capacity > 0 && !uncached_.empty()) {
    if (user_cache == nullptr) user_cache = &cache_[u];
    for (uint32_t i : uncached_) {
      if (user_cache->size() >= options_.score_cache_capacity) break;
      user_cache->Insert(candidates[i], scores_[i]);
    }
  }

  CanonicalOrderInto(scores_, tie_rng, options_.top_k, &order_);
  std::vector<RankedItem> ranked;
  ranked.reserve(order_.size());
  for (uint32_t idx : order_) {
    ranked.push_back(RankedItem{candidates[idx], scores_[idx], idx});
  }
  return ranked;
}

}  // namespace microrec::rec
