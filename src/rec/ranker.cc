#include "rec/ranker.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>

#include "bag/inverted_index.h"
#include "obs/metrics.h"

namespace microrec::rec {

namespace {

obs::Counter* CandidatesCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("rec.ranker.candidates");
  return counter;
}

obs::Counter* PrunedCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("rec.ranker.pruned");
  return counter;
}

obs::Counter* NonfiniteCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("rec.nonfinite_scores");
  return counter;
}

// The kernel fast path bypasses Engine::Score, so it accounts its
// invocations here to keep the run-report scoring totals truthful.
obs::Counter* EngineScoresCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("rec.engine.scores");
  return counter;
}

}  // namespace

size_t SanitizeScores(std::vector<double>* scores) {
  size_t mapped = 0;
  for (double& s : *scores) {
    if (!std::isfinite(s)) {
      s = -std::numeric_limits<double>::infinity();
      ++mapped;
    }
  }
  if (mapped > 0) NonfiniteCounter()->Add(mapped);
  return mapped;
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
  // Bounded selection. (score desc, permuted position asc) is the total
  // order the stable sort above realises, so keeping the top_k least
  // elements under it reproduces the head of the full ranking exactly.
  std::vector<uint32_t> pos(perm.size());
  for (uint32_t k = 0; k < perm.size(); ++k) pos[perm[k]] = k;
  auto better = [&scores, &pos](uint32_t a, uint32_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return pos[a] < pos[b];
  };
  // Heap with `better` as the ordering: the front is the worst kept item.
  std::vector<uint32_t> kept;
  kept.reserve(top_k + 1);
  for (uint32_t i = 0; i < perm.size(); ++i) {
    if (kept.size() < top_k) {
      kept.push_back(i);
      std::push_heap(kept.begin(), kept.end(), better);
    } else if (better(i, kept.front())) {
      std::pop_heap(kept.begin(), kept.end(), better);
      kept.back() = i;
      std::push_heap(kept.begin(), kept.end(), better);
    }
  }
  std::sort(kept.begin(), kept.end(), better);
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
  std::vector<uint8_t> cached(n, 0);
  if (options_.score_cache_capacity > 0) {
    obs::ScopedStage stage(trace, obs::Stage::kCandidateGen);
    auto it = cache_.find(u);
    if (it != cache_.end()) {
      for (size_t i = 0; i < n; ++i) {
        auto hit = it->second.find(candidates[i]);
        if (hit != it->second.end()) {
          scores[i] = hit->second;
          cached[i] = 1;
        }
      }
    }
  }

  SparseProfileScorer* scorer = engine_->sparse_scorer();
  const bag::SparseVector* profile =
      scorer != nullptr ? scorer->Profile(u) : nullptr;
  if (scorer != nullptr && profile != nullptr) {
    MICROREC_RETURN_IF_ERROR(
        ScoreSparse(scorer, u, candidates, cached, deadline, trace, &scores));
  } else {
    MICROREC_RETURN_IF_ERROR(
        ScoreGeneric(u, candidates, cached, deadline, trace, &scores));
  }

  obs::ScopedStage rank_stage(trace, obs::Stage::kRank);
  // A non-finite score would be UB inside the sort comparators below, and a
  // NaN-ranked item is a model bug worth surfacing, not propagating.
  SanitizeScores(&scores);

  if (options_.score_cache_capacity > 0) {
    auto& user_cache = cache_[u];
    for (size_t i = 0; i < n; ++i) {
      if (cached[i] != 0) continue;
      if (user_cache.size() >= options_.score_cache_capacity) break;
      user_cache.emplace(candidates[i], scores[i]);
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

Status BatchRanker::ScoreSparse(SparseProfileScorer* scorer, corpus::UserId u,
                                const std::vector<corpus::TweetId>& candidates,
                                const std::vector<uint8_t>& cached,
                                const resilience::Deadline* deadline,
                                obs::RequestTrace* trace,
                                std::vector<double>* scores) {
  const size_t n = candidates.size();
  const bag::SparseVector* profile = scorer->Profile(u);
  // An evidence-free profile scores 0 against everything (every bag
  // similarity is zero-guarded), which the zero-filled `scores` already
  // says; skip embedding entirely.
  if (profile->empty()) {
    size_t uncached = 0;
    for (size_t i = 0; i < n; ++i) uncached += cached[i] == 0 ? 1 : 0;
    if (uncached > 0) PrunedCounter()->Add(uncached);
    return Status::OK();
  }

  // Embed phase: sequential in candidate order — embedding interns new
  // vocabulary, and the intern order must match what one-at-a-time scoring
  // would produce for the results to stay bit-identical to brute force.
  std::vector<bag::SparseVector> embedded(n);
  bag::InvertedIndex index;
  index.Reserve(n);
  size_t uncached = 0;
  std::vector<uint32_t> overlap;
  {
    obs::ScopedStage stage(trace, obs::Stage::kCandidateGen);
    for (size_t i = 0; i < n; ++i) {
      if (cached[i] != 0) continue;
      if (deadline != nullptr && i % options_.shard_size == 0 &&
          deadline->Expired()) {
        return Status::DeadlineExceeded(
            "ranker: deadline expired embedding candidate " +
            std::to_string(i) + " of " + std::to_string(n));
      }
      embedded[i] = scorer->Embed(u, candidates[i], *ctx_);
      index.Add(static_cast<uint32_t>(i), embedded[i]);
      ++uncached;
    }

    // Prune: only candidates sharing a term with the profile can score
    // non-zero; the rest keep their exact-0 slot. A full cache hit adds
    // nothing to either counter, so it skips both.
    overlap = index.Overlapping(*profile);
    if (uncached > overlap.size()) {
      PrunedCounter()->Add(uncached - overlap.size());
    }
    if (!overlap.empty()) EngineScoresCounter()->Add(overlap.size());
  }

  obs::ScopedStage score_stage(trace, obs::Stage::kScore);
  // Kernel phase: each shard writes disjoint slots, and shard boundaries
  // depend only on (overlap.size(), shard_size), so any pool size yields
  // the same bits.
  if (options_.pool != nullptr && overlap.size() > 1) {
    std::atomic<bool> expired{false};
    options_.pool->ParallelForShards(
        overlap.size(), options_.shard_size,
        [&](size_t begin, size_t end) {
          if (deadline != nullptr && deadline->Expired()) {
            expired.store(true, std::memory_order_relaxed);
            return;
          }
          for (size_t k = begin; k < end; ++k) {
            const uint32_t slot = overlap[k];
            (*scores)[slot] =
                scorer->Kernel(u, *profile, embedded[slot]);
          }
        });
    if (expired.load(std::memory_order_relaxed)) {
      return Status::DeadlineExceeded(
          "ranker: deadline expired during sharded scoring");
    }
  } else {
    for (size_t k = 0; k < overlap.size(); ++k) {
      if (deadline != nullptr && k % options_.shard_size == 0 &&
          deadline->Expired()) {
        return Status::DeadlineExceeded(
            "ranker: deadline expired scoring candidate " +
            std::to_string(k) + " of " + std::to_string(overlap.size()));
      }
      const uint32_t slot = overlap[k];
      (*scores)[slot] = scorer->Kernel(u, *profile, embedded[slot]);
    }
  }
  return Status::OK();
}

Status BatchRanker::ScoreGeneric(
    corpus::UserId u, const std::vector<corpus::TweetId>& candidates,
    const std::vector<uint8_t>& cached, const resilience::Deadline* deadline,
    obs::RequestTrace* trace, std::vector<double>* scores) {
  // Sequential, in candidate order: topic engines consume inference RNG
  // draws per previously unseen tweet, so scoring order is part of the
  // deterministic contract. Engine::Score fuses candidate embedding with
  // the kernel, so the whole phase is attributed to the score stage.
  obs::ScopedStage stage(trace, obs::Stage::kScore);
  const size_t n = candidates.size();
  for (size_t i = 0; i < n; ++i) {
    if (cached[i] != 0) continue;
    if (deadline != nullptr && i % options_.shard_size == 0 &&
        deadline->Expired()) {
      return Status::DeadlineExceeded(
          "ranker: deadline expired scoring candidate " + std::to_string(i) +
          " of " + std::to_string(n));
    }
    (*scores)[i] = engine_->Score(u, candidates[i], *ctx_);
  }
  return Status::OK();
}

}  // namespace microrec::rec
