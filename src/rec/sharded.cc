#include "rec/sharded.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "resilience/fault.h"
#include "resilience/retry.h"

namespace microrec::rec {
namespace {

obs::Counter* FailoverCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("rec.router.failovers");
  return c;
}

obs::Counter* HedgeCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("rec.router.hedges");
  return c;
}

obs::Counter* FailOpenCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("rec.router.fail_open");
  return c;
}

// Shard warm-up (snapshot load) retries transient `shard.warm` faults; a
// corrupt snapshot is not revived.
const resilience::RetryPolicy kWarmRetry =
    resilience::RetryPolicy::WithAttempts(3);

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Evaluates a shard fault site twice: the bare name (jitter every shard)
// and the `#<s>`-qualified name (target one shard). Each qualified name
// keeps its own hit counter, so `shard.query#1:+50` kills exactly shard 1
// after its 50th query while the others never notice.
Status ShardFault(std::string_view site, size_t s) {
  if (!resilience::FaultsArmed()) return Status::OK();
  MICROREC_RETURN_IF_ERROR(resilience::CheckFault(site));
  return resilience::CheckFault(std::string(site) + "#" + std::to_string(s));
}

}  // namespace

std::string ShardSnapshotPath(const std::string& base_path, size_t shard,
                              size_t num_shards) {
  return base_path + ".shard" + std::to_string(shard) + "of" +
         std::to_string(num_shards);
}

Status BuildShardSnapshots(const ModelConfig& config, const EngineContext& ctx,
                           size_t num_shards, const std::string& base_path,
                           std::vector<std::string>* paths) {
  if (num_shards == 0) {
    return Status::InvalidArgument("shard snapshots: num_shards must be >= 1");
  }
  if (ctx.users == nullptr) {
    return Status::InvalidArgument("shard snapshots: context has no users");
  }
  if (!ctx.train_set) {
    return Status::InvalidArgument(
        "shard snapshots: context has no train_set accessor");
  }
  if (paths != nullptr) paths->clear();
  for (size_t s = 0; s < num_shards; ++s) {
    std::unique_ptr<Engine> engine = MakeEngine(config);
    // A cold context: the shard snapshot must stand alone, not inherit a
    // warm start that may vanish. The global phase still pools ALL users'
    // train sets — identical to the unsharded engine — because partitioning
    // the topic-training pool would change every score.
    EngineContext cold = ctx;
    cold.warm_start_snapshot.clear();
    MICROREC_RETURN_IF_ERROR(engine->Prepare(cold));
    for (corpus::UserId u : *ctx.users) {
      if (ShardOf(u, num_shards) != s) continue;
      MICROREC_RETURN_IF_ERROR(engine->BuildUser(u, ctx.train_set(u), cold));
    }
    std::string path = ShardSnapshotPath(base_path, s, num_shards);
    MICROREC_RETURN_IF_ERROR(engine->SaveSnapshot(path, cold));
    if (paths != nullptr) paths->push_back(std::move(path));
  }
  return Status::OK();
}

struct ShardedRecommender::Shard {
  std::mutex mu;
  std::unique_ptr<DegradingRecommender> rec;
  bool warm_attempted = false;
  Status warm_status;
  /// An injected `shard.snapshot.load` fault poisoned this shard's warm-up:
  /// its primary is treated as corrupt and its queries pinned to rung >= 1
  /// until a later warm succeeds.
  bool snapshot_failed = false;
  // Hot-path metric handles, resolved once (the registry lookup takes a
  // lock and a map probe).
  obs::Histogram* latency = nullptr;
  obs::Counter* rung[3] = {nullptr, nullptr, nullptr};
};

ShardedRecommender::ShardedRecommender(const EngineContext& ctx,
                                       ShardedServingOptions options)
    : ctx_(ctx),
      options_(std::move(options)),
      router_(options_.num_shards == 0 ? 1 : options_.num_shards,
              options_.breaker) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  shards_.reserve(router_.num_shards());
  for (size_t s = 0; s < router_.num_shards(); ++s) {
    auto shard = std::make_unique<Shard>();
    ServingOptions serving = options_.serving;
    if (router_.num_shards() > 1) {
      serving.snapshot_path = ShardSnapshotPath(options_.serving.snapshot_path,
                                                s, router_.num_shards());
    }
    // The per-attempt deadline is carved by the router from the whole-query
    // budget; the shard's own ladder must not start a second, competing
    // clock.
    serving.query_deadline_seconds = 0.0;
    shard->rec = std::make_unique<DegradingRecommender>(ctx_, serving);
    const std::string prefix = "rec.shard." + std::to_string(s);
    shard->latency = registry.GetHistogram(prefix + ".latency");
    shard->rung[0] = registry.GetCounter(prefix + ".rung.primary");
    shard->rung[1] = registry.GetCounter(prefix + ".rung.bag_fallback");
    shard->rung[2] = registry.GetCounter(prefix + ".rung.popularity");
    shards_.push_back(std::move(shard));
  }
}

ShardedRecommender::~ShardedRecommender() = default;

Status ShardedRecommender::WarmShardLocked(size_t s, Shard* shard) {
  if (shard->warm_attempted) {
    // Re-warm: a healthy shard's Warm() is a memoized no-op; a poisoned or
    // failed shard keeps reporting its remembered failure.
    if (shard->warm_status.ok() && !shard->snapshot_failed) {
      return shard->rec->Warm();
    }
    return shard->warm_status;
  }
  shard->warm_attempted = true;
  shard->warm_status = resilience::RunWithRetry(
      kWarmRetry, [this, s, shard]() -> Status {
        MICROREC_RETURN_IF_ERROR(
            ShardFault(resilience::kSiteShardWarm, s));
        if (Status fault =
                ShardFault(resilience::kSiteShardSnapshotLoad, s);
            !fault.ok()) {
          shard->snapshot_failed = true;
          return fault;
        }
        Status warmed = shard->rec->Warm();
        if (warmed.ok()) shard->snapshot_failed = false;
        return warmed;
      });
  return shard->warm_status;
}

Status ShardedRecommender::Warm() {
  Status first_failure;
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard<std::mutex> lock(shards_[s]->mu);
    Status warmed = WarmShardLocked(s, shards_[s].get());
    if (!warmed.ok() && first_failure.ok()) first_failure = warmed;
  }
  return first_failure;
}

template <typename Attempt>
bool ShardedRecommender::WalkRing(size_t owner, uint64_t* failovers,
                                  Attempt attempt) {
  const size_t num_shards = router_.num_shards();
  for (size_t k = 0; k < num_shards; ++k) {
    const size_t s = (owner + k) % num_shards;
    if (!router_.AdmitAttempt(s)) {
      if (failovers != nullptr) ++*failovers;
      continue;
    }
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    // Lazy warm keeps construction cheap; a warm failure is the ladder's
    // problem (the shard serves degraded), not a routing failure.
    (void)WarmShardLocked(s, &shard);

    if (Status fault = ShardFault(resilience::kSiteShardQuery, s);
        !fault.ok()) {
      router_.RecordOutcome(s, /*success=*/false, /*deadline_miss=*/false,
                            /*hedged=*/false);
      FailoverCounter()->Increment();
      if (failovers != nullptr) ++*failovers;
      continue;
    }
    if (attempt(s, shard)) return true;
  }
  return false;
}

ShardedRecommendResult ShardedRecommender::Recommend(
    corpus::UserId u, const std::vector<corpus::TweetId>& candidates,
    const QueryOptions& query) {
  ShardedRecommendResult out;
  out.owner = router_.OwnerOf(u);

  const double budget_seconds = query.deadline_seconds > 0.0
                                    ? query.deadline_seconds
                                    : options_.serving.query_deadline_seconds;
  const resilience::Deadline budget =
      budget_seconds > 0.0 ? resilience::Deadline::After(budget_seconds)
                           : resilience::Deadline::Infinite();

  // One attempt on a shard WalkRing admitted, locked and warmed. It always
  // answers: a degraded rung is still an answer.
  auto serve_on = [&](size_t s, Shard& shard) {
    QueryOptions attempt = query;
    if (shard.snapshot_failed && attempt.min_rung < 1) attempt.min_rung = 1;
    const double remaining =
        budget_seconds > 0.0 ? std::max(budget.RemainingSeconds(), 1e-9) : 0.0;
    // With hedging on, the rung-0 attempt only gets the hedge window: past
    // it, we stop waiting on the primary and buy the fallback rung with the
    // rest of the budget.
    bool hedge_bounded = false;
    if (options_.hedge_after_seconds > 0.0 && attempt.min_rung == 0) {
      attempt.deadline_seconds =
          remaining > 0.0
              ? std::min(options_.hedge_after_seconds, remaining)
              : options_.hedge_after_seconds;
      hedge_bounded = true;
    } else if (remaining > 0.0) {
      attempt.deadline_seconds = remaining;
    }

    const auto attempt_start = std::chrono::steady_clock::now();
    RecommendResult served = shard.rec->Recommend(u, candidates, attempt);
    if (hedge_bounded && served.deadline_expired &&
        !(budget_seconds > 0.0 && budget.Expired())) {
      QueryOptions hedge = query;
      hedge.min_rung = std::max(query.min_rung, 1);
      if (budget_seconds > 0.0) {
        hedge.deadline_seconds = std::max(budget.RemainingSeconds(), 1e-9);
      }
      RecommendResult hedged = shard.rec->Recommend(u, candidates, hedge);
      out.hedged = true;
      HedgeCounter()->Increment();
      // Keep the better rung; the hedge can only improve on a deadline-
      // degraded first attempt.
      if (static_cast<int>(hedged.rung) <= static_cast<int>(served.rung)) {
        served = std::move(hedged);
      }
    }

    const double elapsed = SecondsSince(attempt_start);
    const bool deadline_miss =
        served.deadline_expired || (budget_seconds > 0.0 && budget.Expired());
    router_.RecordOutcome(s, /*success=*/true, deadline_miss, out.hedged);
    shard.latency->Record(elapsed);
    shard.rung[static_cast<int>(served.rung)]->Increment();
    out.result = std::move(served);
    out.shard = s;
    return true;
  };
  if (WalkRing(out.owner, &out.failovers, serve_on)) return out;

  // Every shard's breaker refused or every attempt faulted: fail OPEN on
  // the owner's popularity floor. Worse rankings, never an error — the
  // invariant the chaos gate holds the whole topology to.
  FailOpenCounter()->Increment();
  Shard& shard = *shards_[out.owner];
  std::lock_guard<std::mutex> lock(shard.mu);
  QueryOptions floor = query;
  floor.min_rung = 2;
  floor.deadline_seconds = 0.0;
  out.result = shard.rec->Recommend(u, candidates, floor);
  out.shard = out.owner;
  out.fail_open = true;
  shard.rung[static_cast<int>(out.result.rung)]->Increment();
  return out;
}

Result<size_t> ShardedRecommender::ProfileLookup(corpus::UserId u) {
  const size_t owner = router_.OwnerOf(u);
  Result<size_t> looked = size_t{0};
  auto look_up_on = [&](size_t s, Shard& shard) {
    looked = shard.rec->ProfileLookup(u);
    router_.RecordOutcome(s, looked.ok(), /*deadline_miss=*/false,
                          /*hedged=*/false);
    return looked.ok();
  };
  if (WalkRing(owner, /*failovers=*/nullptr, look_up_on)) return looked;
  // Fail open: the owner answers without a fault check — same floor
  // semantics as ranking queries.
  FailOpenCounter()->Increment();
  Shard& shard = *shards_[owner];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.rec->ProfileLookup(u);
}

}  // namespace microrec::rec
