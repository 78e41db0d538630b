// Fault-tolerant sharded serving (DESIGN.md §13): users partitioned across
// S engine shards by pure hash, each shard a DegradingRecommender warm-
// started from its own snapshot so shards restart independently, fronted by
// a health-gated router.
//
// The contract that makes sharding safe to adopt: on the healthy path the
// served rankings are byte-identical to an unsharded DegradingRecommender
// at ANY shard count. Per-request tie streams make each ranking a pure
// function of (seed, request_id); every shard shares the context and
// serving options; and a user absent from a shard's snapshot is modeled on
// demand from her train set, bit-identical to the snapshot that skipped
// her. Failover therefore changes *where* a query is answered, never
// *what* is answered — the property bench_serving_shards gates, including
// while a shard is being fault-killed mid-run.
//
// Per query the router tries the owner shard first, then walks the ring
// (owner+1, owner+2, ... mod S), skipping shards whose breaker is open.
// Failure modes handled per attempt:
//   - an injected `shard.query` / `shard.query#<s>` fault (the stand-in for
//     a crashed or unreachable shard) records a breaker failure and fails
//     over to the next ring position;
//   - a served-but-late query (deadline_expired) counts as a breaker soft
//     failure so a drowning shard sheds load before it drags p99;
//   - with hedging on (`hedge_after_seconds` > 0), a rung-0 attempt is
//     bounded by the hedge window and, when it trips, re-issued to the same
//     shard's fallback rung with the remaining budget — latency is traded
//     against rung quality explicitly, never silently;
//   - if every shard refuses, the query fails OPEN: the owner shard's
//     popularity rung answers (rec.router.fail_open counts it). A fully
//     partitioned cluster serves worse rankings, not errors.
#ifndef MICROREC_REC_SHARDED_H_
#define MICROREC_REC_SHARDED_H_

#include <memory>
#include <string>
#include <vector>

#include "rec/engine.h"
#include "rec/router.h"
#include "rec/serving.h"

namespace microrec::rec {

/// Path of shard `s`'s snapshot, derived from the unsharded base path:
/// "<base>.shard<s>of<S>". Pure; shard restart tooling and the CLI agree on
/// the layout through this one function.
std::string ShardSnapshotPath(const std::string& base_path, size_t shard,
                              size_t num_shards);

/// Trains and saves one snapshot per shard: each shard's engine runs the
/// identical global phase (the topic-training pool is ctx.users, ALL users
/// — partitioning the pool would change every score) but persists only the
/// user models its shard owns, so a shard restart reads a 1/S-sized file
/// and no shard depends on another's. Paths come from ShardSnapshotPath;
/// `paths` (optional) receives them.
Status BuildShardSnapshots(const ModelConfig& config, const EngineContext& ctx,
                           size_t num_shards, const std::string& base_path,
                           std::vector<std::string>* paths = nullptr);

struct ShardedServingOptions {
  /// Per-shard serving template. `serving.snapshot_path` is the UNSHARDED
  /// base path; each shard loads ShardSnapshotPath(base, s, S).
  /// `query_deadline_seconds` is the whole-query budget the router carves
  /// per-shard attempt deadlines from.
  ServingOptions serving;
  size_t num_shards = 1;
  BreakerOptions breaker;
  /// > 0 enables hedged requests: a rung-0 attempt gets this much time
  /// before the router stops waiting and re-issues to the shard's fallback
  /// rung. Off by default — hedging trades determinism of the served rung
  /// for tail latency, so the byte-identity gates run without it.
  double hedge_after_seconds = 0.0;
};

struct ShardedRecommendResult {
  RecommendResult result;
  size_t owner = 0;        // hash-owning shard
  size_t shard = 0;        // shard that actually served
  uint64_t failovers = 0;  // attempts failed or breaker-skipped first
  bool hedged = false;     // a hedge re-issue produced the served ranking's
                           // shard attempt
  bool fail_open = false;  // every shard refused; popularity floor answered
};

/// The sharded serving front end. Thread-safe: shards serialize their own
/// queries on a per-shard mutex (a DegradingRecommender is not thread-safe)
/// and the router serializes health accounting, so S shards give up to S
/// concurrently executing queries — the shard-per-core scaling axis
/// bench_serving_shards measures.
class ShardedRecommender {
 public:
  /// `ctx` is copied per shard; the preprocessed corpus and train-set
  /// accessor it references must outlive the recommender.
  ShardedRecommender(const EngineContext& ctx, ShardedServingOptions options);
  ~ShardedRecommender();

  size_t num_shards() const { return router_.num_shards(); }

  /// Warms every shard (up to 3 attempts for transient faults). Returns
  /// the first shard's failure if any, but always attempts all shards —
  /// a shard that cannot warm serves degraded, which is the ladder's job.
  Status Warm();

  /// Never errors: failover plus the fail-open popularity floor guarantee a
  /// ranking for every query, whatever the fault script does.
  ShardedRecommendResult Recommend(
      corpus::UserId u, const std::vector<corpus::TweetId>& candidates,
      const QueryOptions& query = {});

  /// Profile term count from the best healthy shard on `u`'s ring.
  Result<size_t> ProfileLookup(corpus::UserId u);

  std::vector<ShardHealth> Health() const { return router_.Health(); }

 private:
  struct Shard;

  /// One-time shard warm-up; callers hold the shard's mutex.
  Status WarmShardLocked(size_t s, Shard* shard);

  /// Walks the shard ring from `owner` (owner, owner+1, ... mod S). Each
  /// shard the breaker admits is locked and warmed; an injected
  /// `shard.query` fault there is recorded as a failed attempt and a
  /// failover, and otherwise `attempt(s, shard)` runs under the lock and
  /// returns true once it has answered, which ends the walk. Returns
  /// whether an attempt answered; `failovers` (optional) counts the shards
  /// refused or faulted on the way.
  template <typename Attempt>
  bool WalkRing(size_t owner, uint64_t* failovers, Attempt attempt);

  EngineContext ctx_;
  ShardedServingOptions options_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace microrec::rec

#endif  // MICROREC_REC_SHARDED_H_
