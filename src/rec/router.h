// Shard routing for the fault-tolerant serving topology (DESIGN.md §13):
// a pure-hash user partitioner and a per-shard circuit breaker.
//
// Partitioning follows the determinism discipline of
// ThreadPool::ParallelForShards — ShardOf(u, S) is a pure function of the
// user id and the shard count, with no dependence on thread schedule,
// arrival order, or wall clock, so the same user always lands on the same
// shard and a re-run routes identically.
//
// The breaker is the classic closed / open / half-open machine, but its
// cooldown is measured in *queries routed while open* rather than wall
// time: after `cooldown_queries` arrivals were turned away, the next
// arrival is admitted as a probe. Query counts make breaker trajectories a
// pure function of the workload, so chaos gates can assert exact breaker
// behavior instead of sleeping and hoping.
#ifndef MICROREC_REC_ROUTER_H_
#define MICROREC_REC_ROUTER_H_

#include <cstdint>
#include <mutex>
#include <string_view>
#include <vector>

#include "corpus/corpus.h"

namespace microrec::obs {
class Gauge;
}  // namespace microrec::obs

namespace microrec::rec {

/// Owning shard of user `u` among `num_shards`: FNV-1a over the id, mod S.
/// Pure — safe to call from any thread, identical across runs.
size_t ShardOf(corpus::UserId u, size_t num_shards);

/// Numeric values are what the `rec.shard.<s>.health` gauges publish:
/// 0 healthy, 1 probing, 2 ejected.
enum class BreakerState : int {
  kClosed = 0,
  kHalfOpen = 1,
  kOpen = 2,
};

std::string_view BreakerStateName(BreakerState state);

struct BreakerOptions {
  /// Consecutive failures (errors or deadline misses) that open the breaker.
  int failure_threshold = 3;
  /// Arrivals turned away while open before the next one probes.
  uint64_t cooldown_queries = 8;
  /// Consecutive probe successes that close a half-open breaker.
  int half_open_successes = 1;
};

/// Breaker for one shard. Not thread-safe — ShardRouter serializes access.
class ShardBreaker {
 public:
  explicit ShardBreaker(BreakerOptions options = BreakerOptions());

  /// Admission decision for one arrival. Open breakers count the turned-away
  /// arrival toward the cooldown and flip to half-open when it elapses, so
  /// calling this IS the passage of time.
  bool AllowRequest();
  void RecordSuccess();
  void RecordFailure();

  BreakerState state() const { return state_; }
  /// Total state transitions since construction (chaos gates assert a killed
  /// shard's breaker actually tripped).
  uint64_t transitions() const { return transitions_; }

 private:
  void TransitionTo(BreakerState next);

  BreakerOptions options_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  int half_open_successes_ = 0;
  uint64_t open_arrivals_ = 0;
  uint64_t transitions_ = 0;
};

/// Health snapshot of one shard, for LoadReport per-shard breakdowns and
/// `microrec load` output.
struct ShardHealth {
  int shard = 0;
  BreakerState state = BreakerState::kClosed;
  uint64_t breaker_transitions = 0;
  uint64_t served = 0;
  uint64_t failures = 0;         // failed attempts (faults / errors)
  uint64_t deadline_misses = 0;  // served, but past a deadline
  uint64_t hedges = 0;           // hedged re-issues on this shard
};

/// Thread-safe admission + accounting for S shards. Owns the breakers and
/// publishes each shard's state to the `rec.shard.<s>.health` gauge on
/// every transition. The actual query execution lives in
/// ShardedRecommender; the router only decides and counts.
class ShardRouter {
 public:
  ShardRouter(size_t num_shards, BreakerOptions breaker);

  size_t num_shards() const { return num_shards_; }
  size_t OwnerOf(corpus::UserId u) const { return ShardOf(u, num_shards_); }

  /// True when shard `s` may take this arrival (closed, or open-with-elapsed
  /// cooldown / half-open probe).
  bool AdmitAttempt(size_t s);

  /// Outcome of an admitted attempt. `deadline_miss` marks a served query
  /// that blew its deadline — a soft failure for breaker purposes.
  /// `hedged` counts a hedged re-issue against the shard's health record.
  void RecordOutcome(size_t s, bool success, bool deadline_miss, bool hedged);

  std::vector<ShardHealth> Health() const;

 private:
  void PublishState(size_t s) const;  // callers hold mu_

  const size_t num_shards_;
  mutable std::mutex mu_;
  std::vector<ShardBreaker> breakers_;
  std::vector<ShardHealth> health_;
  // rec.shard.<s>.health, resolved once: transitions happen mid-query.
  std::vector<obs::Gauge*> health_gauges_;
};

}  // namespace microrec::rec

#endif  // MICROREC_REC_ROUTER_H_
