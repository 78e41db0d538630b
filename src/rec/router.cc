#include "rec/router.h"

#include <string>

#include "obs/metrics.h"
#include "util/fnv.h"

namespace microrec::rec {

size_t ShardOf(corpus::UserId u, size_t num_shards) {
  if (num_shards <= 1) return 0;
  // FNV-1a over the id's 8 little-endian bytes — the same mixing family the
  // load layer fingerprints with, so shard assignment is a documented pure
  // function, not an accident of std::hash.
  return static_cast<size_t>(FnvMixU64(kFnvBasis, u) % num_shards);
}

std::string_view BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kHalfOpen:
      return "half-open";
    case BreakerState::kOpen:
      return "open";
  }
  return "unknown";
}

ShardBreaker::ShardBreaker(BreakerOptions options) : options_(options) {
  if (options_.failure_threshold < 1) options_.failure_threshold = 1;
  if (options_.cooldown_queries < 1) options_.cooldown_queries = 1;
  if (options_.half_open_successes < 1) options_.half_open_successes = 1;
}

void ShardBreaker::TransitionTo(BreakerState next) {
  if (state_ == next) return;
  state_ = next;
  ++transitions_;
  consecutive_failures_ = 0;
  half_open_successes_ = 0;
  open_arrivals_ = 0;
}

bool ShardBreaker::AllowRequest() {
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kHalfOpen:
      // One probe in flight at a time; the router serializes attempts, so
      // admitting every half-open arrival is a sequence of probes.
      return true;
    case BreakerState::kOpen:
      // `cooldown_queries` arrivals are turned away; the next one probes.
      if (open_arrivals_ >= options_.cooldown_queries) {
        TransitionTo(BreakerState::kHalfOpen);
        return true;
      }
      ++open_arrivals_;
      return false;
  }
  return true;
}

void ShardBreaker::RecordSuccess() {
  if (state_ == BreakerState::kHalfOpen) {
    ++half_open_successes_;
    if (half_open_successes_ >= options_.half_open_successes) {
      TransitionTo(BreakerState::kClosed);
    }
    return;
  }
  consecutive_failures_ = 0;
}

void ShardBreaker::RecordFailure() {
  if (state_ == BreakerState::kHalfOpen) {
    TransitionTo(BreakerState::kOpen);
    return;
  }
  if (state_ == BreakerState::kClosed) {
    ++consecutive_failures_;
    if (consecutive_failures_ >= options_.failure_threshold) {
      TransitionTo(BreakerState::kOpen);
    }
  }
}

namespace {

obs::Counter* BreakerTransitionCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "rec.router.breaker_transitions");
  return c;
}

}  // namespace

ShardRouter::ShardRouter(size_t num_shards, BreakerOptions breaker)
    : num_shards_(num_shards == 0 ? 1 : num_shards) {
  breakers_.reserve(num_shards_);
  health_.resize(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
    breakers_.emplace_back(breaker);
    health_[s].shard = static_cast<int>(s);
    health_gauges_.push_back(obs::MetricsRegistry::Global().GetGauge(
        "rec.shard." + std::to_string(s) + ".health"));
    health_gauges_.back()->Set(0.0);
  }
}

void ShardRouter::PublishState(size_t s) const {
  health_gauges_[s]->Set(static_cast<double>(breakers_[s].state()));
}

bool ShardRouter::AdmitAttempt(size_t s) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t before = breakers_[s].transitions();
  bool admitted = breakers_[s].AllowRequest();
  if (breakers_[s].transitions() != before) {
    BreakerTransitionCounter()->Increment();
    PublishState(s);
  }
  return admitted;
}

void ShardRouter::RecordOutcome(size_t s, bool success, bool deadline_miss,
                                bool hedged) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t before = breakers_[s].transitions();
  // A served-but-late query is a soft failure: it counts toward opening the
  // breaker (a drowning shard should shed load) but also as served work.
  if (success && !deadline_miss) {
    breakers_[s].RecordSuccess();
  } else {
    breakers_[s].RecordFailure();
  }
  if (breakers_[s].transitions() != before) {
    BreakerTransitionCounter()->Increment();
    PublishState(s);
  }
  ShardHealth& health = health_[s];
  if (success) ++health.served;
  if (!success) ++health.failures;
  if (deadline_miss) ++health.deadline_misses;
  if (hedged) ++health.hedges;
  health.state = breakers_[s].state();
  health.breaker_transitions = breakers_[s].transitions();
}

std::vector<ShardHealth> ShardRouter::Health() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ShardHealth> out = health_;
  for (size_t s = 0; s < num_shards_; ++s) {
    out[s].state = breakers_[s].state();
    out[s].breaker_transitions = breakers_[s].transitions();
  }
  return out;
}

}  // namespace microrec::rec
