// Deterministic workload schedules for the serving load driver
// (DESIGN.md §12). A Workload is the complete, materialized request
// sequence of one load run: every request carries a 1-based request id,
// an op class drawn from a weighted mix, and a Zipf-skewed user rank. The
// schedule is a pure function of WorkloadOptions — the same (seed,
// num_requests, num_users, skew, mix) always builds the identical
// sequence, which ScheduleHash() fingerprints so a repeated run (or a run
// on a different thread count, which only changes who *executes* each
// request, never what the requests are) can assert it replayed the same
// traffic.
#ifndef MICROREC_LOAD_WORKLOAD_H_
#define MICROREC_LOAD_WORKLOAD_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/fnv.h"
#include "util/status.h"

namespace microrec::load {

/// FNV-1a over a little-endian u64 (util/fnv.h), the mixing step of the
/// schedule and ranking fingerprints; exposed for the driver and tests.
using ::microrec::FnvMixU64;
/// The basis both fingerprints start from: FNV-1a's offset basis with its
/// last digit dropped. Recorded hashes carry it, so it stays.
inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ULL;

/// The op classes the driver knows how to issue.
enum class OpClass : int {
  /// Rank a candidate set for the drawn user (the serving hot path).
  kRecommend = 0,
  /// Build-if-needed and size the drawn user's profile.
  kProfileLookup = 1,
  /// (Re-)load the primary snapshot eagerly.
  kSnapshotWarm = 2,
  /// Apply the next pending streaming-ingest batch (DESIGN.md §14) — the
  /// op class that lets one schedule drive mixed ingest+recommend traffic.
  kIngest = 3,
};

inline constexpr int kNumOpClasses = 4;

std::string_view OpClassName(OpClass op);

/// Relative op-class weights; need not sum to 1. A weight of 0 removes the
/// class from the schedule entirely. The ingest default of 0 keeps every
/// pre-existing schedule byte-identical: Categorical() over a weight
/// vector with a trailing zero draws exactly as it did without the entry.
struct OpMix {
  double recommend = 0.90;
  double profile_lookup = 0.08;
  double snapshot_warm = 0.02;
  double ingest = 0.0;
};

struct WorkloadOptions {
  uint64_t seed = 1;
  uint64_t num_requests = 1000;
  /// Users are drawn as Zipf ranks in [0, num_users); the backend maps
  /// ranks onto its cohort. Must be >= 1.
  uint64_t num_users = 1;
  /// Zipf skew of user arrivals; 0 = uniform, ~1 = classic web traffic.
  double zipf_skew = 1.0;
  OpMix mix;
};

/// One scheduled request. `rid` is 1-based: id 0 is reserved to mean
/// "anonymous query" throughout the telemetry plumbing (rec::QueryOptions).
struct Request {
  uint64_t rid = 0;
  OpClass op = OpClass::kRecommend;
  uint64_t user_rank = 0;
};

class Workload {
 public:
  /// Builds the full schedule; rejects empty mixes, zero users, non-finite
  /// or negative skew.
  static Result<Workload> Build(const WorkloadOptions& options);

  const WorkloadOptions& options() const { return options_; }
  const std::vector<Request>& requests() const { return requests_; }

  /// Requests of class `op` in the schedule.
  uint64_t CountOf(OpClass op) const;

  /// FNV-1a fingerprint over (rid, op, user_rank) of every request, in
  /// schedule order. Folded once by Build(), as the schedule never changes
  /// after it; an empty schedule hashes to kFnvOffsetBasis.
  uint64_t ScheduleHash() const { return schedule_hash_; }

 private:
  WorkloadOptions options_;
  std::vector<Request> requests_;
  uint64_t schedule_hash_ = kFnvOffsetBasis;
};

}  // namespace microrec::load

#endif  // MICROREC_LOAD_WORKLOAD_H_
