#include "load/workload.h"

#include <cmath>

#include "load/zipf.h"
#include "util/rng.h"

namespace microrec::load {

std::string_view OpClassName(OpClass op) {
  switch (op) {
    case OpClass::kRecommend:
      return "recommend";
    case OpClass::kProfileLookup:
      return "profile_lookup";
    case OpClass::kSnapshotWarm:
      return "snapshot_warm";
    case OpClass::kIngest:
      return "ingest";
  }
  return "unknown";
}

Result<Workload> Workload::Build(const WorkloadOptions& options) {
  if (options.num_users == 0) {
    return Status::InvalidArgument("workload: num_users must be >= 1");
  }
  if (!std::isfinite(options.zipf_skew) || options.zipf_skew < 0.0) {
    return Status::InvalidArgument(
        "workload: zipf_skew must be finite and >= 0");
  }
  const std::vector<double> weights = {
      options.mix.recommend, options.mix.profile_lookup,
      options.mix.snapshot_warm, options.mix.ingest};
  double total_weight = 0.0;
  for (double w : weights) {
    if (!std::isfinite(w) || w < 0.0) {
      return Status::InvalidArgument(
          "workload: op-mix weights must be finite and >= 0");
    }
    total_weight += w;
  }
  if (total_weight <= 0.0) {
    return Status::InvalidArgument(
        "workload: op mix has no positive weight");
  }

  Workload workload;
  workload.options_ = options;
  workload.requests_.reserve(options.num_requests);
  // One generator, fixed draw order (op, then user) per request: the
  // schedule is a pure function of the options.
  Rng rng(options.seed, streams::kLoadSchedule);
  ZipfSampler users(options.num_users, options.zipf_skew);
  uint64_t hash = kFnvOffsetBasis;
  for (uint64_t i = 0; i < options.num_requests; ++i) {
    Request request;
    request.rid = i + 1;  // rid 0 = "anonymous" in rec::QueryOptions
    request.op = static_cast<OpClass>(rng.Categorical(weights));
    request.user_rank = users.Sample(&rng);
    workload.requests_.push_back(request);
    hash = FnvMixU64(hash, request.rid);
    hash = FnvMixU64(hash, static_cast<uint64_t>(request.op));
    hash = FnvMixU64(hash, request.user_rank);
  }
  workload.schedule_hash_ = hash;
  return workload;
}

uint64_t Workload::CountOf(OpClass op) const {
  uint64_t count = 0;
  for (const Request& r : requests_) count += r.op == op ? 1 : 0;
  return count;
}

}  // namespace microrec::load
