// The serving load driver (DESIGN.md §12): replays a Workload against one
// Backend per client thread and reduces the run to a LoadReport — QPS,
// per-op-class latency quantiles, rung mix, and the two fingerprints the
// determinism gate compares across thread counts and repeat runs.
//
// Latency is recorded into one obs::Histogram per op class that every
// client thread shares: each thread writes its own stripe without locks,
// and the report's quantiles are within 1% of the exact order statistics
// at any request count. load.latency.all is their merge after the join.
//
// Which client serves a request depends on the pacing mode and the thread
// count, but the set of requests and each request's outcome do not: every
// recommend op carries its rid into the per-request tie stream, so its
// served ranking is a pure function of (seed, rid). `rankings_hash` folds
// the per-request ranking fingerprints in schedule (rid) order, making
// "zero non-deterministic rankings under concurrency" a single uint64
// comparison.
//
// Two pacing modes:
//   closed loop (target_qps == 0)  each client issues its next request the
//                                  moment the previous one returns — the
//                                  throughput-measuring mode. Clients claim
//                                  runs of 16 consecutive requests from one
//                                  shared cursor, so no client idles while
//                                  requests remain, and a client stalled
//                                  on one request holds back at most the
//                                  15 others of its run;
//   open loop   (target_qps > 0)   request rid's arrival time is
//                                  (rid - 1) / target_qps after the run
//                                  start, independent of completions — the
//                                  latency-under-offered-load mode. An
//                                  op's latency runs from that arrival
//                                  time, not from when a client got to it,
//                                  so a stall shows in every request queued
//                                  behind it (coordinated omission stays
//                                  visible). Request rid runs on client
//                                  (rid - 1) % threads, so a request dealt
//                                  behind a slow op on its client (an
//                                  ingest, in a mixed workload) waits for
//                                  it: that queueing is what such a
//                                  workload measures.
#ifndef MICROREC_LOAD_DRIVER_H_
#define MICROREC_LOAD_DRIVER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "load/backend.h"
#include "load/workload.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace microrec::load {

struct DriverOptions {
  /// Client threads; each owns one Backend from the factory. Clamped to
  /// >= 1.
  uint64_t threads = 1;
  /// 0 = closed loop; > 0 = open loop at this offered rate.
  double target_qps = 0.0;
  /// Optional cooperative stop flag (not owned; may be null). When it
  /// becomes true, every client finishes its in-flight request and stops
  /// issuing new ones; RunLoad still reduces and returns a LoadReport over
  /// the requests that DID run. This is the CLI's SIGINT/SIGTERM path: a
  /// stopped run flushes its report instead of dropping it.
  const std::atomic<bool>* stop = nullptr;
};

/// Everything one load run produced. Latency figures are in seconds.
struct LoadReport {
  uint64_t threads = 0;
  double target_qps = 0.0;
  uint64_t total_requests = 0;
  double wall_seconds = 0.0;
  /// Completed requests / wall_seconds.
  double qps = 0.0;
  /// profile-lookup failures (recommend never errors; warm failures are
  /// counted separately because serving degraded is the ladder working).
  uint64_t errors = 0;
  uint64_t warm_failures = 0;

  uint64_t schedule_hash = 0;
  /// Per-request ranking fingerprints folded in rid order; identical for
  /// identical (seed, workload) at any thread count.
  uint64_t rankings_hash = 0;

  /// Requests issued per op class, indexed by OpClass.
  std::array<uint64_t, kNumOpClasses> per_op{};
  /// Recommend ops served per rung (rec::ServingRung numeric values).
  std::array<uint64_t, 3> per_rung{};

  /// Per op class; named load.latency.<op>.
  std::array<obs::HistogramSnapshot, kNumOpClasses> op_latency{};
  /// All op classes together; named load.latency.all.
  obs::HistogramSnapshot latency;

  /// Per-shard slice of the run, populated only when the backend reports
  /// shard attribution (RecommendOutcome::shard >= 0). Serve counts, rung
  /// mix and latency come from the driver's own accounting of which shard
  /// answered each recommend op; the breaker fields come from the
  /// backend's shared router at end of run. The chaos gate reads this to
  /// assert "only the faulted shard degraded".
  struct ShardBreakdown {
    int shard = 0;
    uint64_t served = 0;
    double qps = 0.0;
    std::array<uint64_t, 3> per_rung{};
    obs::HistogramSnapshot latency;
    int breaker_state = 0;
    uint64_t breaker_transitions = 0;
    uint64_t failed_attempts = 0;
    uint64_t deadline_misses = 0;
    uint64_t hedges = 0;
  };
  std::vector<ShardBreakdown> per_shard;

  /// One JSON object (schema microrec.load/1); hashes are hex strings
  /// because uint64 values do not survive a double round-trip.
  std::string ToJson() const;
};

/// Replays `workload` and blocks until every request completed. The
/// factory is invoked once per thread, sequentially, before clients
/// start. Also merges the run's latency histograms into the global
/// registry (load.latency.*), so a concurrently running FlightRecorder
/// sees them.
Result<LoadReport> RunLoad(const Workload& workload,
                           const DriverOptions& options,
                           const BackendFactory& factory);

}  // namespace microrec::load

#endif  // MICROREC_LOAD_DRIVER_H_
