#include "load/driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/request.h"

namespace microrec::load {
namespace {

using Clock = std::chrono::steady_clock;

/// Consecutive schedule indices a closed-loop client claims per cursor
/// fetch_add: a client stalled on one request holds back at most
/// kClaim - 1 others, and one cursor access serves kClaim requests.
constexpr uint64_t kClaim = 16;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One client thread's private accumulators: no sharing, no locks on the
/// request path; the reducer merges after join. Cache-line aligned, so
/// neighbouring threads' slots never share a line.
struct alignas(64) ThreadStats {
  std::array<uint64_t, kNumOpClasses> per_op{};
  std::array<uint64_t, 3> per_rung{};
  uint64_t errors = 0;
  uint64_t warm_failures = 0;

  /// Per-shard slice, grown on demand when the backend attributes a
  /// recommend op to a shard. A deque, because a histogram cannot move.
  struct ShardLocal {
    uint64_t served = 0;
    std::array<uint64_t, 3> per_rung{};
    obs::Histogram latency;
  };
  std::deque<ShardLocal> shards;

  ShardLocal& ShardSlot(int shard) {
    while (shards.size() <= static_cast<size_t>(shard)) shards.emplace_back();
    return shards[static_cast<size_t>(shard)];
  }
};

void AppendDouble(double value, std::string* out) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  out->append(buffer);
}

void AppendHexU64(uint64_t value, std::string* out) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "\"0x%016" PRIx64 "\"", value);
  out->append(buffer);
}

void AppendLatencyJson(const obs::HistogramSnapshot& s, std::string* out) {
  out->append("{\"count\":").append(std::to_string(s.count));
  out->append(",\"p50\":");
  AppendDouble(s.p50, out);
  out->append(",\"p90\":");
  AppendDouble(s.p90, out);
  out->append(",\"p99\":");
  AppendDouble(s.p99, out);
  out->append(",\"p999\":");
  AppendDouble(s.p999, out);
  out->append(",\"max\":");
  AppendDouble(s.max, out);
  out->append(",\"mean\":");
  AppendDouble(s.Mean(), out);
  out->push_back('}');
}

}  // namespace

std::string LoadReport::ToJson() const {
  std::string out = "{\"schema\":\"microrec.load/1\"";
  out.append(",\"threads\":").append(std::to_string(threads));
  out.append(",\"target_qps\":");
  AppendDouble(target_qps, &out);
  out.append(",\"total_requests\":").append(std::to_string(total_requests));
  out.append(",\"wall_seconds\":");
  AppendDouble(wall_seconds, &out);
  out.append(",\"qps\":");
  AppendDouble(qps, &out);
  out.append(",\"errors\":").append(std::to_string(errors));
  out.append(",\"warm_failures\":").append(std::to_string(warm_failures));
  out.append(",\"schedule_hash\":");
  AppendHexU64(schedule_hash, &out);
  out.append(",\"rankings_hash\":");
  AppendHexU64(rankings_hash, &out);
  out.append(",\"per_op\":{");
  for (int op = 0; op < kNumOpClasses; ++op) {
    if (op > 0) out.push_back(',');
    out.push_back('"');
    out.append(OpClassName(static_cast<OpClass>(op)));
    out.append("\":{\"issued\":").append(std::to_string(per_op[op]));
    out.append(",\"latency_seconds\":");
    AppendLatencyJson(op_latency[op], &out);
    out.push_back('}');
  }
  out.append("},\"per_rung\":{\"primary\":")
      .append(std::to_string(per_rung[0]));
  out.append(",\"bag_fallback\":").append(std::to_string(per_rung[1]));
  out.append(",\"popularity\":").append(std::to_string(per_rung[2]));
  out.append("},\"latency_seconds\":");
  AppendLatencyJson(latency, &out);
  if (!per_shard.empty()) {
    out.append(",\"per_shard\":[");
    for (size_t s = 0; s < per_shard.size(); ++s) {
      const ShardBreakdown& shard = per_shard[s];
      if (s > 0) out.push_back(',');
      out.append("{\"shard\":").append(std::to_string(shard.shard));
      out.append(",\"served\":").append(std::to_string(shard.served));
      out.append(",\"qps\":");
      AppendDouble(shard.qps, &out);
      out.append(",\"per_rung\":{\"primary\":")
          .append(std::to_string(shard.per_rung[0]));
      out.append(",\"bag_fallback\":")
          .append(std::to_string(shard.per_rung[1]));
      out.append(",\"popularity\":")
          .append(std::to_string(shard.per_rung[2]));
      out.append("},\"latency_seconds\":");
      AppendLatencyJson(shard.latency, &out);
      out.append(",\"breaker_state\":")
          .append(std::to_string(shard.breaker_state));
      out.append(",\"breaker_transitions\":")
          .append(std::to_string(shard.breaker_transitions));
      out.append(",\"failed_attempts\":")
          .append(std::to_string(shard.failed_attempts));
      out.append(",\"deadline_misses\":")
          .append(std::to_string(shard.deadline_misses));
      out.append(",\"hedges\":").append(std::to_string(shard.hedges));
      out.push_back('}');
    }
    out.push_back(']');
  }
  out.push_back('}');
  return out;
}

Result<LoadReport> RunLoad(const Workload& workload,
                           const DriverOptions& options,
                           const BackendFactory& factory) {
  if (factory == nullptr) {
    return Status::InvalidArgument("load: null backend factory");
  }
  const uint64_t threads = options.threads == 0 ? 1 : options.threads;
  const std::vector<Request>& requests = workload.requests();

  std::vector<std::unique_ptr<Backend>> backends;
  backends.reserve(threads);
  for (uint64_t t = 0; t < threads; ++t) {
    std::unique_ptr<Backend> backend = factory();
    if (backend == nullptr) {
      return Status::InvalidArgument("load: backend factory returned null");
    }
    backends.push_back(std::move(backend));
  }

  // Slot i is written only by the client that serves request i: a closed
  // loop's claimed run of slots belongs to one thread, and reads happen
  // after join, so no access is synchronised.
  std::vector<uint64_t> ranking_hashes(requests.size(), 0);
  std::vector<ThreadStats> stats(threads);
  // Shared by every client thread: each records into its own stripe.
  std::array<obs::Histogram, kNumOpClasses> op_latency;
  // The closed loop's next unclaimed schedule index. It hands out indices
  // only; the join publishes what the clients wrote.
  std::atomic<uint64_t> cursor{0};
  const bool open_loop = options.target_qps > 0.0;
  const auto stopped = [&options] {
    return options.stop != nullptr &&
           options.stop->load(std::memory_order_relaxed);
  };

  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (uint64_t t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      Backend* backend = backends[t].get();
      ThreadStats& local = stats[t];
      // Issues request i and times it from op_start to one end-of-op read.
      const auto serve = [&](uint64_t i, Clock::time_point op_start) {
        const Request& request = requests[i];
        obs::RequestTrace trace(request.rid, OpClassName(request.op));
        const int op = static_cast<int>(request.op);
        ++local.per_op[op];
        ThreadStats::ShardLocal* shard = nullptr;
        switch (request.op) {
          case OpClass::kRecommend: {
            Result<RecommendOutcome> outcome =
                backend->Recommend(request.rid, request.user_rank, &trace);
            if (outcome.ok()) {
              if (outcome->rung >= 0 && outcome->rung < 3) {
                ++local.per_rung[outcome->rung];
              }
              ranking_hashes[i] = outcome->ranking_hash;
              if (outcome->shard >= 0) {
                shard = &local.ShardSlot(outcome->shard);
                ++shard->served;
                if (outcome->rung >= 0 && outcome->rung < 3) {
                  ++shard->per_rung[outcome->rung];
                }
              }
            } else {
              ++local.errors;
            }
            break;
          }
          case OpClass::kProfileLookup: {
            Result<uint64_t> size = backend->ProfileLookup(request.user_rank);
            if (!size.ok()) ++local.errors;
            break;
          }
          case OpClass::kSnapshotWarm: {
            if (!backend->Warm().ok()) ++local.warm_failures;
            break;
          }
          case OpClass::kIngest: {
            Result<uint64_t> applied = backend->Ingest(request.rid);
            if (!applied.ok()) ++local.errors;
            break;
          }
        }
        const double seconds = SecondsBetween(op_start, Clock::now());
        op_latency[op].Record(seconds);
        if (shard != nullptr) shard->latency.Record(seconds);
      };
      if (open_loop) {
        // Arrivals are scheduled on the global request index, so the
        // offered rate is target_qps at any thread count, and request i
        // stays on client i % threads: a recommend dealt behind an ingest
        // on the same client waits for it. The op is timed from its due
        // time, so a request queued behind a stall carries the wait.
        for (uint64_t i = t; i < requests.size() && !stopped(); i += threads) {
          const Clock::time_point due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(i) / options.target_qps));
          std::this_thread::sleep_until(due);
          serve(i, due);
        }
        return;
      }
      // Closed loop: claim kClaim schedule indices at a time until none
      // are left, so no client idles while requests remain.
      const uint64_t n = requests.size();
      for (;;) {
        const uint64_t begin =
            cursor.fetch_add(kClaim, std::memory_order_relaxed);
        if (begin >= n) return;
        const uint64_t end = std::min(begin + kClaim, n);
        for (uint64_t i = begin; i < end; ++i) {
          if (stopped()) return;
          serve(i, Clock::now());
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  const double wall = SecondsBetween(start, Clock::now());

  LoadReport report;
  report.threads = threads;
  report.target_qps = options.target_qps;
  report.wall_seconds = wall;
  report.schedule_hash = workload.ScheduleHash();

  for (const ThreadStats& local : stats) {
    report.errors += local.errors;
    report.warm_failures += local.warm_failures;
    for (int op = 0; op < kNumOpClasses; ++op) {
      report.per_op[op] += local.per_op[op];
    }
    for (int rung = 0; rung < 3; ++rung) {
      report.per_rung[rung] += local.per_rung[rung];
    }
  }
  // Issued requests, not schedule length: a cooperative stop leaves the
  // tail of the schedule unissued, and the report must describe the run
  // that actually happened. Equal to requests.size() for full runs.
  for (int op = 0; op < kNumOpClasses; ++op) {
    report.total_requests += report.per_op[op];
  }
  report.qps =
      wall > 0.0 ? static_cast<double>(report.total_requests) / wall : 0.0;

  // Per-shard reduction: the driver's own attribution of served work,
  // joined with the backend's router health (shared across every thread's
  // backend, so backend 0 speaks for the run).
  size_t num_shards = 0;
  for (const ThreadStats& local : stats) {
    num_shards = std::max(num_shards, local.shards.size());
  }
  std::vector<ShardHealthStats> health = backends[0]->ShardHealth();
  num_shards = std::max(num_shards, health.size());
  if (num_shards > 0) {
    std::vector<obs::Histogram> shard_latency(num_shards);
    report.per_shard.resize(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      report.per_shard[s].shard = static_cast<int>(s);
    }
    for (const ThreadStats& local : stats) {
      for (size_t s = 0; s < local.shards.size(); ++s) {
        LoadReport::ShardBreakdown& shard = report.per_shard[s];
        shard.served += local.shards[s].served;
        for (int rung = 0; rung < 3; ++rung) {
          shard.per_rung[rung] += local.shards[s].per_rung[rung];
        }
        shard_latency[s].Merge(local.shards[s].latency);
      }
    }
    for (size_t s = 0; s < num_shards; ++s) {
      LoadReport::ShardBreakdown& shard = report.per_shard[s];
      shard.qps = wall > 0.0 ? static_cast<double>(shard.served) / wall : 0.0;
      shard.latency = shard_latency[s].Snapshot(
          "load.shard." + std::to_string(s) + ".latency");
    }
    for (const ShardHealthStats& h : health) {
      if (h.shard < 0 || static_cast<size_t>(h.shard) >= num_shards) continue;
      LoadReport::ShardBreakdown& shard = report.per_shard[h.shard];
      shard.breaker_state = h.breaker_state;
      shard.breaker_transitions = h.breaker_transitions;
      shard.failed_attempts = h.failed_attempts;
      shard.deadline_misses = h.deadline_misses;
      shard.hedges = h.hedges;
    }
  }

  uint64_t rankings = kFnvOffsetBasis;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].op != OpClass::kRecommend) continue;
    rankings = FnvMixU64(rankings, requests[i].rid);
    rankings = FnvMixU64(rankings, ranking_hashes[i]);
  }
  report.rankings_hash = rankings;

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  // load.latency.all is the union of the per-op histograms.
  obs::Histogram latency;
  for (int op = 0; op < kNumOpClasses; ++op) {
    const std::string name =
        "load.latency." + std::string(OpClassName(static_cast<OpClass>(op)));
    registry.GetHistogram(name)->Merge(op_latency[op]);
    report.op_latency[op] = op_latency[op].Snapshot(name);
    latency.Merge(op_latency[op]);
  }
  registry.GetHistogram("load.latency.all")->Merge(latency);
  report.latency = latency.Snapshot("load.latency.all");

  return report;
}

}  // namespace microrec::load
