#include "load/driver.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "load/backend.h"
#include "load/workload.h"

namespace microrec::load {
namespace {

/// Scripted backend: every outcome is a pure function of (rid, user_rank),
/// so any thread assignment must reduce to the same report fingerprints.
class FakeBackend : public Backend {
 public:
  struct Script {
    /// Fail every profile lookup whose user_rank satisfies rank % n == 0
    /// (0 disables).
    uint64_t fail_lookup_every = 0;
    bool fail_warm = false;
    /// > 0: attribute each recommend to shard user_rank % num_shards and
    /// report that many shards from ShardHealth().
    int num_shards = 0;
    /// > 0: the first recommend blocks this long before answering.
    double stall_first_recommend_seconds = 0.0;
  };

  explicit FakeBackend(Script script) : script_(script) {}

  Status Warm() override {
    if (script_.fail_warm) return Status::Internal("warm failed");
    return Status::OK();
  }

  Result<uint64_t> ProfileLookup(uint64_t user_rank) override {
    if (script_.fail_lookup_every != 0 &&
        user_rank % script_.fail_lookup_every == 0) {
      return Status::NotFound("scripted lookup failure");
    }
    return user_rank + 1;
  }

  Result<RecommendOutcome> Recommend(uint64_t rid, uint64_t user_rank,
                                     obs::RequestTrace* trace) override {
    if (trace != nullptr) trace->AddStage(obs::Stage::kScore, 1e-6);
    if (script_.stall_first_recommend_seconds > 0.0 && !stalled_) {
      stalled_ = true;
      std::this_thread::sleep_for(std::chrono::duration<double>(
          script_.stall_first_recommend_seconds));
    }
    RecommendOutcome outcome;
    outcome.rung = static_cast<int>(rid % 3);
    outcome.ranked = user_rank + 1;
    outcome.ranking_hash = FnvMixU64(FnvMixU64(kFnvOffsetBasis, rid),
                                     user_rank);
    if (script_.num_shards > 0) {
      outcome.shard =
          static_cast<int>(user_rank % static_cast<uint64_t>(script_.num_shards));
    }
    return outcome;
  }

  std::vector<ShardHealthStats> ShardHealth() override {
    std::vector<ShardHealthStats> out;
    for (int s = 0; s < script_.num_shards; ++s) {
      ShardHealthStats stats;
      stats.shard = s;
      stats.breaker_state = s == 1 ? 2 : 0;
      stats.breaker_transitions = s == 1 ? 3 : 0;
      stats.failed_attempts = s == 1 ? 7 : 0;
      out.push_back(stats);
    }
    return out;
  }

 private:
  Script script_;
  bool stalled_ = false;
};

BackendFactory FakeFactory(FakeBackend::Script script = {}) {
  return [script] { return std::make_unique<FakeBackend>(script); };
}

Workload BuildWorkload(uint64_t requests = 300, uint64_t seed = 42,
                       OpMix mix = OpMix{}) {
  WorkloadOptions options;
  options.seed = seed;
  options.num_requests = requests;
  options.num_users = 8;
  options.zipf_skew = 1.0;
  options.mix = mix;
  Result<Workload> workload = Workload::Build(options);
  EXPECT_TRUE(workload.ok());
  return *workload;
}

OpMix RecommendOnly() {
  OpMix mix;
  mix.profile_lookup = 0.0;
  mix.snapshot_warm = 0.0;
  return mix;
}

/// Holds the run's first Recommend, whichever backend makes it, until the
/// other backends have completed `release_after` recommends or 10 s pass.
struct StallGate {
  std::atomic<bool> first_taken{false};
  uint64_t release_after = 0;
  std::mutex mu;
  std::condition_variable cv;
  uint64_t completed = 0;   // guarded by mu
  bool timed_out = false;   // guarded by mu
  uint64_t completed_at_release = 0;  // guarded by mu
};

class GatedBackend : public FakeBackend {
 public:
  explicit GatedBackend(StallGate* gate) : FakeBackend({}), gate_(gate) {}

  Result<RecommendOutcome> Recommend(uint64_t rid, uint64_t user_rank,
                                     obs::RequestTrace* trace) override {
    if (!gate_->first_taken.exchange(true)) {
      std::unique_lock<std::mutex> lock(gate_->mu);
      gate_->timed_out = !gate_->cv.wait_for(
          lock, std::chrono::seconds(10),
          [this] { return gate_->completed >= gate_->release_after; });
      gate_->completed_at_release = gate_->completed;
      return FakeBackend::Recommend(rid, user_rank, trace);
    }
    Result<RecommendOutcome> outcome =
        FakeBackend::Recommend(rid, user_rank, trace);
    {
      std::lock_guard<std::mutex> lock(gate_->mu);
      ++gate_->completed;
    }
    gate_->cv.notify_all();
    return outcome;
  }

 private:
  StallGate* gate_;
};

/// Appends every rid it serves to `served` (owned by the test; only this
/// backend's client thread writes it).
class RecordingBackend : public FakeBackend {
 public:
  explicit RecordingBackend(std::vector<uint64_t>* served)
      : FakeBackend({}), served_(served) {}

  Result<RecommendOutcome> Recommend(uint64_t rid, uint64_t user_rank,
                                     obs::RequestTrace* trace) override {
    served_->push_back(rid);
    return FakeBackend::Recommend(rid, user_rank, trace);
  }

 private:
  std::vector<uint64_t>* served_;
};

/// Raises the run's stop flag at its own 50th recommend.
class StoppingBackend : public FakeBackend {
 public:
  explicit StoppingBackend(std::atomic<bool>* stop)
      : FakeBackend({}), stop_(stop) {}

  Result<RecommendOutcome> Recommend(uint64_t rid, uint64_t user_rank,
                                     obs::RequestTrace* trace) override {
    if (++recommends_ == 50) stop_->store(true);
    return FakeBackend::Recommend(rid, user_rank, trace);
  }

 private:
  std::atomic<bool>* stop_;
  uint64_t recommends_ = 0;
};

TEST(DriverTest, NullFactoryRejected) {
  Workload workload = BuildWorkload(10);
  EXPECT_FALSE(RunLoad(workload, DriverOptions{}, nullptr).ok());
  EXPECT_FALSE(
      RunLoad(workload, DriverOptions{}, [] {
        return std::unique_ptr<Backend>();
      }).ok());
}

TEST(DriverTest, EveryRequestAccountedOnce) {
  Workload workload = BuildWorkload();
  Result<LoadReport> report = RunLoad(workload, DriverOptions{}, FakeFactory());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->total_requests, 300u);
  EXPECT_EQ(report->per_op[0], workload.CountOf(OpClass::kRecommend));
  EXPECT_EQ(report->per_op[1], workload.CountOf(OpClass::kProfileLookup));
  EXPECT_EQ(report->per_op[2], workload.CountOf(OpClass::kSnapshotWarm));
  EXPECT_EQ(report->per_rung[0] + report->per_rung[1] + report->per_rung[2],
            report->per_op[0]);
  EXPECT_EQ(report->errors, 0u);
  EXPECT_EQ(report->warm_failures, 0u);
  EXPECT_EQ(report->latency.count, 300u);
  EXPECT_EQ(report->op_latency[0].count, report->per_op[0]);
  EXPECT_EQ(report->schedule_hash, workload.ScheduleHash());
  EXPECT_GT(report->qps, 0.0);
}

TEST(DriverTest, RankingsHashIsThreadCountInvariant) {
  Workload workload = BuildWorkload();
  DriverOptions one;
  one.threads = 1;
  DriverOptions four;
  four.threads = 4;
  Result<LoadReport> a = RunLoad(workload, one, FakeFactory());
  Result<LoadReport> b = RunLoad(workload, four, FakeFactory());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->rankings_hash, b->rankings_hash);
  EXPECT_EQ(a->schedule_hash, b->schedule_hash);
  EXPECT_EQ(a->per_rung, b->per_rung);
  EXPECT_EQ(a->per_op, b->per_op);
  EXPECT_EQ(b->threads, 4u);
}

TEST(DriverTest, DifferentSeedChangesRankingsHash) {
  Result<LoadReport> a =
      RunLoad(BuildWorkload(300, 42), DriverOptions{}, FakeFactory());
  Result<LoadReport> b =
      RunLoad(BuildWorkload(300, 43), DriverOptions{}, FakeFactory());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->rankings_hash, b->rankings_hash);
}

TEST(DriverTest, ScriptedFailuresAreCounted) {
  FakeBackend::Script script;
  script.fail_lookup_every = 1;  // every profile lookup fails
  script.fail_warm = true;
  Workload workload = BuildWorkload(1000);
  Result<LoadReport> report =
      RunLoad(workload, DriverOptions{}, FakeFactory(script));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->errors, workload.CountOf(OpClass::kProfileLookup));
  EXPECT_EQ(report->warm_failures, workload.CountOf(OpClass::kSnapshotWarm));
  // Failures still count toward issued ops and latency observations.
  EXPECT_EQ(report->latency.count, 1000u);
}

TEST(DriverTest, OpenLoopPacesOfferedRate) {
  // 50 requests offered at 1000 qps: the run cannot finish faster than the
  // last scheduled arrival (~49ms), no matter how fast the backend is.
  Workload workload = BuildWorkload(50);
  DriverOptions options;
  options.threads = 2;
  options.target_qps = 1000.0;
  Result<LoadReport> report = RunLoad(workload, options, FakeFactory());
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->wall_seconds, 0.049);
  EXPECT_LE(report->qps, options.target_qps * 1.1);
  EXPECT_DOUBLE_EQ(report->target_qps, 1000.0);
}

TEST(DriverTest, OpenLoopLatencyCountsFromTheDueTime) {
  // One client, a request due every millisecond, and an 80 ms stall on the
  // first recommend: the ~80 requests due during the stall start late, and
  // each one's latency must include its wait (request k ms after the stall
  // began waits ~80 - k ms), not just its microseconds of service.
  FakeBackend::Script script;
  script.stall_first_recommend_seconds = 0.08;
  Workload workload = BuildWorkload(100);
  DriverOptions options;
  options.threads = 1;
  options.target_qps = 1000.0;
  Result<LoadReport> report = RunLoad(workload, options, FakeFactory(script));
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->latency.max, 0.08);
  // Timed from when the client got to them, the queued requests would
  // read microseconds and the median with them.
  EXPECT_GE(report->latency.p50, 0.01);
  EXPECT_GE(report->latency.p90, 0.04);
}

TEST(DriverTest, StalledClientDoesNotHoldBackTheClosedLoop) {
  // One client blocks on the run's first recommend until the others have
  // served 301 of the 400 requests. Dealt a fixed quarter each, the other
  // three would own exactly 300, and the wait would time out; claiming
  // runs of the schedule, they serve everything but the stalled run.
  Workload workload = BuildWorkload(400, 42, RecommendOnly());
  StallGate gate;
  gate.release_after = 301;
  DriverOptions four;
  four.threads = 4;
  Result<LoadReport> stalled = RunLoad(workload, four, [&gate] {
    return std::make_unique<GatedBackend>(&gate);
  });
  ASSERT_TRUE(stalled.ok());
  {
    std::lock_guard<std::mutex> lock(gate.mu);
    EXPECT_FALSE(gate.timed_out)
        << "the other clients had completed " << gate.completed_at_release
        << " recommends after 10 s";
  }
  EXPECT_EQ(stalled->total_requests, 400u);
  EXPECT_EQ(stalled->per_op[0], 400u);
  EXPECT_EQ(stalled->per_rung[0] + stalled->per_rung[1] +
                stalled->per_rung[2],
            400u);
  EXPECT_EQ(stalled->latency.count, 400u);

  DriverOptions one;
  one.threads = 1;
  Result<LoadReport> serial = RunLoad(workload, one, FakeFactory());
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(stalled->rankings_hash, serial->rankings_hash);
}

TEST(DriverTest, OpenLoopServesRidOnClientRidMinusOneModThreads) {
  // ingest_mix relies on this: a recommend dealt behind an ingest on the
  // same client waits for it. 200 arrivals at 100k qps take ~2 ms.
  Workload workload = BuildWorkload(200, 42, RecommendOnly());
  std::array<std::vector<uint64_t>, 2> served;
  size_t built = 0;
  DriverOptions options;
  options.threads = 2;
  options.target_qps = 100000.0;
  Result<LoadReport> report =
      RunLoad(workload, options, [&served, &built] {
        return std::make_unique<RecordingBackend>(&served[built++]);
      });
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(built, 2u);
  EXPECT_EQ(served[0].size() + served[1].size(), 200u);
  for (uint64_t handle = 0; handle < 2; ++handle) {
    for (uint64_t rid : served[handle]) {
      EXPECT_EQ((rid - 1) % 2, handle) << "rid " << rid;
    }
  }
}

TEST(DriverTest, StopFlagReportsExactlyTheIssuedRequests) {
  Workload workload = BuildWorkload(2000);
  std::atomic<bool> stop{false};
  DriverOptions options;
  options.threads = 4;
  options.stop = &stop;
  Result<LoadReport> report = RunLoad(workload, options, [&stop] {
    return std::make_unique<StoppingBackend>(&stop);
  });
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(stop.load());
  EXPECT_LT(report->total_requests, workload.requests().size());
  uint64_t issued = 0;
  uint64_t timed = 0;
  for (int op = 0; op < kNumOpClasses; ++op) {
    issued += report->per_op[op];
    timed += report->op_latency[op].count;
  }
  EXPECT_EQ(report->total_requests, issued);
  EXPECT_EQ(report->total_requests, report->latency.count);
  EXPECT_EQ(report->total_requests, timed);
  EXPECT_EQ(report->per_rung[0] + report->per_rung[1] + report->per_rung[2],
            report->per_op[0]);
}

TEST(DriverTest, PerShardBreakdownAccountsEveryRecommend) {
  FakeBackend::Script script;
  script.num_shards = 3;
  Workload workload = BuildWorkload(300);
  DriverOptions options;
  options.threads = 4;
  Result<LoadReport> report =
      RunLoad(workload, options, FakeFactory(script));
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->per_shard.size(), 3u);
  uint64_t served = 0;
  for (const LoadReport::ShardBreakdown& s : report->per_shard) {
    served += s.served;
    uint64_t rungs = s.per_rung[0] + s.per_rung[1] + s.per_rung[2];
    EXPECT_EQ(rungs, s.served) << "shard " << s.shard;
    EXPECT_EQ(s.latency.count, s.served) << "shard " << s.shard;
    if (s.served > 0) {
      EXPECT_GT(s.qps, 0.0);
    }
  }
  EXPECT_EQ(served, workload.CountOf(OpClass::kRecommend));
  // Health fields come from the backend's router snapshot.
  EXPECT_EQ(report->per_shard[1].breaker_state, 2);
  EXPECT_EQ(report->per_shard[1].breaker_transitions, 3u);
  EXPECT_EQ(report->per_shard[1].failed_attempts, 7u);
  EXPECT_EQ(report->per_shard[0].breaker_transitions, 0u);

  std::string json = report->ToJson();
  EXPECT_NE(json.find("\"per_shard\""), std::string::npos);
  EXPECT_NE(json.find("\"breaker_transitions\":3"), std::string::npos);
}

TEST(DriverTest, UnshardedBackendReportsNoShardBreakdown) {
  Result<LoadReport> report =
      RunLoad(BuildWorkload(100), DriverOptions{}, FakeFactory());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->per_shard.empty());
  EXPECT_EQ(report->ToJson().find("\"per_shard\""), std::string::npos);
}

TEST(DriverTest, ToJsonCarriesTheGateFields) {
  Workload workload = BuildWorkload(100);
  Result<LoadReport> report = RunLoad(workload, DriverOptions{}, FakeFactory());
  ASSERT_TRUE(report.ok());
  std::string json = report->ToJson();
  EXPECT_NE(json.find("\"schema\":\"microrec.load/1\""), std::string::npos);
  EXPECT_NE(json.find("\"schedule_hash\":\"0x"), std::string::npos);
  EXPECT_NE(json.find("\"rankings_hash\":\"0x"), std::string::npos);
  EXPECT_NE(json.find("\"recommend\""), std::string::npos);
  EXPECT_NE(json.find("\"per_rung\""), std::string::npos);
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
}

}  // namespace
}  // namespace microrec::load
