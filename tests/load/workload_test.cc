#include "load/workload.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace microrec::load {
namespace {

WorkloadOptions SmallOptions() {
  WorkloadOptions options;
  options.seed = 42;
  options.num_requests = 500;
  options.num_users = 16;
  options.zipf_skew = 1.0;
  return options;
}

TEST(WorkloadTest, RidsAreOneBasedAndSequential) {
  Result<Workload> workload = Workload::Build(SmallOptions());
  ASSERT_TRUE(workload.ok());
  const std::vector<Request>& requests = workload->requests();
  ASSERT_EQ(requests.size(), 500u);
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(requests[i].rid, i + 1);  // rid 0 = anonymous, never scheduled
    EXPECT_LT(requests[i].user_rank, 16u);
  }
}

TEST(WorkloadTest, SameOptionsBuildIdenticalSchedules) {
  Result<Workload> a = Workload::Build(SmallOptions());
  Result<Workload> b = Workload::Build(SmallOptions());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->ScheduleHash(), b->ScheduleHash());
  ASSERT_EQ(a->requests().size(), b->requests().size());
  for (size_t i = 0; i < a->requests().size(); ++i) {
    EXPECT_EQ(a->requests()[i].op, b->requests()[i].op);
    EXPECT_EQ(a->requests()[i].user_rank, b->requests()[i].user_rank);
  }
}

TEST(WorkloadTest, SeedChangesSchedule) {
  WorkloadOptions other = SmallOptions();
  other.seed = 43;
  Result<Workload> a = Workload::Build(SmallOptions());
  Result<Workload> b = Workload::Build(other);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->ScheduleHash(), b->ScheduleHash());
}

TEST(WorkloadTest, MixWeightsControlOpFrequencies) {
  WorkloadOptions options = SmallOptions();
  options.num_requests = 10000;
  Result<Workload> workload = Workload::Build(options);
  ASSERT_TRUE(workload.ok());
  const double total = static_cast<double>(options.num_requests);
  EXPECT_NEAR(workload->CountOf(OpClass::kRecommend) / total, 0.90, 0.02);
  EXPECT_NEAR(workload->CountOf(OpClass::kProfileLookup) / total, 0.08, 0.02);
  EXPECT_NEAR(workload->CountOf(OpClass::kSnapshotWarm) / total, 0.02, 0.01);
  EXPECT_EQ(workload->CountOf(OpClass::kRecommend) +
                workload->CountOf(OpClass::kProfileLookup) +
                workload->CountOf(OpClass::kSnapshotWarm),
            options.num_requests);
}

TEST(WorkloadTest, ZeroWeightRemovesClass) {
  WorkloadOptions options = SmallOptions();
  options.mix.profile_lookup = 0.0;
  options.mix.snapshot_warm = 0.0;
  Result<Workload> workload = Workload::Build(options);
  ASSERT_TRUE(workload.ok());
  EXPECT_EQ(workload->CountOf(OpClass::kRecommend), options.num_requests);
  EXPECT_EQ(workload->CountOf(OpClass::kProfileLookup), 0u);
  EXPECT_EQ(workload->CountOf(OpClass::kSnapshotWarm), 0u);
}

TEST(WorkloadTest, ValidationRejectsBadOptions) {
  WorkloadOptions no_users = SmallOptions();
  no_users.num_users = 0;
  EXPECT_FALSE(Workload::Build(no_users).ok());

  WorkloadOptions bad_skew = SmallOptions();
  bad_skew.zipf_skew = -1.0;
  EXPECT_FALSE(Workload::Build(bad_skew).ok());
  bad_skew.zipf_skew = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(Workload::Build(bad_skew).ok());

  WorkloadOptions empty_mix = SmallOptions();
  empty_mix.mix = OpMix{0.0, 0.0, 0.0};
  EXPECT_FALSE(Workload::Build(empty_mix).ok());

  WorkloadOptions negative_weight = SmallOptions();
  negative_weight.mix.recommend = -0.5;
  EXPECT_FALSE(Workload::Build(negative_weight).ok());
}

TEST(WorkloadTest, ScheduleHashCoversEveryField) {
  // Flipping any one request field must change the fingerprint; emulate by
  // comparing hand-folded hashes of slightly different sequences.
  uint64_t base = kFnvOffsetBasis;
  base = FnvMixU64(base, 1);
  base = FnvMixU64(base, 0);
  uint64_t other = kFnvOffsetBasis;
  other = FnvMixU64(other, 1);
  other = FnvMixU64(other, 1);
  EXPECT_NE(base, other);
  // Order sensitivity: (1,2) != (2,1).
  uint64_t ab = FnvMixU64(FnvMixU64(kFnvOffsetBasis, 1), 2);
  uint64_t ba = FnvMixU64(FnvMixU64(kFnvOffsetBasis, 2), 1);
  EXPECT_NE(ab, ba);
}

TEST(WorkloadTest, ScheduleHashFoldsEveryRequestInOrder) {
  Result<Workload> workload = Workload::Build(SmallOptions());
  ASSERT_TRUE(workload.ok());
  uint64_t expected = kFnvOffsetBasis;
  for (const Request& r : workload->requests()) {
    expected = FnvMixU64(expected, r.rid);
    expected = FnvMixU64(expected, static_cast<uint64_t>(r.op));
    expected = FnvMixU64(expected, r.user_rank);
  }
  EXPECT_EQ(workload->ScheduleHash(), expected);

  WorkloadOptions none = SmallOptions();
  none.num_requests = 0;
  Result<Workload> empty = Workload::Build(none);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->ScheduleHash(), kFnvOffsetBasis);
}

TEST(WorkloadTest, OpClassNamesAreStable) {
  EXPECT_EQ(OpClassName(OpClass::kRecommend), "recommend");
  EXPECT_EQ(OpClassName(OpClass::kProfileLookup), "profile_lookup");
  EXPECT_EQ(OpClassName(OpClass::kSnapshotWarm), "snapshot_warm");
}

}  // namespace
}  // namespace microrec::load
