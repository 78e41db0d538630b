#include "eval/experiment.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "eval/sweep.h"
#include "resilience/fault.h"
#include "synth/generator.h"
#include "temp_dir.h"

namespace microrec::eval {
namespace {

using corpus::Source;
using corpus::UserType;

// Shared miniature synthetic world (smaller than the default spec so the
// suite stays fast).
class RunnerFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::DatasetSpec spec = synth::DatasetSpec::Small();
    spec.seed = 31;
    spec.background_users = 60;
    spec.seekers.count = 4;
    spec.balanced.count = 4;
    spec.producers.count = 3;
    spec.extras.count = 2;
    spec.cohort.seekers = 4;
    spec.cohort.balanced = 4;
    spec.cohort.producers = 3;
    spec.cohort.extra_all = 2;
    spec.cohort.min_retweets = 8;
    dataset_ = new synth::SyntheticDataset(std::move(*GenerateDataset(spec)));
    cohort_ = new corpus::UserCohort(
        corpus::SelectCohort(dataset_->corpus, spec.cohort));
    std::vector<corpus::TweetId> stop_basis;
    for (corpus::UserId u : cohort_->all) {
      for (corpus::TweetId id : dataset_->corpus.PostsOf(u)) {
        stop_basis.push_back(id);
      }
    }
    pre_ = new rec::PreprocessedCorpus(dataset_->corpus, stop_basis, 100);
    RunOptions options;
    options.topic_iteration_scale = 0.01;
    runner_ = new ExperimentRunner(pre_, cohort_, options);
    ASSERT_TRUE(runner_->Init().ok());
  }
  static void TearDownTestSuite() {
    delete runner_;
    delete pre_;
    delete cohort_;
    delete dataset_;
  }

  static synth::SyntheticDataset* dataset_;
  static corpus::UserCohort* cohort_;
  static rec::PreprocessedCorpus* pre_;
  static ExperimentRunner* runner_;
};

synth::SyntheticDataset* RunnerFixture::dataset_ = nullptr;
corpus::UserCohort* RunnerFixture::cohort_ = nullptr;
rec::PreprocessedCorpus* RunnerFixture::pre_ = nullptr;
ExperimentRunner* RunnerFixture::runner_ = nullptr;

rec::ModelConfig SimpleTn() {
  rec::ModelConfig config;
  config.kind = rec::ModelKind::kTN;
  config.bag.kind = bag::NgramKind::kToken;
  config.bag.n = 1;
  config.bag.weighting = bag::Weighting::kTF;
  config.bag.aggregation = bag::Aggregation::kCentroid;
  config.bag.similarity = bag::BagSimilarity::kCosine;
  return config;
}

TEST_F(RunnerFixture, InitKeepsUsersWithValidSplits) {
  EXPECT_FALSE(runner_->GroupUsers(UserType::kAllUsers).empty());
  EXPECT_LE(runner_->GroupUsers(UserType::kInformationSeeker).size(),
            cohort_->seekers.size());
}

TEST_F(RunnerFixture, RunProducesApPerUser) {
  Result<RunResult> run = runner_->Run(SimpleTn(), Source::kR);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->users.size(), run->aps.size());
  EXPECT_EQ(run->users.size(),
            runner_->GroupUsers(UserType::kAllUsers).size());
  for (double ap : run->aps) {
    EXPECT_GE(ap, 0.0);
    EXPECT_LE(ap, 1.0);
  }
  EXPECT_GE(run->ttime_seconds, 0.0);
  EXPECT_GE(run->etime_seconds, 0.0);
}

TEST_F(RunnerFixture, ContentModelBeatsBaselines) {
  Result<RunResult> run = runner_->Run(SimpleTn(), Source::kR);
  ASSERT_TRUE(run.ok());
  double model_map = run->Map();
  double ran = runner_->RandomMap(UserType::kAllUsers, 300);
  EXPECT_GT(model_map, ran);
}

TEST_F(RunnerFixture, InvalidConfigForSourceRejected) {
  rec::ModelConfig rocchio = SimpleTn();
  rocchio.bag.aggregation = bag::Aggregation::kRocchio;
  // R has no negative examples.
  EXPECT_EQ(runner_->Run(rocchio, Source::kR).status().code(),
            StatusCode::kInvalidArgument);
  // E has negatives: accepted.
  EXPECT_TRUE(runner_->Run(rocchio, Source::kE).ok());
}

TEST_F(RunnerFixture, MapOfGroupSlicesUsers) {
  Result<RunResult> run = runner_->Run(SimpleTn(), Source::kR);
  ASSERT_TRUE(run.ok());
  double all = run->Map();
  double is = run->MapOfGroup(runner_->GroupUsers(UserType::kInformationSeeker));
  double bu = run->MapOfGroup(runner_->GroupUsers(UserType::kBalancedUser));
  double ip = run->MapOfGroup(runner_->GroupUsers(UserType::kInformationProducer));
  // All-users MAP lies within the group extremes.
  EXPECT_GE(all, std::min({is, bu, ip}) - 1e-9);
  EXPECT_LE(all, std::max({is, bu, ip}) + 1e-9);
  EXPECT_DOUBLE_EQ(run->MapOfGroup({}), 0.0);
}

TEST_F(RunnerFixture, TrainSetsCachedAndConsistent) {
  const corpus::LabeledTrainSet& first =
      runner_->TrainSet(Source::kE, runner_->GroupUsers(UserType::kAllUsers)[0]);
  const corpus::LabeledTrainSet& second =
      runner_->TrainSet(Source::kE, runner_->GroupUsers(UserType::kAllUsers)[0]);
  EXPECT_EQ(&first, &second);
}

TEST_F(RunnerFixture, DeterministicAcrossRuns) {
  Result<RunResult> a = runner_->Run(SimpleTn(), Source::kT);
  Result<RunResult> b = runner_->Run(SimpleTn(), Source::kT);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->aps, b->aps);
}

TEST_F(RunnerFixture, ScoreThreadsDoNotChangeResults) {
  // The BatchRanker contract (DESIGN.md §9): sharding the kernel phase
  // over any thread count yields bit-identical rankings, hence
  // bit-identical per-user APs. Exact double equality is deliberate.
  Result<RunResult> single = runner_->Run(SimpleTn(), Source::kR);
  ASSERT_TRUE(single.ok());

  RunOptions options;
  options.topic_iteration_scale = 0.01;
  options.score_threads = 4;
  ExperimentRunner threaded(pre_, cohort_, options);
  ASSERT_TRUE(threaded.Init().ok());
  Result<RunResult> multi = threaded.Run(SimpleTn(), Source::kR);
  ASSERT_TRUE(multi.ok());

  EXPECT_EQ(single->users, multi->users);
  EXPECT_EQ(single->aps, multi->aps);
}

TEST_F(RunnerFixture, BaselinesAreReasonable) {
  double ran = runner_->RandomMap(UserType::kAllUsers, 300);
  double chr = runner_->ChronologicalMap(UserType::kAllUsers);
  // 1:4 sampling -> random MAP near 0.25 (exact value depends on per-user
  // negative availability).
  EXPECT_GT(ran, 0.15);
  EXPECT_LT(ran, 0.5);
  EXPECT_GT(chr, 0.0);
  EXPECT_LT(chr, 0.6);
}

TEST_F(RunnerFixture, SweepAggregatesOutcomes) {
  std::vector<rec::ModelConfig> configs;
  for (int n = 1; n <= 3; ++n) {
    rec::ModelConfig config = SimpleTn();
    config.bag.n = n;
    configs.push_back(config);
  }
  Result<SweepResult> sweep = SweepConfigs(*runner_, configs, Source::kR);
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(sweep->outcomes.size(), 3u);
  auto stats =
      sweep->StatsOfGroup(runner_->GroupUsers(UserType::kAllUsers));
  EXPECT_EQ(stats.configs, 3u);
  EXPECT_LE(stats.min, stats.mean);
  EXPECT_LE(stats.mean, stats.max);
  EXPECT_NEAR(stats.deviation, stats.max - stats.min, 1e-12);
  EXPECT_NE(sweep->Best(runner_->GroupUsers(UserType::kAllUsers)), nullptr);
}

TEST_F(RunnerFixture, SweepSkipsInvalidConfigs) {
  rec::ModelConfig rocchio = SimpleTn();
  rocchio.bag.aggregation = bag::Aggregation::kRocchio;
  Result<SweepResult> sweep =
      SweepConfigs(*runner_, {SimpleTn(), rocchio}, Source::kR);
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(sweep->outcomes.size(), 1u);
}

TEST(RunResultTest, EmptyResultMapsToZero) {
  RunResult result;
  EXPECT_DOUBLE_EQ(result.Map(), 0.0);
  EXPECT_DOUBLE_EQ(result.MapOfGroup({}), 0.0);
  EXPECT_DOUBLE_EQ(result.MapOfGroup({1, 2, 3}), 0.0);
}

std::vector<rec::ModelConfig> ThreeTnConfigs() {
  std::vector<rec::ModelConfig> configs;
  for (int n = 1; n <= 3; ++n) {
    rec::ModelConfig config = SimpleTn();
    config.bag.n = n;
    configs.push_back(config);
  }
  return configs;
}

TEST_F(RunnerFixture, SweepIsolatesFaultedConfigs) {
  resilience::FaultSpec spec;
  spec.every_nth = 2;  // the 2nd configuration fails
  resilience::ArmFault(resilience::kSiteSweepConfig, spec);
  Result<SweepResult> sweep =
      SweepConfigs(*runner_, ThreeTnConfigs(), Source::kR, SweepOptions());
  resilience::ClearFaults();

  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  ASSERT_EQ(sweep->outcomes.size(), 3u);
  EXPECT_EQ(sweep->failed(), 1u);
  EXPECT_EQ(sweep->succeeded(), 2u);
  EXPECT_TRUE(sweep->outcomes[0].ok());
  EXPECT_FALSE(sweep->outcomes[1].ok());
  EXPECT_EQ(sweep->outcomes[1].status.code(), StatusCode::kInternal);
  EXPECT_TRUE(sweep->outcomes[2].ok());

  // Aggregates cover survivors only; Best never points at the casualty.
  auto stats = sweep->StatsOfGroup(runner_->GroupUsers(UserType::kAllUsers));
  EXPECT_EQ(stats.configs, 2u);
  const ConfigOutcome* best =
      sweep->Best(runner_->GroupUsers(UserType::kAllUsers));
  ASSERT_NE(best, nullptr);
  EXPECT_NE(best, &sweep->outcomes[1]);
}

TEST_F(RunnerFixture, SweepFailFastAbortsOnFirstFailure) {
  resilience::FaultSpec spec;
  spec.every_nth = 1;
  resilience::ArmFault(resilience::kSiteSweepConfig, spec);
  SweepOptions options;
  options.fail_fast = true;
  Result<SweepResult> sweep =
      SweepConfigs(*runner_, ThreeTnConfigs(), Source::kR, options);
  resilience::ClearFaults();

  ASSERT_FALSE(sweep.ok());
  EXPECT_EQ(sweep.status().code(), StatusCode::kInternal);
  EXPECT_NE(sweep.status().message().find("fail-fast"), std::string::npos);
}

TEST_F(RunnerFixture, SweepRetriesTransientRunFailures) {
  resilience::FaultSpec spec;
  spec.every_nth = 1;  // every scoring pass dies on its first user
  resilience::ArmFault(resilience::kSiteEngineScore, spec);
  SweepOptions options;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_seconds = 0.0;
  Result<SweepResult> sweep =
      SweepConfigs(*runner_, {SimpleTn()}, Source::kR, options);
  uint64_t hits = resilience::FaultHitCount(resilience::kSiteEngineScore);
  resilience::ClearFaults();

  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(sweep->failed(), 1u);
  EXPECT_EQ(hits, 2u);  // the retry re-entered the engine before giving up
}

TEST_F(RunnerFixture, SweepHonorsCancellation) {
  resilience::CancelToken token;
  token.Cancel();
  SweepOptions options;
  options.cancel = &token;
  Result<SweepResult> sweep =
      SweepConfigs(*runner_, ThreeTnConfigs(), Source::kR, options);
  EXPECT_EQ(sweep.status().code(), StatusCode::kAborted);
}

TEST_F(RunnerFixture, SweepConfigDeadlineIsIsolated) {
  SweepOptions options;
  options.config_timeout_seconds = 1e-9;  // expires before the first user
  Result<SweepResult> sweep =
      SweepConfigs(*runner_, {SimpleTn()}, Source::kR, options);
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  ASSERT_EQ(sweep->outcomes.size(), 1u);
  EXPECT_EQ(sweep->outcomes[0].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(sweep->succeeded(), 0u);
  EXPECT_EQ(sweep->StatsOfGroup(runner_->GroupUsers(UserType::kAllUsers))
                .configs,
            0u);
}

TEST_F(RunnerFixture, SweepCheckpointResumeSkipsCompletedConfigs) {
  std::filesystem::path dir =
      testutil::UniqueTempDir("microrec_sweep_ckpt_test");
  std::filesystem::create_directories(dir);
  SweepOptions options;
  options.checkpoint_path = (dir / "ckpt.jsonl").string();

  Result<SweepResult> first =
      SweepConfigs(*runner_, ThreeTnConfigs(), Source::kR, options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->resumed, 0u);

  Result<SweepResult> second =
      SweepConfigs(*runner_, ThreeTnConfigs(), Source::kR, options);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->resumed, 3u);
  ASSERT_EQ(second->outcomes.size(), first->outcomes.size());
  for (size_t i = 0; i < first->outcomes.size(); ++i) {
    EXPECT_EQ(second->outcomes[i].result.users, first->outcomes[i].result.users);
    EXPECT_EQ(second->outcomes[i].result.aps, first->outcomes[i].result.aps);
  }
  std::filesystem::remove_all(dir);
}

TEST_F(RunnerFixture, SweepCheckpointRefusesForeignSource) {
  std::filesystem::path dir =
      testutil::UniqueTempDir("microrec_sweep_ckpt_key_test");
  std::filesystem::create_directories(dir);
  SweepOptions options;
  options.checkpoint_path = (dir / "ckpt.jsonl").string();

  ASSERT_TRUE(
      SweepConfigs(*runner_, {SimpleTn()}, Source::kR, options).ok());
  Result<SweepResult> other =
      SweepConfigs(*runner_, {SimpleTn()}, Source::kT, options);
  EXPECT_EQ(other.status().code(), StatusCode::kFailedPrecondition);
  std::filesystem::remove_all(dir);
}

TEST(ThinConfigsTest, KeepsEndpointsAndBounds) {
  std::vector<rec::ModelConfig> configs(10);
  for (int i = 0; i < 10; ++i) configs[i].bag.n = i;
  auto thinned = ThinConfigs(configs, 4);
  ASSERT_EQ(thinned.size(), 4u);
  EXPECT_EQ(thinned.front().bag.n, 0);
  EXPECT_EQ(thinned.back().bag.n, 9);
  // No thinning needed when already small.
  EXPECT_EQ(ThinConfigs(configs, 20).size(), 10u);
}

}  // namespace
}  // namespace microrec::eval
