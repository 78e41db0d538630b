// End-to-end resilience: deterministic fault injection through the public
// pipeline — faulted sweeps degrade to survivor aggregates, pool-task
// faults surface as exceptions without losing the pool, and a killed
// checkpointed sweep resumes to exactly the uninterrupted outcomes.
#include <gtest/gtest.h>

#include <filesystem>

#include "corpus/io.h"
#include "eval/experiment.h"
#include "eval/sweep.h"
#include "obs/metrics.h"
#include "resilience/fault.h"
#include "synth/generator.h"
#include "temp_dir.h"

namespace microrec {
namespace {

using corpus::Source;
using corpus::UserType;

class ResilienceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::DatasetSpec spec = synth::DatasetSpec::Small();
    spec.seed = 91;
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
    for (corpus::UserId u : cohort_->all) {
      for (corpus::TweetId id : dataset_->corpus.PostsOf(u)) {
        stop_basis_.push_back(id);
      }
    }
    pre_ = new rec::PreprocessedCorpus(dataset_->corpus, stop_basis_, 100);
    eval::RunOptions options;
    options.topic_iteration_scale = 0.01;
    runner_ = new eval::ExperimentRunner(pre_, cohort_, options);
    ASSERT_TRUE(runner_->Init().ok());
  }
  static void TearDownTestSuite() {
    delete runner_;
    delete pre_;
    delete cohort_;
    delete dataset_;
    stop_basis_.clear();
  }

  void SetUp() override { resilience::ClearFaults(); }
  void TearDown() override { resilience::ClearFaults(); }

  static rec::ModelConfig TnConfig(int n) {
    rec::ModelConfig config;
    config.kind = rec::ModelKind::kTN;
    config.bag.kind = bag::NgramKind::kToken;
    config.bag.n = n;
    config.bag.weighting = bag::Weighting::kTF;
    config.bag.aggregation = bag::Aggregation::kCentroid;
    config.bag.similarity = bag::BagSimilarity::kCosine;
    return config;
  }

  static rec::ModelConfig LdaConfig() {
    rec::ModelConfig config;
    config.kind = rec::ModelKind::kLDA;
    config.topic.num_topics = 20;
    config.topic.iterations = 1000;
    config.topic.pooling = corpus::Pooling::kUser;
    config.topic.aggregation = rec::TopicAggregation::kCentroid;
    config.topic.alpha = 1.0;
    config.topic.beta = 0.1;
    return config;
  }

  static uint64_t CounterValue(const char* name) {
    obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
    const obs::CounterSnapshot* counter = snap.FindCounter(name);
    return counter == nullptr ? 0 : counter->value;
  }

  static synth::SyntheticDataset* dataset_;
  static corpus::UserCohort* cohort_;
  static rec::PreprocessedCorpus* pre_;
  static eval::ExperimentRunner* runner_;
  static std::vector<corpus::TweetId> stop_basis_;
};

synth::SyntheticDataset* ResilienceFixture::dataset_ = nullptr;
corpus::UserCohort* ResilienceFixture::cohort_ = nullptr;
rec::PreprocessedCorpus* ResilienceFixture::pre_ = nullptr;
eval::ExperimentRunner* ResilienceFixture::runner_ = nullptr;
std::vector<corpus::TweetId> ResilienceFixture::stop_basis_;

// A fault deep inside Gibbs training surfaces as a per-configuration
// failure: the topic config dies, the bag config survives, and every
// aggregate is computed from the survivor.
TEST_F(ResilienceFixture, GibbsFaultIsIsolatedToTopicConfig) {
  resilience::FaultSpec spec;
  spec.every_nth = 1;  // first Gibbs sweep of any sampler dies
  resilience::ArmFault(resilience::kSiteTopicGibbsSweep, spec);
  uint64_t failed_before = CounterValue("eval.sweep.failed");

  Result<eval::SweepResult> sweep = eval::SweepConfigs(
      *runner_, {TnConfig(1), LdaConfig()}, Source::kR, eval::SweepOptions());
  resilience::ClearFaults();

  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  ASSERT_EQ(sweep->outcomes.size(), 2u);
  EXPECT_TRUE(sweep->outcomes[0].ok());   // TN never enters a Gibbs sweep
  EXPECT_FALSE(sweep->outcomes[1].ok());  // LDA dies on its first sweep
  EXPECT_EQ(sweep->outcomes[1].status.code(), StatusCode::kInternal);
  EXPECT_EQ(sweep->failed(), 1u);
  EXPECT_EQ(CounterValue("eval.sweep.failed"), failed_before + 1);

  auto stats = sweep->StatsOfGroup(runner_->GroupUsers(UserType::kAllUsers));
  EXPECT_EQ(stats.configs, 1u);
  EXPECT_DOUBLE_EQ(stats.mean,
                   sweep->outcomes[0].result.MapOfGroup(
                       runner_->GroupUsers(UserType::kAllUsers)));
}

// A pool task that throws must not take the process down: the exception is
// captured, rethrown from the construction that owns the pool, and the pool
// survives for the next (clean) construction.
TEST_F(ResilienceFixture, PoolTaskFaultRethrownAndPoolSurvives) {
  ThreadPool pool(2);
  resilience::FaultSpec spec;
  spec.every_nth = 1;
  resilience::ArmFault(resilience::kSitePoolTask, spec);
  EXPECT_THROW(rec::PreprocessedCorpus(dataset_->corpus, stop_basis_, 100,
                                       &pool),
               resilience::FaultInjectedError);
  resilience::ClearFaults();
  // Same pool, clean run: tokenization + filtering complete normally.
  rec::PreprocessedCorpus clean(dataset_->corpus, stop_basis_, 100, &pool);
  EXPECT_EQ(clean.corpus().num_tweets(), dataset_->corpus.num_tweets());
}

// Kill-then-resume: a sweep checkpointed halfway, then restarted over the
// full grid, reproduces the uninterrupted sweep's outcomes exactly (same
// users, same APs) while actually re-running only the missing half.
TEST_F(ResilienceFixture, KilledSweepResumesToIdenticalOutcomes) {
  rec::ModelConfig tfidf = TnConfig(1);
  tfidf.bag.weighting = bag::Weighting::kTFIDF;
  const std::vector<rec::ModelConfig> grid = {TnConfig(1), TnConfig(2),
                                              TnConfig(3), tfidf};
  Result<eval::SweepResult> uninterrupted =
      eval::SweepConfigs(*runner_, grid, Source::kR, eval::SweepOptions());
  ASSERT_TRUE(uninterrupted.ok());
  ASSERT_EQ(uninterrupted->outcomes.size(), grid.size());

  std::filesystem::path dir =
      testutil::UniqueTempDir("microrec_resilience_resume_test");
  std::filesystem::create_directories(dir);
  eval::SweepOptions options;
  options.checkpoint_path = (dir / "ckpt.jsonl").string();

  // "Kill" after two configurations: only the first half runs.
  Result<eval::SweepResult> partial = eval::SweepConfigs(
      *runner_, {grid[0], grid[1]}, Source::kR, options);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();

  // Restart over the full grid with the same checkpoint.
  Result<eval::SweepResult> resumed =
      eval::SweepConfigs(*runner_, grid, Source::kR, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->resumed, 2u);
  ASSERT_EQ(resumed->outcomes.size(), uninterrupted->outcomes.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_TRUE(resumed->outcomes[i].ok());
    EXPECT_EQ(resumed->outcomes[i].result.users,
              uninterrupted->outcomes[i].result.users)
        << "config " << i;
    EXPECT_EQ(resumed->outcomes[i].result.aps,
              uninterrupted->outcomes[i].result.aps)
        << "config " << i;
  }
  std::filesystem::remove_all(dir);
}

// Faulted sweeps are recorded in the checkpoint too (a deterministic seed
// would fail identically on resume), and the resumed sweep reports them as
// failures without re-running them.
TEST_F(ResilienceFixture, FailedConfigsResumeAsFailures) {
  std::filesystem::path dir =
      testutil::UniqueTempDir("microrec_resilience_refail_test");
  std::filesystem::create_directories(dir);
  eval::SweepOptions options;
  options.checkpoint_path = (dir / "ckpt.jsonl").string();

  resilience::FaultSpec spec;
  spec.every_nth = 2;
  resilience::ArmFault(resilience::kSiteSweepConfig, spec);
  Result<eval::SweepResult> first = eval::SweepConfigs(
      *runner_, {TnConfig(1), TnConfig(2)}, Source::kR, options);
  resilience::ClearFaults();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->failed(), 1u);

  // No faults armed now: the failure is replayed from the checkpoint, not
  // recomputed into a success.
  Result<eval::SweepResult> second = eval::SweepConfigs(
      *runner_, {TnConfig(1), TnConfig(2)}, Source::kR, options);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->resumed, 2u);
  EXPECT_EQ(second->failed(), 1u);
  EXPECT_FALSE(second->outcomes[1].ok());
  EXPECT_EQ(second->outcomes[1].status.code(), StatusCode::kInternal);
  std::filesystem::remove_all(dir);
}

// MICROREC_FAULTS-style spec arming drives the same machinery the env var
// uses, end to end through a corpus read.
TEST_F(ResilienceFixture, SpecArmedIoFaultFailsCorpusRead) {
  ASSERT_TRUE(resilience::ArmFaultsFromSpec("corpus.io.read:1").ok());
  std::string dir = testutil::UniqueTempDir("microrec_resilience_io_test");
  ASSERT_TRUE(corpus::SaveCorpus(dataset_->corpus, dir).ok());
  Result<corpus::Corpus> loaded = corpus::LoadCorpus(dir);
  resilience::ClearFaults();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
  EXPECT_NE(loaded.status().message().find("corpus.io.read"),
            std::string::npos);
  // Disarmed, the same directory loads fine.
  EXPECT_TRUE(corpus::LoadCorpus(dir).ok());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace microrec
