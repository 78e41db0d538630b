// End-to-end integration: synthetic corpus -> cohort -> pre-processing ->
// every representation model -> ranking -> AP, through the public API only.
#include <gtest/gtest.h>

#include "eval/experiment.h"
#include "synth/generator.h"

namespace microrec {
namespace {

using corpus::Source;
using corpus::UserType;

class PipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::DatasetSpec spec = synth::DatasetSpec::Small();
    spec.seed = 77;
    spec.background_users = 80;
    spec.seekers.count = 5;
    spec.balanced.count = 5;
    spec.producers.count = 4;
    spec.extras.count = 2;
    spec.cohort.seekers = 5;
    spec.cohort.balanced = 5;
    spec.cohort.producers = 4;
    spec.cohort.extra_all = 2;
    spec.cohort.min_retweets = 8;
    dataset_ = new synth::SyntheticDataset(std::move(*GenerateDataset(spec)));
    cohort_ = new corpus::UserCohort(
        corpus::SelectCohort(dataset_->corpus, spec.cohort));
    pre_ = new rec::PreprocessedCorpus(
        dataset_->corpus, eval::StopBasis(dataset_->corpus, *cohort_),
        eval::kStopTopK);
    eval::RunOptions options;
    options.topic_iteration_scale = 0.02;
    runner_ = new eval::ExperimentRunner(pre_, cohort_, options);
    ASSERT_TRUE(runner_->Init().ok());
    ran_map_ = runner_->RandomMap(UserType::kAllUsers, 300);
  }
  static void TearDownTestSuite() {
    delete runner_;
    delete pre_;
    delete cohort_;
    delete dataset_;
  }

  // Cheapest sensible configuration of each model kind.
  static rec::ModelConfig CheapConfig(rec::ModelKind kind) {
    rec::ModelConfig config;
    config.kind = kind;
    switch (kind) {
      case rec::ModelKind::kTN:
      case rec::ModelKind::kCN:
        config.bag.kind = kind == rec::ModelKind::kTN
                              ? bag::NgramKind::kToken
                              : bag::NgramKind::kChar;
        config.bag.n = kind == rec::ModelKind::kTN ? 1 : 3;
        config.bag.weighting = bag::Weighting::kTF;
        config.bag.aggregation = bag::Aggregation::kCentroid;
        config.bag.similarity = bag::BagSimilarity::kCosine;
        break;
      case rec::ModelKind::kTNG:
      case rec::ModelKind::kCNG:
        config.graph.kind = kind == rec::ModelKind::kTNG
                                ? bag::NgramKind::kToken
                                : bag::NgramKind::kChar;
        config.graph.n = kind == rec::ModelKind::kTNG ? 1 : 3;
        config.graph.similarity = graph::GraphSimilarity::kValue;
        break;
      default:
        config.topic.num_topics = 50;
        config.topic.iterations = 1000;
        config.topic.pooling = corpus::Pooling::kUser;
        config.topic.aggregation = rec::TopicAggregation::kCentroid;
        config.topic.alpha = 1.0;
        config.topic.beta = 0.1;
        break;
    }
    return config;
  }

  static synth::SyntheticDataset* dataset_;
  static corpus::UserCohort* cohort_;
  static rec::PreprocessedCorpus* pre_;
  static eval::ExperimentRunner* runner_;
  static double ran_map_;
};

synth::SyntheticDataset* PipelineFixture::dataset_ = nullptr;
corpus::UserCohort* PipelineFixture::cohort_ = nullptr;
rec::PreprocessedCorpus* PipelineFixture::pre_ = nullptr;
eval::ExperimentRunner* PipelineFixture::runner_ = nullptr;
double PipelineFixture::ran_map_ = 0.0;

class AllModelsPipelineTest
    : public PipelineFixture,
      public ::testing::WithParamInterface<rec::ModelKind> {};

TEST_P(AllModelsPipelineTest, RunsEndToEndOnRetweetSource) {
  rec::ModelKind kind = GetParam();
  Result<eval::RunResult> run =
      runner_->Run(CheapConfig(kind), Source::kR);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(run->aps.empty());
  for (double ap : run->aps) {
    EXPECT_GE(ap, 0.0);
    EXPECT_LE(ap, 1.0);
  }
}

TEST_P(AllModelsPipelineTest, RunsOnCompositeSourceWithNegatives) {
  rec::ModelKind kind = GetParam();
  Result<eval::RunResult> run =
      runner_->Run(CheapConfig(kind), Source::kRE);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(run->aps.empty());
}

INSTANTIATE_TEST_SUITE_P(
    EveryModel, AllModelsPipelineTest,
    ::testing::ValuesIn(std::vector<rec::ModelKind>(
        rec::kEvaluatedModels.begin(), rec::kEvaluatedModels.end())),
    [](const ::testing::TestParamInfo<rec::ModelKind>& info) {
      return std::string(rec::ModelKindName(info.param));
    });

TEST_F(PipelineFixture, TokenModelsBeatRandomBaseline) {
  for (rec::ModelKind kind : {rec::ModelKind::kTN, rec::ModelKind::kTNG}) {
    Result<eval::RunResult> run =
        runner_->Run(CheapConfig(kind), Source::kR);
    ASSERT_TRUE(run.ok());
    EXPECT_GT(run->Map(), ran_map_) << rec::ModelKindName(kind);
  }
}

TEST_F(PipelineFixture, AllThirteenSourcesAreRunnable) {
  rec::ModelConfig config = CheapConfig(rec::ModelKind::kTN);
  for (Source source : corpus::kAllSources) {
    Result<eval::RunResult> run = runner_->Run(config, source);
    ASSERT_TRUE(run.ok()) << corpus::SourceName(source) << ": "
                          << run.status().ToString();
  }
}

TEST_F(PipelineFixture, PlsaRunsAtReducedScale) {
  // PLSA is excluded from the paper's grid but must work as a library
  // component at laptop scale.
  rec::ModelConfig config = CheapConfig(rec::ModelKind::kPLSA);
  config.topic.num_topics = 20;
  Result<eval::RunResult> run = runner_->Run(config, Source::kR);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run->Map(), 0.0);
}

}  // namespace
}  // namespace microrec
