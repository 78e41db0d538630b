// Property sweep over the entire TN + CN configuration grid (Table 5):
// invariants every bag configuration must satisfy, regardless of n-gram
// kind, weighting, aggregation or similarity.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>

#include "bag/bag_model.h"
#include "gram_docs.h"

namespace microrec::bag {
namespace {

using testutil::GramDocs;

std::vector<BagConfig> AllConfigs() {
  std::vector<BagConfig> configs = EnumerateBagConfigs(NgramKind::kToken);
  auto chars = EnumerateBagConfigs(NgramKind::kChar);
  configs.insert(configs.end(), chars.begin(), chars.end());
  return configs;
}

class BagConfigPropertyTest : public ::testing::TestWithParam<BagConfig> {
 protected:
  // A small on-topic training set plus labels (mixed for Rocchio).
  std::vector<TokenDoc> docs_ = {
      {"alpha", "beta", "gamma", "alpha"},
      {"beta", "gamma", "delta", "beta"},
      {"alpha", "gamma", "delta", "epsilon"},
      {"noise", "words", "here", "only"},
  };
  std::vector<bool> labels_ = {true, true, true, false};
};

TEST_P(BagConfigPropertyTest, OnTopicBeatsOffTopic) {
  BagModeler modeler(GetParam());
  GramDocs grams(modeler.config());
  modeler.Fit(grams.Docs(docs_));
  SparseVector user = modeler.BuildUserVector(grams.Docs(docs_), labels_);
  SparseVector on_topic =
      modeler.EmbedDocument(grams.Doc({"alpha", "beta", "gamma"}));
  SparseVector off_topic =
      modeler.EmbedDocument(grams.Doc({"zq1", "zq2", "zq3"}));  // all unseen
  EXPECT_GE(modeler.Score(user, on_topic), modeler.Score(user, off_topic))
      << GetParam().ToString();
}

TEST_P(BagConfigPropertyTest, ScoresAreFiniteAndDeterministic) {
  BagModeler modeler(GetParam());
  GramDocs grams(modeler.config());
  modeler.Fit(grams.Docs(docs_));
  SparseVector user = modeler.BuildUserVector(grams.Docs(docs_), labels_);
  SparseVector doc =
      modeler.EmbedDocument(grams.Doc({"alpha", "delta", "new"}));
  double first = modeler.Score(user, doc);
  double second = modeler.Score(user, doc);
  EXPECT_TRUE(std::isfinite(first)) << GetParam().ToString();
  EXPECT_EQ(first, second);
}

TEST_P(BagConfigPropertyTest, NonRocchioScoresWithinUnitInterval) {
  const BagConfig& config = GetParam();
  if (config.aggregation == Aggregation::kRocchio) {
    GTEST_SKIP() << "Rocchio models can score negative";
  }
  BagModeler modeler(config);
  GramDocs grams(modeler.config());
  modeler.Fit(grams.Docs(docs_));
  SparseVector user = modeler.BuildUserVector(
      grams.Docs(docs_), std::vector<bool>(docs_.size(), true));
  for (const TokenDoc& doc :
       {TokenDoc{"alpha", "beta"}, TokenDoc{"unseen", "tokens"},
        TokenDoc{"alpha", "alpha", "alpha"}}) {
    double score = modeler.Score(user, modeler.EmbedDocument(grams.Doc(doc)));
    EXPECT_GE(score, 0.0) << config.ToString();
    EXPECT_LE(score, 1.0 + 1e-9) << config.ToString();
  }
}

TEST_P(BagConfigPropertyTest, EmptyTrainingSetYieldsZeroScores) {
  BagModeler modeler(GetParam());
  GramDocs grams(modeler.config());
  modeler.Fit({});
  SparseVector user = modeler.BuildUserVector({}, {});
  SparseVector doc = modeler.EmbedDocument(grams.Doc({"anything"}));
  EXPECT_DOUBLE_EQ(modeler.Score(user, doc), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    FullGrid, BagConfigPropertyTest, ::testing::ValuesIn(AllConfigs()),
    [](const ::testing::TestParamInfo<BagConfig>& info) {
      std::string name = info.param.ToString();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace microrec::bag
