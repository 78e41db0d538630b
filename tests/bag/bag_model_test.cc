#include "bag/bag_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "gram_docs.h"
#include "util/rng.h"

namespace microrec::bag {
namespace {

using testutil::GramDocs;

BagConfig TokenConfig(int n, Weighting w, Aggregation a, BagSimilarity s) {
  BagConfig config;
  config.kind = NgramKind::kToken;
  config.n = n;
  config.weighting = w;
  config.aggregation = a;
  config.similarity = s;
  return config;
}

TEST(BagModelTest, TfWeightsAreNormalizedFrequencies) {
  BagModeler modeler(TokenConfig(1, Weighting::kTF, Aggregation::kSum,
                                 BagSimilarity::kCosine));
  GramDocs grams(modeler.config());
  modeler.Fit(grams.Docs({{"a", "a", "b"}}));
  SparseVector vec = modeler.EmbedDocument(grams.Doc({"a", "a", "b"}));
  ASSERT_EQ(vec.size(), 2u);
  EXPECT_DOUBLE_EQ(vec.entries()[0].second, 2.0 / 3.0);  // a
  EXPECT_DOUBLE_EQ(vec.entries()[1].second, 1.0 / 3.0);  // b
}

TEST(BagModelTest, BfWeightsAreBinary) {
  BagModeler modeler(TokenConfig(1, Weighting::kBF, Aggregation::kSum,
                                 BagSimilarity::kJaccard));
  GramDocs grams(modeler.config());
  modeler.Fit(grams.Docs({{"a", "a", "b"}}));
  SparseVector vec = modeler.EmbedDocument(grams.Doc({"a", "a", "a", "b"}));
  for (const auto& [term, weight] : vec.entries()) {
    EXPECT_DOUBLE_EQ(weight, 1.0);
  }
}

TEST(BagModelTest, TfIdfDownweightsUbiquitousTerms) {
  BagModeler modeler(TokenConfig(1, Weighting::kTFIDF, Aggregation::kCentroid,
                                 BagSimilarity::kCosine));
  GramDocs grams(modeler.config());
  // "common" appears in every doc; "rare" in one of three.
  modeler.Fit(
      grams.Docs({{"common", "rare"}, {"common", "x"}, {"common", "y"}}));
  SparseVector vec = modeler.EmbedDocument(grams.Doc({"common", "rare"}));
  // IDF(common) = log(3/4) < 0 -> clamped to 0 -> pruned.
  // IDF(rare) = log(3/2) > 0 -> kept.
  ASSERT_EQ(vec.size(), 1u);
  EXPECT_GT(vec.entries()[0].second, 0.0);
}

TEST(BagModelTest, UnseenTermsGetMaxIdf) {
  BagModeler modeler(TokenConfig(1, Weighting::kTFIDF, Aggregation::kCentroid,
                                 BagSimilarity::kCosine));
  GramDocs grams(modeler.config());
  modeler.Fit(grams.Docs({{"a"}, {"b"}}));
  SparseVector vec = modeler.EmbedDocument(grams.Doc({"novel"}));
  ASSERT_EQ(vec.size(), 1u);
  // TF = 1, IDF = log(2/1).
  EXPECT_NEAR(vec.entries()[0].second, std::log(2.0), 1e-12);
}

TEST(BagModelTest, CharModeUsesCharacterNgrams) {
  BagConfig config;
  config.kind = NgramKind::kChar;
  config.n = 2;
  config.weighting = Weighting::kTF;
  config.aggregation = Aggregation::kSum;
  config.similarity = BagSimilarity::kCosine;
  BagModeler modeler(config);
  GramDocs grams(modeler.config());
  modeler.Fit(grams.Docs({{"ab"}}));
  // "ab cd" has bigrams: ab, "b ", " c", cd.
  SparseVector vec = modeler.EmbedDocument(grams.Doc({"ab", "cd"}));
  EXPECT_EQ(vec.size(), 4u);
}

TEST(BagModelTest, SumAggregationAddsDocumentVectors) {
  BagModeler modeler(TokenConfig(1, Weighting::kTF, Aggregation::kSum,
                                 BagSimilarity::kCosine));
  GramDocs grams(modeler.config());
  std::vector<TokenDoc> docs = {{"a"}, {"a"}, {"b"}};
  modeler.Fit(grams.Docs(docs));
  SparseVector user =
      modeler.BuildUserVector(grams.Docs(docs), {true, true, true});
  ASSERT_EQ(user.size(), 2u);
  EXPECT_DOUBLE_EQ(user.entries()[0].second, 2.0);  // a: 1+1
  EXPECT_DOUBLE_EQ(user.entries()[1].second, 1.0);  // b
}

TEST(BagModelTest, CentroidAggregationAveragesUnitVectors) {
  BagModeler modeler(TokenConfig(1, Weighting::kTF, Aggregation::kCentroid,
                                 BagSimilarity::kCosine));
  GramDocs grams(modeler.config());
  std::vector<TokenDoc> docs = {{"a"}, {"b"}};
  modeler.Fit(grams.Docs(docs));
  SparseVector user = modeler.BuildUserVector(grams.Docs(docs), {true, true});
  ASSERT_EQ(user.size(), 2u);
  EXPECT_DOUBLE_EQ(user.entries()[0].second, 0.5);
  EXPECT_DOUBLE_EQ(user.entries()[1].second, 0.5);
}

TEST(BagModelTest, CentroidSkipsEmptyDocuments) {
  BagModeler modeler(TokenConfig(2, Weighting::kTF, Aggregation::kCentroid,
                                 BagSimilarity::kCosine));
  GramDocs grams(modeler.config());
  // Single-token docs produce no bigrams -> skipped, not averaged as zero.
  std::vector<TokenDoc> docs = {{"a", "b"}, {"solo"}};
  modeler.Fit(grams.Docs(docs));
  SparseVector user = modeler.BuildUserVector(grams.Docs(docs), {true, true});
  EXPECT_NEAR(user.Magnitude(), 1.0, 1e-12);
}

TEST(BagModelTest, RocchioSubtractsNegativeCentroid) {
  BagConfig config = TokenConfig(1, Weighting::kTF, Aggregation::kRocchio,
                                 BagSimilarity::kCosine);
  BagModeler modeler(config);
  GramDocs grams(modeler.config());
  std::vector<TokenDoc> docs = {{"good"}, {"bad"}};
  modeler.Fit(grams.Docs(docs));
  SparseVector user = modeler.BuildUserVector(grams.Docs(docs), {true, false});
  // good: +alpha, bad: -beta.
  ASSERT_EQ(user.size(), 2u);
  double bad_weight = 0.0, good_weight = 0.0;
  for (const auto& [term, weight] : user.entries()) {
    if (weight > 0) good_weight = weight;
    if (weight < 0) bad_weight = weight;
  }
  EXPECT_NEAR(good_weight, 0.8, 1e-12);
  EXPECT_NEAR(bad_weight, -0.2, 1e-12);
}

TEST(BagModelTest, RocchioWithoutNegativesUsesOnlyPositives) {
  BagModeler modeler(TokenConfig(1, Weighting::kTF, Aggregation::kRocchio,
                                 BagSimilarity::kCosine));
  GramDocs grams(modeler.config());
  std::vector<TokenDoc> docs = {{"a"}, {"b"}};
  modeler.Fit(grams.Docs(docs));
  SparseVector user = modeler.BuildUserVector(grams.Docs(docs), {true, true});
  for (const auto& [term, weight] : user.entries()) EXPECT_GT(weight, 0.0);
}

TEST(BagModelTest, CosineScoreRanksTopicalMatchHigher) {
  BagModeler modeler(TokenConfig(1, Weighting::kTF, Aggregation::kCentroid,
                                 BagSimilarity::kCosine));
  GramDocs grams(modeler.config());
  std::vector<TokenDoc> docs = {{"cats", "pets"}, {"cats", "cute"}};
  modeler.Fit(grams.Docs(docs));
  SparseVector user = modeler.BuildUserVector(grams.Docs(docs), {true, true});
  SparseVector on_topic = modeler.EmbedDocument(grams.Doc({"cats", "pets"}));
  SparseVector off_topic =
      modeler.EmbedDocument(grams.Doc({"stocks", "market"}));
  EXPECT_GT(modeler.Score(user, on_topic), modeler.Score(user, off_topic));
  EXPECT_DOUBLE_EQ(modeler.Score(user, off_topic), 0.0);
}

TEST(BagModelTest, ScoreBoundedByOne) {
  BagModeler modeler(TokenConfig(1, Weighting::kTF, Aggregation::kCentroid,
                                 BagSimilarity::kCosine));
  GramDocs grams(modeler.config());
  std::vector<TokenDoc> docs = {{"x", "y"}};
  modeler.Fit(grams.Docs(docs));
  SparseVector user = modeler.BuildUserVector(grams.Docs(docs), {true});
  SparseVector same = modeler.EmbedDocument(grams.Doc({"x", "y"}));
  EXPECT_NEAR(modeler.Score(user, same), 1.0, 1e-9);
}

TEST(BagModelTest, EmptyDocumentScoresZero) {
  BagModeler modeler(TokenConfig(1, Weighting::kTF, Aggregation::kCentroid,
                                 BagSimilarity::kCosine));
  GramDocs grams(modeler.config());
  std::vector<TokenDoc> docs = {{"x"}};
  modeler.Fit(grams.Docs(docs));
  SparseVector user = modeler.BuildUserVector(grams.Docs(docs), {true});
  SparseVector empty = modeler.EmbedDocument(grams.Doc({}));
  EXPECT_DOUBLE_EQ(modeler.Score(user, empty), 0.0);
}

TEST(BagModelTest, TokenBigramsDistinguishWordOrder) {
  BagModeler modeler(TokenConfig(2, Weighting::kTF, Aggregation::kSum,
                                 BagSimilarity::kCosine));
  GramDocs grams(modeler.config());
  std::vector<TokenDoc> docs = {{"bob", "sues", "jim"}};
  modeler.Fit(grams.Docs(docs));
  SparseVector user = modeler.BuildUserVector(grams.Docs(docs), {true});
  SparseVector same_order =
      modeler.EmbedDocument(grams.Doc({"bob", "sues", "jim"}));
  SparseVector reversed =
      modeler.EmbedDocument(grams.Doc({"jim", "sues", "bob"}));
  EXPECT_GT(modeler.Score(user, same_order), modeler.Score(user, reversed));
}

TEST(BagModelTest, VocabularyStaysFixedAtTestTimeForSetSimilarities) {
  BagModeler modeler(TokenConfig(1, Weighting::kBF, Aggregation::kSum,
                                 BagSimilarity::kJaccard));
  GramDocs grams(modeler.config());
  std::vector<TokenDoc> docs = {{"a", "b"}};
  modeler.Fit(grams.Docs(docs));
  size_t before = modeler.vocabulary_size();
  SparseVector doc =
      modeler.EmbedDocument(grams.Doc({"a", "new1", "new2"}));
  EXPECT_EQ(modeler.vocabulary_size(), before);
  EXPECT_EQ(modeler.doc_frequencies().size(), before);
  SparseVector user = modeler.BuildUserVector(grams.Docs(docs), {true});
  // JS still sees the unseen terms in the union: |{a}| / |{a,b,new1,new2}|.
  EXPECT_DOUBLE_EQ(modeler.Score(user, doc), 0.25);
}

TEST(BagModelTest, KernelMatchesTheMergeReferencesBitForBit) {
  // Random vectors over overlapping id ranges: the kernel's lookup walk must
  // add the same terms in the same order as the SparseVector merges.
  Rng rng(17);
  auto random_vector = [&rng](uint32_t ids) {
    std::vector<SparseVector::Entry> entries;
    for (uint32_t id = 0; id < ids; ++id) {
      if (rng.Bernoulli(0.3)) {
        entries.emplace_back(id, rng.UniformDouble(0.01, 3.0));
      }
    }
    return SparseVector::FromUnsorted(std::move(entries));
  };
  for (BagSimilarity similarity :
       {BagSimilarity::kCosine, BagSimilarity::kJaccard,
        BagSimilarity::kGeneralizedJaccard}) {
    BagModeler modeler(
        TokenConfig(1, Weighting::kTF, Aggregation::kSum, similarity));
    for (int trial = 0; trial < 200; ++trial) {
      SparseVector profile = random_vector(60);
      SparseVector doc = random_vector(80);
      double expected = 0.0;
      switch (similarity) {
        case BagSimilarity::kCosine: {
          double denom = profile.Magnitude() * doc.Magnitude();
          expected =
              denom == 0.0 ? 0.0 : SparseVector::Dot(profile, doc) / denom;
          break;
        }
        case BagSimilarity::kJaccard:
          expected = SparseVector::JaccardSupport(profile, doc);
          break;
        case BagSimilarity::kGeneralizedJaccard:
          expected = SparseVector::GeneralizedJaccard(profile, doc);
          break;
      }
      std::optional<double> got =
          modeler.Kernel(profile, profile.Magnitude(), doc);
      EXPECT_EQ(got.value_or(0.0), expected) << "trial " << trial;
      const bool overlaps = SparseVector::JaccardSupport(profile, doc) > 0.0;
      EXPECT_EQ(got.has_value(), overlaps) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace microrec::bag
