#include "graph/graph_model.h"

#include <gtest/gtest.h>

#include "gram_docs.h"

namespace microrec::graph {
namespace {

using testutil::GramDocs;

TEST(GraphConfigTest, NineConfigurationsPerKind) {
  // Table 5: 9 TNG and 9 CNG configurations.
  EXPECT_EQ(EnumerateGraphConfigs(NgramKind::kToken).size(), 9u);
  EXPECT_EQ(EnumerateGraphConfigs(NgramKind::kChar).size(), 9u);
}

TEST(GraphConfigTest, NgramRangesMatchTable5) {
  for (const GraphConfig& config : EnumerateGraphConfigs(NgramKind::kToken)) {
    EXPECT_GE(config.n, 1);
    EXPECT_LE(config.n, 3);
    EXPECT_TRUE(config.IsValid());
  }
  for (const GraphConfig& config : EnumerateGraphConfigs(NgramKind::kChar)) {
    EXPECT_GE(config.n, 2);
    EXPECT_LE(config.n, 4);
    EXPECT_TRUE(config.IsValid());
  }
}

TEST(GraphConfigTest, InvalidRanges) {
  GraphConfig config{NgramKind::kToken, 4, GraphSimilarity::kValue};
  EXPECT_FALSE(config.IsValid());
  config = GraphConfig{NgramKind::kChar, 1, GraphSimilarity::kValue};
  EXPECT_FALSE(config.IsValid());
}

TEST(GraphConfigTest, ToString) {
  GraphConfig config{NgramKind::kToken, 3, GraphSimilarity::kValue};
  EXPECT_EQ(config.ToString(), "TNG n=3 VS");
  config = GraphConfig{NgramKind::kChar, 4, GraphSimilarity::kContainment};
  EXPECT_EQ(config.ToString(), "CNG n=4 CoS");
}

TEST(GraphModelTest, DocGraphUsesWindowEqualToN) {
  GraphModeler modeler({NgramKind::kToken, 1, GraphSimilarity::kValue});
  GramDocs grams(modeler.config());
  NgramGraph graph = modeler.BuildDocGraph(grams.Doc({"a", "b", "c"}));
  // Unigrams with window 1: (a,b), (b,c).
  EXPECT_EQ(graph.size(), 2u);
}

TEST(GraphModelTest, TokenBigramGraph) {
  GraphModeler modeler({NgramKind::kToken, 2, GraphSimilarity::kValue});
  GramDocs grams(modeler.config());
  NgramGraph graph = modeler.BuildDocGraph(grams.Doc({"a", "b", "c", "d"}));
  // Bigrams: ab, bc, cd. Window 2: (ab,bc), (ab,cd), (bc,cd).
  EXPECT_EQ(graph.size(), 3u);
}

TEST(GraphModelTest, CharGraphsOperateOnCodepoints) {
  GraphModeler modeler({NgramKind::kChar, 2, GraphSimilarity::kValue});
  GramDocs grams(modeler.config());
  NgramGraph graph = modeler.BuildDocGraph(grams.Doc({"日本語"}));
  // Char bigrams: 日本, 本語 -> one co-occurrence edge (window 2 but only
  // 2 grams).
  EXPECT_EQ(graph.size(), 1u);
}

TEST(GraphModelTest, UserGraphMergesChronologically) {
  GraphModeler modeler({NgramKind::kToken, 1, GraphSimilarity::kValue});
  GramDocs grams(modeler.config());
  NgramGraph user = modeler.BuildUserGraph(
      grams.Docs({{"a", "b"}, {"a", "b"}, {"c", "d"}}));
  // (a,b) in 2/3 docs, (c,d) in 1/3.
  const uint64_t ab =
      modeler.BuildDocGraph(grams.Doc({"a", "b"})).keys().front();
  EXPECT_NEAR(user.WeightOf(static_cast<TermId>(ab >> 32),
                            static_cast<TermId>(ab)),
              2.0 / 3.0, 1e-9);
}

TEST(GraphModelTest, UserGraphSkipsEmptyDocs) {
  GraphModeler modeler({NgramKind::kToken, 2, GraphSimilarity::kValue});
  GramDocs grams(modeler.config());
  // Single-token docs yield no bigrams and must not dilute the average.
  NgramGraph with_empties =
      modeler.BuildUserGraph(grams.Docs({{"a", "b", "c"}, {"solo"}, {"x"}}));
  GraphModeler modeler2({NgramKind::kToken, 2, GraphSimilarity::kValue});
  NgramGraph without = modeler2.BuildUserGraph(grams.Docs({{"a", "b", "c"}}));
  EXPECT_EQ(with_empties.size(), without.size());
}

TEST(GraphModelTest, ScoreRanksSharedContextHigher) {
  GraphModeler modeler({NgramKind::kToken, 1, GraphSimilarity::kValue});
  GramDocs grams(modeler.config());
  NgramGraph user = modeler.BuildUserGraph(
      grams.Docs({{"cats", "love", "naps"}, {"cats", "love", "fish"}}));
  NgramGraph on_topic =
      modeler.BuildDocGraph(grams.Doc({"cats", "love", "naps"}));
  NgramGraph off_topic =
      modeler.BuildDocGraph(grams.Doc({"markets", "crash", "hard"}));
  EXPECT_GT(modeler.Score(user, on_topic), modeler.Score(user, off_topic));
  EXPECT_DOUBLE_EQ(modeler.Score(user, off_topic), 0.0);
}

TEST(GraphModelTest, GlobalContextDistinguishesNgramOrder) {
  // "a b" followed by "c d" vs "c d" followed by "a b": same bigrams, but
  // different bigram adjacencies captured by the graph (Section 3.1).
  GraphModeler modeler({NgramKind::kToken, 2, GraphSimilarity::kContainment});
  GramDocs grams(modeler.config());
  NgramGraph user =
      modeler.BuildUserGraph(grams.Docs({{"a", "b", "c", "d", "e"}}));
  NgramGraph same =
      modeler.BuildDocGraph(grams.Doc({"a", "b", "c", "d", "e"}));
  NgramGraph scrambled =
      modeler.BuildDocGraph(grams.Doc({"d", "e", "a", "b", "c"}));
  EXPECT_GT(modeler.Score(user, same), modeler.Score(user, scrambled));
}

}  // namespace
}  // namespace microrec::graph
