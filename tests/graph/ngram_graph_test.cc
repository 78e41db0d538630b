#include "graph/ngram_graph.h"

#include <gtest/gtest.h>

namespace microrec::graph {
namespace {

TEST(EdgeKeyTest, Canonicalizes) {
  EXPECT_EQ(EdgeKey(1, 2), EdgeKey(2, 1));
  EXPECT_NE(EdgeKey(1, 2), EdgeKey(1, 3));
}

TEST(NgramGraphTest, AddEdgeAccumulatesWeight) {
  // One key per co-occurrence: the builder counts each edge's keys.
  NgramGraph graph = NgramGraph::FromKeys({EdgeKey(1, 2), EdgeKey(2, 1)});
  EXPECT_EQ(graph.size(), 1u);
  EXPECT_DOUBLE_EQ(graph.WeightOf(1, 2), 2.0);
  EXPECT_DOUBLE_EQ(graph.WeightOf(2, 1), 2.0);
  EXPECT_DOUBLE_EQ(graph.WeightOf(1, 3), 0.0);
}

TEST(NgramGraphTest, FromSequenceWindowOne) {
  // a b c with window 1: edges (a,b), (b,c), keys ascending.
  NgramGraph graph = NgramGraph::FromSequence({12, 11, 10}, 1);
  EXPECT_EQ(graph.keys(),
            (std::vector<uint64_t>{EdgeKey(10, 11), EdgeKey(11, 12)}));
  EXPECT_EQ(graph.weights(), (std::vector<double>{1.0, 1.0}));
  EXPECT_DOUBLE_EQ(graph.WeightOf(10, 12), 0.0);
}

TEST(NgramGraphTest, FromSequenceWindowTwo) {
  NgramGraph graph = NgramGraph::FromSequence({1, 2, 3}, 2);
  EXPECT_EQ(graph.size(), 3u);
  EXPECT_DOUBLE_EQ(graph.WeightOf(1, 3), 1.0);
}

TEST(NgramGraphTest, RepeatedCooccurrenceIncreasesWeight) {
  NgramGraph graph = NgramGraph::FromSequence({1, 2, 1, 2}, 1);
  // (1,2) occurs at positions (0,1), (1,2) -> (2,1) same edge, (2,3).
  EXPECT_EQ(graph.size(), 1u);
  EXPECT_DOUBLE_EQ(graph.WeightOf(1, 2), 3.0);
}

TEST(NgramGraphTest, EmptyAndSingletonSequences) {
  EXPECT_TRUE(NgramGraph::FromSequence({}, 2).empty());
  EXPECT_TRUE(NgramGraph::FromSequence({7}, 2).empty());
}

// The `update` operator: the co-occurrence keys of every document, each
// edge's count divided by the number of documents.
TEST(UpdateOperatorTest, FirstMergeCopiesDocumentWeights) {
  std::vector<uint64_t> keys;
  NgramGraph::AppendCooccurrences({1, 2, 3}, 1, &keys);
  NgramGraph user = NgramGraph::FromKeys(keys, 1);
  EXPECT_DOUBLE_EQ(user.WeightOf(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(user.WeightOf(2, 3), 1.0);
}

TEST(UpdateOperatorTest, RunningAverageOfEdgeWeights) {
  // Document 1 holds (1,2) four times, document 2 twice.
  std::vector<uint64_t> keys;
  NgramGraph::AppendCooccurrences({1, 2, 1, 2, 1}, 1, &keys);
  NgramGraph::AppendCooccurrences({2, 1, 2}, 1, &keys);
  NgramGraph user = NgramGraph::FromKeys(keys, 2);
  // Average of 4 and 2.
  EXPECT_DOUBLE_EQ(user.WeightOf(1, 2), 3.0);
}

TEST(UpdateOperatorTest, AbsentEdgesDecayTowardZero) {
  std::vector<uint64_t> keys;
  NgramGraph::AppendCooccurrences({1, 2, 1}, 1, &keys);
  NgramGraph::AppendCooccurrences({3, 4, 3}, 1, &keys);
  NgramGraph user = NgramGraph::FromKeys(keys, 2);
  // Edge (1,2) seen in 1 of 2 docs -> weight 1.0; same for (3,4).
  EXPECT_DOUBLE_EQ(user.WeightOf(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(user.WeightOf(3, 4), 1.0);
}

TEST(ContainmentSimilarityTest, FractionOfSmallerGraphContained) {
  NgramGraph a = NgramGraph::FromKeys({EdgeKey(1, 2), EdgeKey(2, 3)});
  NgramGraph b =
      NgramGraph::FromKeys({EdgeKey(1, 2), EdgeKey(4, 5), EdgeKey(6, 7)});
  // Shared = 1; min size = 2.
  EXPECT_DOUBLE_EQ(ContainmentSimilarity(a, b), 0.5);
  EXPECT_DOUBLE_EQ(ContainmentSimilarity(a, a), 1.0);
}

TEST(ContainmentSimilarityTest, IgnoresWeights) {
  NgramGraph a({EdgeKey(1, 2)}, {100.0});
  NgramGraph b({EdgeKey(1, 2)}, {0.001});
  EXPECT_DOUBLE_EQ(ContainmentSimilarity(a, b), 1.0);
}

TEST(ValueSimilarityTest, WeightRatioOverMaxSize) {
  NgramGraph a({EdgeKey(1, 2), EdgeKey(2, 3)}, {1.0, 2.0});
  NgramGraph b({EdgeKey(1, 2)}, {2.0});
  // Shared (1,2): min/max = 0.5; normalised by max(|a|,|b|) = 2.
  EXPECT_DOUBLE_EQ(ValueSimilarity(a, b), 0.25);
  EXPECT_DOUBLE_EQ(ValueSimilarity(a, a), 1.0);
}

TEST(NormalizedValueSimilarityTest, NormalisesBySmallerGraph) {
  NgramGraph a({EdgeKey(1, 2), EdgeKey(2, 3)}, {1.0, 2.0});
  NgramGraph b({EdgeKey(1, 2)}, {2.0});
  // Same shared sum 0.5, but normalised by min size = 1.
  EXPECT_DOUBLE_EQ(NormalizedValueSimilarity(a, b), 0.5);
}

TEST(NormalizedValueSimilarityTest, RobustToImbalancedSizes) {
  // NS of a small graph against a superset stays 1.0 regardless of the
  // superset's size (Section 3.2 motivation).
  NgramGraph small = NgramGraph::FromKeys({EdgeKey(1, 2)});
  std::vector<uint64_t> large_keys = {EdgeKey(1, 2)};
  for (uint32_t i = 10; i < 200; i += 2) {
    large_keys.push_back(EdgeKey(i, i + 1));
  }
  NgramGraph large = NgramGraph::FromKeys(large_keys);
  EXPECT_DOUBLE_EQ(NormalizedValueSimilarity(small, large), 1.0);
  EXPECT_LT(ValueSimilarity(small, large), 0.05);
}

TEST(GraphSimilarityTest, EmptyGraphsScoreZero) {
  NgramGraph empty;
  NgramGraph nonempty = NgramGraph::FromKeys({EdgeKey(1, 2)});
  for (GraphSimilarity s :
       {GraphSimilarity::kContainment, GraphSimilarity::kValue,
        GraphSimilarity::kNormalizedValue}) {
    EXPECT_DOUBLE_EQ(GraphScore(s, empty, nonempty), 0.0);
    EXPECT_DOUBLE_EQ(GraphScore(s, empty, empty), 0.0);
  }
}

TEST(GraphSimilarityTest, AllMeasuresSymmetric) {
  NgramGraph a = NgramGraph::FromSequence({1, 2, 3, 4}, 2);
  NgramGraph b = NgramGraph::FromSequence({3, 4, 5}, 2);
  for (GraphSimilarity s :
       {GraphSimilarity::kContainment, GraphSimilarity::kValue,
        GraphSimilarity::kNormalizedValue}) {
    EXPECT_DOUBLE_EQ(GraphScore(s, a, b), GraphScore(s, b, a));
  }
}

TEST(GraphSimilarityTest, Names) {
  EXPECT_STREQ(GraphSimilarityName(GraphSimilarity::kContainment), "CoS");
  EXPECT_STREQ(GraphSimilarityName(GraphSimilarity::kValue), "VS");
  EXPECT_STREQ(GraphSimilarityName(GraphSimilarity::kNormalizedValue), "NS");
}

}  // namespace
}  // namespace microrec::graph
