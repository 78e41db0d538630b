// Property sweep over the 18 TNG + CNG configurations of Table 5.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "graph/graph_model.h"
#include "gram_docs.h"

namespace microrec::graph {
namespace {

using testutil::GramDocs;

std::vector<GraphConfig> AllConfigs() {
  std::vector<GraphConfig> configs = EnumerateGraphConfigs(NgramKind::kToken);
  auto chars = EnumerateGraphConfigs(NgramKind::kChar);
  configs.insert(configs.end(), chars.begin(), chars.end());
  return configs;
}

class GraphConfigPropertyTest : public ::testing::TestWithParam<GraphConfig> {
 protected:
  std::vector<bag::TokenDoc> docs_ = {
      {"alpha", "beta", "gamma", "delta"},
      {"alpha", "beta", "gamma", "epsilon"},
      {"beta", "gamma", "delta", "alpha"},
  };
};

TEST_P(GraphConfigPropertyTest, SelfSimilarityIsMaximal) {
  GraphModeler modeler(GetParam());
  GramDocs grams(modeler.config());
  NgramGraph doc = modeler.BuildDocGraph(grams.Doc(docs_[0]));
  if (doc.empty()) GTEST_SKIP() << "document shorter than n-gram size";
  double self = modeler.Score(doc, doc);
  NgramGraph other = modeler.BuildDocGraph(
      grams.Doc({"unrelated", "words", "apart", "entirely"}));
  EXPECT_GE(self, modeler.Score(doc, other)) << GetParam().ToString();
  EXPECT_NEAR(self, 1.0, 1e-9) << GetParam().ToString();
}

TEST_P(GraphConfigPropertyTest, ScoresWithinUnitInterval) {
  GraphModeler modeler(GetParam());
  GramDocs grams(modeler.config());
  NgramGraph user = modeler.BuildUserGraph(grams.Docs(docs_));
  for (const auto& doc_tokens :
       {bag::TokenDoc{"alpha", "beta", "gamma"},
        bag::TokenDoc{"zzz", "qqq", "www", "eee"}}) {
    NgramGraph doc = modeler.BuildDocGraph(grams.Doc(doc_tokens));
    double score = modeler.Score(user, doc);
    EXPECT_GE(score, 0.0) << GetParam().ToString();
    EXPECT_LE(score, 1.0 + 1e-9) << GetParam().ToString();
    EXPECT_TRUE(std::isfinite(score));
  }
}

TEST_P(GraphConfigPropertyTest, OnTopicBeatsOffTopic) {
  GraphModeler modeler(GetParam());
  GramDocs grams(modeler.config());
  NgramGraph user = modeler.BuildUserGraph(grams.Docs(docs_));
  if (user.empty()) GTEST_SKIP();
  NgramGraph on_topic = modeler.BuildDocGraph(grams.Doc(docs_[1]));
  NgramGraph off_topic =
      modeler.BuildDocGraph(grams.Doc({"foo", "bar", "baz", "qux", "maybe"}));
  EXPECT_GE(modeler.Score(user, on_topic), modeler.Score(user, off_topic))
      << GetParam().ToString();
}

TEST_P(GraphConfigPropertyTest, MergeOrderInvariantForSum) {
  GraphConfig config = GetParam();
  config.merge = GraphMerge::kSum;
  GraphModeler forward(config);
  GraphModeler backward(config);
  GramDocs grams(config);
  NgramGraph a = forward.BuildUserGraph(grams.Docs(docs_));
  std::vector<bag::TokenDoc> reversed(docs_.rbegin(), docs_.rend());
  NgramGraph b_raw = backward.BuildUserGraph(grams.Docs(reversed));
  // Vocabulary ids may differ between modelers; compare via a probe score
  // against the same document built by each modeler.
  NgramGraph probe_a = forward.BuildDocGraph(grams.Doc(docs_[0]));
  NgramGraph probe_b = backward.BuildDocGraph(grams.Doc(docs_[0]));
  EXPECT_NEAR(forward.Score(a, probe_a), backward.Score(b_raw, probe_b),
              1e-9)
      << GetParam().ToString();
}

// Each edge's weight, keyed by its two dictionary grams: local ids differ
// between modelers that saw the documents in different orders.
std::map<std::pair<TermId, TermId>, double> WeightsByGram(
    const GraphModeler& modeler, const NgramGraph& graph) {
  const std::vector<TermId>& grams = modeler.vocabulary().grams();
  std::map<std::pair<TermId, TermId>, double> out;
  for (size_t e = 0; e < graph.size(); ++e) {
    const uint64_t key = graph.keys()[e];
    out[std::minmax(grams[key >> 32], grams[key & 0xFFFFFFFFu])] =
        graph.weights()[e];
  }
  return out;
}

TEST_P(GraphConfigPropertyTest, MergeOrderInvariantForUpdate) {
  // `update` is each edge's mean weight over the documents, so reversing
  // them must leave every weight's bits as they are.
  GraphConfig config = GetParam();
  config.merge = GraphMerge::kUpdate;
  const std::vector<bag::TokenDoc> history = {
      {"alpha", "beta", "gamma", "delta"},
      {"alpha", "beta", "gamma", "epsilon"},
      {"beta", "gamma", "delta", "alpha"},
      {"gamma", "alpha", "beta", "zeta"},
      {"alpha", "beta", "alpha", "beta", "gamma"},
      {"delta", "epsilon", "gamma", "beta"},
      {"zeta", "alpha", "beta", "gamma", "delta"},
  };
  const std::vector<bag::TokenDoc> reversed(history.rbegin(), history.rend());
  GraphModeler forward(config);
  GraphModeler backward(config);
  GramDocs grams(config);
  const auto a =
      WeightsByGram(forward, forward.BuildUserGraph(grams.Docs(history)));
  const auto b =
      WeightsByGram(backward, backward.BuildUserGraph(grams.Docs(reversed)));
  ASSERT_FALSE(a.empty()) << GetParam().ToString();
  EXPECT_EQ(a, b) << GetParam().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    FullGrid, GraphConfigPropertyTest, ::testing::ValuesIn(AllConfigs()),
    [](const ::testing::TestParamInfo<GraphConfig>& info) {
      std::string name = info.param.ToString();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace microrec::graph
