#include "graph/graph_model.h"

namespace microrec::graph {

bool GraphConfig::IsValid() const {
  if (kind == NgramKind::kToken) return n >= 1 && n <= 3;
  return n >= 2 && n <= 4;
}

std::string GraphConfig::ToString() const {
  std::string out = kind == NgramKind::kToken ? "TNG" : "CNG";
  out += " n=" + std::to_string(n);
  out += " ";
  out += GraphSimilarityName(similarity);
  if (merge == GraphMerge::kSum) out += " sum-merge";
  return out;
}

std::vector<GraphConfig> EnumerateGraphConfigs(NgramKind kind) {
  std::vector<GraphConfig> out;
  const int n_lo = kind == NgramKind::kToken ? 1 : 2;
  const int n_hi = kind == NgramKind::kToken ? 3 : 4;
  for (int n = n_lo; n <= n_hi; ++n) {
    for (GraphSimilarity s :
         {GraphSimilarity::kContainment, GraphSimilarity::kValue,
          GraphSimilarity::kNormalizedValue}) {
      out.push_back(GraphConfig{kind, n, s});
    }
  }
  return out;
}

NgramGraph GraphModeler::BuildDocGraph(bag::GramDoc doc) const {
  std::vector<TermId> terms;
  vocab_.Translate(doc, &terms);
  // The co-occurrence window equals the n-gram size (Section 3.1).
  return NgramGraph::FromSequence(terms, config_.n);
}

std::optional<double> GraphModeler::ScoreDocument(const NgramGraph& user,
                                                  bag::GramDoc doc) const {
  if (!vocab_.ContainsAny(doc)) return std::nullopt;
  return Score(user, BuildDocGraph(doc));
}

NgramGraph GraphModeler::BuildUserGraph(
    const std::vector<bag::GramDoc>& docs) {
  std::vector<uint64_t> keys;
  size_t merged = 0;  // documents with at least one edge
  std::vector<TermId> terms;
  for (bag::GramDoc doc : docs) {
    vocab_.InternAll(doc, &terms);
    const size_t before = keys.size();
    NgramGraph::AppendCooccurrences(terms, config_.n, &keys);
    if (keys.size() > before) ++merged;
  }
  return NgramGraph::FromKeys(
      std::move(keys), config_.merge == GraphMerge::kUpdate ? merged : 1);
}

}  // namespace microrec::graph
