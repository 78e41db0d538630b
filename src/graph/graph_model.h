// The graph representation models TNG and CNG (Section 3.2): per-user
// modelers mirroring bag/bag_model.h but producing n-gram graphs.
#ifndef MICROREC_GRAPH_GRAPH_MODEL_H_
#define MICROREC_GRAPH_GRAPH_MODEL_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bag/bag_model.h"  // GramDoc, IdVocabulary, NgramKind
#include "graph/ngram_graph.h"

namespace microrec::graph {

using bag::NgramKind;

/// How document graphs are folded into the user graph: NgramGraph::FromKeys
/// divides each edge's count by the number of documents with an edge for
/// `update` (the paper's running average, Section 3.2) and keeps it for
/// `sum`. Summation is an ablation target (DESIGN.md §11): it biases the
/// user graph toward high-frequency edges and inflates |G|-normalised
/// similarities for prolific users.
enum class GraphMerge { kUpdate, kSum };

/// One graph-model configuration (Table 5): TNG uses n ∈ {1,2,3}, CNG uses
/// n ∈ {2,3,4}; both pair with {CoS, VS, NS} — 9 configurations each.
/// `merge` is not part of the paper's grid (always kUpdate there).
struct GraphConfig {
  NgramKind kind = NgramKind::kToken;
  int n = 3;
  GraphSimilarity similarity = GraphSimilarity::kValue;
  GraphMerge merge = GraphMerge::kUpdate;

  bool IsValid() const;
  std::string ToString() const;
};

/// Enumerates the 9 valid configurations for a kind.
std::vector<GraphConfig> EnumerateGraphConfigs(NgramKind kind);

/// TNG / CNG modeler for a single user. Like bag::BagModeler it sees
/// documents only as gram-id sequences and keeps a bag::IdVocabulary.
/// BuildUserGraph() interns and is not thread-safe; scoring
/// (BuildDocGraph() + Score()) only reads the modeler and may run
/// concurrently.
class GraphModeler {
 public:
  explicit GraphModeler(const GraphConfig& config) : config_(config) {}

  /// Document graph of one document's gram ids. Unseen grams are numbered
  /// above the vocabulary, not interned (bag::IdVocabulary::Translate), so
  /// their edges can never match a user-graph edge.
  NgramGraph BuildDocGraph(bag::GramDoc doc) const;

  /// User graph: every document's co-occurrence keys, merged by one
  /// NgramGraph::FromKeys as config().merge says; documents without an edge
  /// are skipped. Interns grams.
  NgramGraph BuildUserGraph(const std::vector<bag::GramDoc>& docs);

  /// Similarity under the configured measure.
  double Score(const NgramGraph& user, const NgramGraph& doc) const {
    return GraphScore(config_.similarity, user, doc);
  }

  /// BuildDocGraph() then Score(), except that a document none of whose
  /// grams the vocabulary has seen shares no edge with the user graph by
  /// construction: std::nullopt without building its graph.
  std::optional<double> ScoreDocument(const NgramGraph& user,
                                      bag::GramDoc doc) const;

  const GraphConfig& config() const { return config_; }
  size_t vocabulary_size() const { return vocab_.size(); }

  /// Interned grams, exposed for snapshot persistence (the serialization
  /// lives in the rec layer); graph edge keys reference their local ids.
  const bag::IdVocabulary& vocabulary() const { return vocab_; }

  /// Restores a persisted vocabulary into a freshly constructed modeler.
  void RestoreVocabulary(bag::IdVocabulary vocab) {
    vocab_ = std::move(vocab);
  }

 private:
  GraphConfig config_;
  bag::IdVocabulary vocab_;
};

}  // namespace microrec::graph

#endif  // MICROREC_GRAPH_GRAPH_MODEL_H_
