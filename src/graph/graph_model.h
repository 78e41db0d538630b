// The graph representation models TNG and CNG (Section 3.2): per-user
// modelers mirroring bag/bag_model.h but producing n-gram graphs.
#ifndef MICROREC_GRAPH_GRAPH_MODEL_H_
#define MICROREC_GRAPH_GRAPH_MODEL_H_

#include <string>
#include <vector>

#include "bag/bag_config.h"  // NgramKind
#include "graph/ngram_graph.h"
#include "text/vocabulary.h"

namespace microrec::graph {

using bag::NgramKind;

/// How document graphs are folded into the user graph. The paper uses the
/// `update` running-average operator (Section 3.2); plain edge-weight
/// summation is kept as an ablation target (DESIGN.md §11) — it biases the
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

/// TNG / CNG modeler for a single user. BuildUserGraph() interns n-grams
/// and is not thread-safe; scoring (BuildDocGraph() + Score()) only reads
/// the modeler and may run concurrently.
class GraphModeler {
 public:
  explicit GraphModeler(const GraphConfig& config) : config_(config) {}

  /// Document graph of one pre-processed token document. For CNG the
  /// tokens are joined with single spaces and codepoint n-grams are used.
  /// Unseen n-grams are numbered above the vocabulary, not interned
  /// (bag::GramIds), so their edges can never match a user-graph edge.
  NgramGraph BuildDocGraph(const std::vector<std::string>& doc) const;

  /// User graph: document graphs folded in chronological order with the
  /// update operator (running average of edge weights). Interns n-grams.
  NgramGraph BuildUserGraph(const std::vector<std::vector<std::string>>& docs);

  /// Similarity under the configured measure.
  double Score(const NgramGraph& user, const NgramGraph& doc) const {
    return GraphScore(config_.similarity, user, doc);
  }

  const GraphConfig& config() const { return config_; }
  size_t vocabulary_size() const { return vocab_.size(); }

  /// Interned n-gram terms, exposed for snapshot persistence (the
  /// serialization itself lives in the rec layer).
  const text::Vocabulary& vocabulary() const { return vocab_; }

  /// Rebuilds the vocabulary from a persisted term list on a freshly
  /// constructed modeler (graph edge keys reference these term ids).
  void RestoreVocabulary(const std::vector<std::string>& terms);

 private:
  GraphConfig config_;
  text::Vocabulary vocab_;
};

}  // namespace microrec::graph

#endif  // MICROREC_GRAPH_GRAPH_MODEL_H_
