// N-gram graphs (Giannakopoulos et al.): the global context-aware
// representation models of the taxonomy (Section 3.1). A document is an
// undirected graph with one vertex per n-gram and an edge between every two
// n-grams co-occurring within a window of size n; edge weights count
// co-occurrences. Every graph (document, user, persisted row) holds its edge
// keys sorted ascending and unique, next to their weights, and one builder
// makes them all: collect the co-occurrence keys, sort, count runs. A user
// graph's `update` weights are each edge's mean over the user's documents.
#ifndef MICROREC_GRAPH_NGRAM_GRAPH_H_
#define MICROREC_GRAPH_NGRAM_GRAPH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "text/vocabulary.h"

namespace microrec::graph {

using text::TermId;

/// Canonical undirected edge key packing the two (sorted) term ids.
inline uint64_t EdgeKey(TermId a, TermId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

/// Weighted undirected graph over n-gram vertices.
class NgramGraph {
 public:
  NgramGraph() = default;

  /// Adopts strictly ascending edge keys and one weight per key.
  NgramGraph(std::vector<uint64_t> keys, std::vector<double> weights)
      : keys_(std::move(keys)), weights_(std::move(weights)) {}

  /// The builder: sorts `keys`, one per co-occurrence in any order, and
  /// gives each distinct key the weight count / `divisor`. A divisor of 1
  /// sums document graphs; the number of documents averages them.
  static NgramGraph FromKeys(std::vector<uint64_t> keys, size_t divisor = 1);

  /// Appends the key of every co-occurrence of an n-gram (term id) sequence
  /// with window `window`: position i links to positions i+1 .. i+window.
  static void AppendCooccurrences(const std::vector<TermId>& ngrams,
                                  int window, std::vector<uint64_t>* keys);

  /// The document graph of an n-gram sequence, from its co-occurrences.
  static NgramGraph FromSequence(const std::vector<TermId>& ngrams,
                                 int window);

  /// Number of edges (|G| in the similarity formulas).
  size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }

  const std::vector<uint64_t>& keys() const { return keys_; }
  const std::vector<double>& weights() const { return weights_; }

  /// Weight of edge (a, b); 0 when absent.
  double WeightOf(TermId a, TermId b) const;

 private:
  std::vector<uint64_t> keys_;  // ascending, unique
  std::vector<double> weights_;
};

/// Graph similarity measures of Section 3.2.
enum class GraphSimilarity { kContainment, kValue, kNormalizedValue };

const char* GraphSimilarityName(GraphSimilarity s);

/// Containment similarity: fraction of the smaller graph's edges present in
/// the other graph.
double ContainmentSimilarity(const NgramGraph& a, const NgramGraph& b);

/// Value similarity: Σ_e min(w_a,w_b)/max(w_a,w_b) over shared edges,
/// normalised by max(|a|,|b|).
double ValueSimilarity(const NgramGraph& a, const NgramGraph& b);

/// Normalized value similarity: as VS but normalised by min(|a|,|b|),
/// mitigating imbalanced graph sizes.
double NormalizedValueSimilarity(const NgramGraph& a, const NgramGraph& b);

/// Dispatch on the enum.
double GraphScore(GraphSimilarity similarity, const NgramGraph& a,
                  const NgramGraph& b);

}  // namespace microrec::graph

#endif  // MICROREC_GRAPH_NGRAM_GRAPH_H_
