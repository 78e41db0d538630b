#include "graph/ngram_graph.h"

#include <algorithm>

namespace microrec::graph {

NgramGraph NgramGraph::FromKeys(std::vector<uint64_t> keys, size_t divisor) {
  std::sort(keys.begin(), keys.end());
  NgramGraph graph;
  for (size_t i = 0; i < keys.size();) {
    const size_t first = i;
    while (i < keys.size() && keys[i] == keys[first]) ++i;
    graph.keys_.push_back(keys[first]);
    graph.weights_.push_back(static_cast<double>(i - first) /
                             static_cast<double>(divisor));
  }
  return graph;
}

void NgramGraph::AppendCooccurrences(const std::vector<TermId>& ngrams,
                                     int window, std::vector<uint64_t>* keys) {
  for (size_t i = 0; i < ngrams.size(); ++i) {
    size_t last = std::min(ngrams.size(), i + static_cast<size_t>(window) + 1);
    for (size_t j = i + 1; j < last; ++j) {
      keys->push_back(EdgeKey(ngrams[i], ngrams[j]));
    }
  }
}

NgramGraph NgramGraph::FromSequence(const std::vector<TermId>& ngrams,
                                    int window) {
  std::vector<uint64_t> keys;
  AppendCooccurrences(ngrams, window, &keys);
  return FromKeys(std::move(keys));
}

double NgramGraph::WeightOf(TermId a, TermId b) const {
  const uint64_t key = EdgeKey(a, b);
  auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return 0.0;
  return weights_[static_cast<size_t>(it - keys_.begin())];
}

const char* GraphSimilarityName(GraphSimilarity s) {
  switch (s) {
    case GraphSimilarity::kContainment:
      return "CoS";
    case GraphSimilarity::kValue:
      return "VS";
    case GraphSimilarity::kNormalizedValue:
      return "NS";
  }
  return "?";
}

namespace {

// Walks the smaller graph in key order and binary-searches each key in the
// larger one, starting from the previous match; all three measures only
// need the shared-edge set, and VS/NS add their terms in key order.
template <typename Fn>
void ForSharedEdges(const NgramGraph& a, const NgramGraph& b, Fn fn) {
  const NgramGraph& small = a.size() <= b.size() ? a : b;
  const NgramGraph& large = a.size() <= b.size() ? b : a;
  const std::vector<uint64_t>& keys = large.keys();
  auto from = keys.begin();
  for (size_t e = 0; e < small.size() && from != keys.end(); ++e) {
    from = std::lower_bound(from, keys.end(), small.keys()[e]);
    if (from != keys.end() && *from == small.keys()[e]) {
      fn(small.weights()[e],
         large.weights()[static_cast<size_t>(from - keys.begin())]);
    }
  }
}

// Σ min(w_a,w_b)/max(w_a,w_b) over the shared edges: VS and NS differ only
// in how they normalise it.
double WeightRatioSum(const NgramGraph& a, const NgramGraph& b) {
  double total = 0.0;
  ForSharedEdges(a, b, [&total](double wa, double wb) {
    double hi = std::max(wa, wb);
    if (hi > 0.0) total += std::min(wa, wb) / hi;
  });
  return total;
}

}  // namespace

double ContainmentSimilarity(const NgramGraph& a, const NgramGraph& b) {
  if (a.empty() || b.empty()) return 0.0;
  size_t shared = 0;
  ForSharedEdges(a, b, [&shared](double, double) { ++shared; });
  return static_cast<double>(shared) /
         static_cast<double>(std::min(a.size(), b.size()));
}

double ValueSimilarity(const NgramGraph& a, const NgramGraph& b) {
  if (a.empty() || b.empty()) return 0.0;
  return WeightRatioSum(a, b) /
         static_cast<double>(std::max(a.size(), b.size()));
}

double NormalizedValueSimilarity(const NgramGraph& a, const NgramGraph& b) {
  if (a.empty() || b.empty()) return 0.0;
  return WeightRatioSum(a, b) /
         static_cast<double>(std::min(a.size(), b.size()));
}

double GraphScore(GraphSimilarity similarity, const NgramGraph& a,
                  const NgramGraph& b) {
  switch (similarity) {
    case GraphSimilarity::kContainment:
      return ContainmentSimilarity(a, b);
    case GraphSimilarity::kValue:
      return ValueSimilarity(a, b);
    case GraphSimilarity::kNormalizedValue:
      return NormalizedValueSimilarity(a, b);
  }
  return 0.0;
}

}  // namespace microrec::graph
