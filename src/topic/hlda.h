// Hierarchical LDA (Blei et al. 2003): topics arranged in an L-level tree
// drawn from a nested Chinese Restaurant Process. Every document is a
// root-to-leaf path plus a distribution over the L levels of that path; the
// branching factor is nonparametric (inferred), the depth is fixed
// (3 levels in the paper's configuration, Table 4).
//
// HLDA is sequential by design and does not take topic::TrainOptions: each
// sweep resamples whole document paths through a shared nCRP tree whose
// nodes are created and garbage-collected mid-sweep. The sharded training
// driver (parallel_gibbs.h) assumes fixed-shape count tables that can be
// replicated and delta-merged; a mutable tree shared across shards would
// race on structure, not just counts.
#ifndef MICROREC_TOPIC_HLDA_H_
#define MICROREC_TOPIC_HLDA_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "topic/topic_model.h"

namespace microrec::topic {

/// HLDA hyperparameters (Table 4): levels = 3, alpha ∈ {10, 20},
/// beta ∈ {0.1, 0.5}, gamma ∈ {0.5, 1.0}.
struct HldaConfig {
  int levels = 3;
  /// Dirichlet prior over the levels of a document's path.
  double alpha = 10.0;
  /// Dirichlet prior on node-word distributions.
  double beta = 0.1;
  /// nCRP concentration: the propensity to open new branches.
  double gamma = 1.0;
  int train_iterations = 200;
  /// Optional deadline / cancellation checked between sweeps (not owned).
  const resilience::CancelContext* cancel = nullptr;
};

/// Collapsed Gibbs nCRP sampler.
///
/// After training, the tree is frozen; num_topics() equals the number of
/// surviving nodes, and a document's representation is a distribution over
/// nodes with mass only on its (MAP) path — which is why HLDA inference is
/// the most expensive of all models (Section 5, ETime). Fold-in is
/// GibbsFoldIn over the L levels of that path with prior α per level.
class Hlda : public TopicModel {
 public:
  explicit Hlda(const HldaConfig& config) : config_(config) {}

  Status Train(const DocSet& docs, Rng* rng) override;
  size_t num_topics() const override { return node_words_.size(); }
  size_t vocab_size() const override { return vocab_size_; }
  std::vector<double> InferDocument(const std::vector<TermId>& words,
                                    Rng* rng) const override;
  std::string name() const override { return "HLDA"; }

  const HldaConfig& config() const { return config_; }
  /// Number of leaves (= distinct root-to-leaf paths) after training.
  size_t num_paths() const { return paths_.size(); }

  /// Smoothed Dirichlet-multinomial estimate from the node's counts.
  double TopicWordProb(size_t topic, TermId word) const override;

  /// Persists the frozen tree: per-node word counts (serialized sorted by
  /// TermId for byte determinism), node totals, every root-to-leaf path
  /// and its document count.
  void SaveState(snapshot::Encoder* enc) const override;
  Status LoadState(snapshot::Decoder* dec) override;

 private:
  HldaConfig config_;
  size_t vocab_size_ = 0;
  bool trained_ = false;

  // Frozen tree: per-node smoothed word log-probabilities are implicit in
  // (counts, totals); paths_ holds every root-to-leaf node-id sequence and
  // path_docs_ the number of training documents that used it (CRP prior).
  std::vector<std::unordered_map<TermId, uint32_t>> node_words_;
  std::vector<uint32_t> node_totals_;
  std::vector<std::vector<uint32_t>> paths_;
  std::vector<uint32_t> path_docs_;
};

}  // namespace microrec::topic

#endif  // MICROREC_TOPIC_HLDA_H_
