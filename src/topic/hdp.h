// Hierarchical Dirichlet Process topic model (Teh et al. 2006), trained
// with the direct-assignment collapsed Gibbs sampler. Nonparametric: the
// number of topics is inferred, growing when a word is assigned to a fresh
// topic (stick-breaking of the global measure G0) and shrinking when a
// topic loses its last word.
//
// HDP is sequential by design and does not take topic::TrainOptions: the
// sampler creates and retires topics mid-sweep, resizing the shared count
// tables and the stick-breaking weights β. Sharded AD-LDA-style training
// (parallel_gibbs.h) replicates *fixed-shape* count tables per shard and
// delta-merges them at a barrier; concurrent shards disagreeing about which
// topics exist has no meaningful merge. (Parallel HDP samplers exist — e.g.
// split-merge or slice approaches — but they are different algorithms, not
// a sharding of this one.)
#ifndef MICROREC_TOPIC_HDP_H_
#define MICROREC_TOPIC_HDP_H_

#include <string>
#include <vector>

#include "topic/topic_model.h"

namespace microrec::topic {

/// HDP hyperparameters (Table 4): alpha = 1.0, gamma = 1.0,
/// beta ∈ {0.1, 0.5}, 1,000 iterations.
struct HdpConfig {
  /// Concentration of the per-document DP (α in the paper).
  double alpha = 1.0;
  /// Concentration of the global DP (γ).
  double gamma = 1.0;
  /// Dirichlet prior on topic-word distributions (the base measure H).
  double beta = 0.1;
  int train_iterations = 1000;
  /// Safety valve for the topic count (far above typical posterior sizes).
  size_t max_topics = 512;
  /// Optional deadline / cancellation checked between sweeps (not owned).
  const resilience::CancelContext* cancel = nullptr;
};

/// Direct-assignment HDP sampler. Fold-in is GibbsFoldIn over the trained
/// topics with prior α·β_k.
class Hdp : public TopicModel {
 public:
  explicit Hdp(const HdpConfig& config) : config_(config) {}

  Status Train(const DocSet& docs, Rng* rng) override;
  /// Topics instantiated by the posterior sample (known only post-training).
  size_t num_topics() const override { return phi_.num_topics(); }
  size_t vocab_size() const override { return phi_.vocab_size(); }
  std::vector<double> InferDocument(const std::vector<TermId>& words,
                                    Rng* rng) const override;
  std::string name() const override { return "HDP"; }

  const HdpConfig& config() const { return config_; }
  /// Global stick weights β_k of the trained topics (sums to < 1; the
  /// remainder is the mass reserved for unseen topics).
  const std::vector<double>& global_weights() const { return global_b_; }

  double TopicWordProb(size_t topic, TermId word) const override {
    return phi_.TopicWordProb(topic, word);
  }

  /// LoadState adopts the persisted (posterior-sampled) topic count.
  void SaveState(snapshot::Encoder* enc) const override;
  Status LoadState(snapshot::Decoder* dec) override;

 private:
  HdpConfig config_;
  FlatPhi phi_;
  std::vector<double> global_b_;  // per-topic global weight
};

}  // namespace microrec::topic

#endif  // MICROREC_TOPIC_HDP_H_
