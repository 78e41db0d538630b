// Latent Dirichlet Allocation (Blei, Ng, Jordan 2003), trained with the
// collapsed Gibbs sampler of Griffiths & Steyvers (2004) — the estimation
// method the paper uses for all topic models except PLSA (Section 3.2).
#ifndef MICROREC_TOPIC_LDA_H_
#define MICROREC_TOPIC_LDA_H_

#include <string>
#include <vector>

#include "topic/parallel_gibbs.h"
#include "topic/topic_model.h"

namespace microrec::topic {

/// LDA hyperparameters. The paper's configurations (Table 4) use
/// |Z| ∈ {50,100,150,200}, alpha = 50/|Z|, beta = 0.01 and
/// 1,000 / 2,000 iterations.
struct LdaConfig {
  size_t num_topics = 50;
  /// Dirichlet prior on document-topic distributions; < 0 means 50/|Z|.
  double alpha = -1.0;
  /// Dirichlet prior on topic-word distributions.
  double beta = 0.01;
  int train_iterations = 1000;
  /// Fold-in Gibbs sweeps when inferring an unseen document.
  int infer_iterations = 20;
  /// Sharded-training parallelism (parallel_gibbs.h). The default is the
  /// sequential sampler, bit-identical to all previous releases.
  TrainOptions train;
  /// Optional deadline / cancellation checked between sweeps (not owned).
  const resilience::CancelContext* cancel = nullptr;

  double ResolvedAlpha() const {
    return alpha >= 0.0 ? alpha : 50.0 / static_cast<double>(num_topics);
  }
};

/// Collapsed-Gibbs LDA.
class Lda : public TopicModel {
 public:
  explicit Lda(const LdaConfig& config) : config_(config) {}

  Status Train(const DocSet& docs, Rng* rng) override;
  size_t num_topics() const override { return config_.num_topics; }
  size_t vocab_size() const override { return vocab_size_; }
  std::vector<double> InferDocument(const std::vector<TermId>& words,
                                    Rng* rng) const override;
  std::string name() const override { return "LDA"; }

  /// φ_z: the word distribution of topic z (available after Train).
  std::vector<double> TopicWordDistribution(size_t z) const;

  double TopicWordProb(size_t topic, TermId word) const override {
    return trained_ ? phi_[topic * vocab_size_ + word] : 0.0;
  }

  const LdaConfig& config() const { return config_; }

  void SaveState(snapshot::Encoder* enc) const override;
  Status LoadState(snapshot::Decoder* dec) override;

 private:
  LdaConfig config_;
  size_t vocab_size_ = 0;
  // φ flattened as [topic * vocab + word], estimated from the final sample.
  std::vector<double> phi_;
  bool trained_ = false;
};

}  // namespace microrec::topic

#endif  // MICROREC_TOPIC_LDA_H_
