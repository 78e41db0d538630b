// Labeled LDA (Ramage et al. 2009): a supervised LDA variant where each
// document's topics are constrained to its observed labels plus a set of
// shared latent topics (Ramage, Dumais & Liebling 2010 — the "Topic 1..|Z|"
// extension the paper follows).
//
// Label ids are assigned by the caller (see rec/llda_labels.h, which
// implements the paper's label scheme: frequent hashtags, the question
// mark, emoticon families with 10 variations, and @user).
#ifndef MICROREC_TOPIC_LLDA_H_
#define MICROREC_TOPIC_LLDA_H_

#include <string>
#include <vector>

#include "topic/lda.h"
#include "topic/parallel_gibbs.h"
#include "topic/topic_model.h"

namespace microrec::topic {

/// LLDA hyperparameters (Table 4): latent topics ∈ {50,100,150,200},
/// alpha = 50/#Topics, beta = 0.01, 1,000 / 2,000 iterations.
struct LldaConfig {
  /// Number of distinct observed label ids across the corpus. Documents
  /// reference labels as ids in [0, num_labels).
  size_t num_labels = 0;
  /// Latent topics shared by every document.
  size_t num_latent_topics = 50;
  double alpha = -1.0;  // < 0 -> 50 / num_latent_topics
  double beta = 0.01;
  int train_iterations = 1000;
  /// Sharded-training parallelism (parallel_gibbs.h); default sequential.
  TrainOptions train;
  /// Optional deadline / cancellation checked between sweeps (not owned).
  const resilience::CancelContext* cancel = nullptr;

  size_t TotalTopics() const { return num_labels + num_latent_topics; }
  double ResolvedAlpha() const {
    return alpha >= 0.0 ? alpha
                        : 50.0 / static_cast<double>(num_latent_topics);
  }
};

/// Collapsed-Gibbs Labeled LDA, trained through LDA's TrainDocGibbs with
/// one topic menu per document. Topic ids [0, num_labels) mirror label ids;
/// ids [num_labels, num_labels + num_latent_topics) are latent.
class Llda : public TopicModel {
 public:
  explicit Llda(const LldaConfig& config) : config_(config) {}

  Status Train(const DocSet& docs, Rng* rng) override;
  size_t num_topics() const override { return config_.TotalTopics(); }
  size_t vocab_size() const override { return phi_.vocab_size(); }
  /// Inference is unconstrained: an unseen document may use any topic. It
  /// is LDA's fold-in, GibbsFoldIn with prior α on every topic.
  std::vector<double> InferDocument(const std::vector<TermId>& words,
                                    Rng* rng) const override;
  std::string name() const override { return "LLDA"; }

  const LldaConfig& config() const { return config_; }

  double TopicWordProb(size_t topic, TermId word) const override {
    return phi_.TopicWordProb(topic, word);
  }

  /// LoadState adopts the persisted label count into the configuration
  /// (num_labels is derived from the training corpus, which a warm-started
  /// engine never sees); the latent-topic count must match.
  void SaveState(snapshot::Encoder* enc) const override;
  Status LoadState(snapshot::Decoder* dec) override;

 private:
  LldaConfig config_;
  FlatPhi phi_;
};

}  // namespace microrec::topic

#endif  // MICROREC_TOPIC_LLDA_H_
