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
  /// Sharded-training parallelism (parallel_gibbs.h). The default is the
  /// sequential sampler, bit-identical to all previous releases.
  TrainOptions train;
  /// Optional deadline / cancellation checked between sweeps (not owned).
  const resilience::CancelContext* cancel = nullptr;

  double ResolvedAlpha() const {
    return alpha >= 0.0 ? alpha : 50.0 / static_cast<double>(num_topics);
  }
};

/// Collapsed-Gibbs LDA. Fold-in runs kFoldInIterations sweeps of
/// GibbsFoldIn with prior α on every topic.
class Lda : public TopicModel {
 public:
  explicit Lda(const LdaConfig& config) : config_(config) {}

  Status Train(const DocSet& docs, Rng* rng) override;
  size_t num_topics() const override { return config_.num_topics; }
  size_t vocab_size() const override { return phi_.vocab_size(); }
  std::vector<double> InferDocument(const std::vector<TermId>& words,
                                    Rng* rng) const override;
  std::string name() const override { return "LDA"; }

  /// φ_z: the word distribution of topic z (available after Train).
  std::vector<double> TopicWordDistribution(size_t z) const;

  double TopicWordProb(size_t topic, TermId word) const override {
    return phi_.TopicWordProb(topic, word);
  }

  const LdaConfig& config() const { return config_; }

  void SaveState(snapshot::Encoder* enc) const override;
  Status LoadState(snapshot::Decoder* dec) override;

 private:
  LdaConfig config_;
  FlatPhi phi_;  // estimated from the final sample
};

/// The collapsed-Gibbs training body of LDA and of LLDA, which is LDA with
/// an allowed-topic menu per document. Flattens `docs`, draws each token's
/// initial topic uniformly from its document's menu (from [0, num_topics)
/// when `menus` is null, as for LDA), trains `iterations` sweeps through
/// RunGibbs with `options.sampler_kernel`'s document sweeper, timing each
/// into histogram `sweep_metric`, and sets `phi` from the final counts.
/// `latent_begin` is the first latent topic (0 for LDA, the label count for
/// LLDA).
Status TrainDocGibbs(const char* model, const DocSet& docs, size_t num_topics,
                     double alpha, double beta, int iterations,
                     const TrainOptions& options,
                     const resilience::CancelContext* cancel,
                     const std::vector<std::vector<uint32_t>>* menus,
                     size_t latent_begin, const char* sweep_metric, Rng* rng,
                     FlatPhi* phi);

}  // namespace microrec::topic

#endif  // MICROREC_TOPIC_LDA_H_
