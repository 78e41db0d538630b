// Probabilistic Latent Semantic Analysis (Hofmann 1999), trained with
// Expectation-Maximisation. PLSA keeps a full θ_d row for every training
// document — |D|·|Z| parameters — which is exactly why the paper had to
// exclude it: every configuration violated the 32 GB memory constraint on
// their 2.07M-tweet corpus (Section 4). We implement it anyway; the bench
// suite demonstrates the memory blow-up analytically and runs PLSA only at
// reduced scale. See EstimateMemoryBytes().
#ifndef MICROREC_TOPIC_PLSA_H_
#define MICROREC_TOPIC_PLSA_H_

#include <string>
#include <vector>

#include "topic/parallel_gibbs.h"
#include "topic/topic_model.h"

namespace microrec::topic {

/// PLSA hyperparameters.
struct PlsaConfig {
  size_t num_topics = 50;
  int train_iterations = 100;  // EM converges far faster than Gibbs
  /// Sharded-training parallelism (parallel_gibbs.h): the E-step is
  /// data-parallel over documents; the M-step stays sequential.
  TrainOptions train;
  /// Optional deadline / cancellation checked between EM steps (not owned).
  const resilience::CancelContext* cancel = nullptr;
};

/// EM-trained PLSA.
class Plsa : public TopicModel {
 public:
  explicit Plsa(const PlsaConfig& config) : config_(config) {}

  Status Train(const DocSet& docs, Rng* rng) override;
  size_t num_topics() const override { return config_.num_topics; }
  size_t vocab_size() const override { return phi_.vocab_size(); }
  /// Folding-in: kFoldInIterations EM steps over θ_d with φ held fixed.
  std::vector<double> InferDocument(const std::vector<TermId>& words,
                                    Rng* rng) const override;
  std::string name() const override { return "PLSA"; }

  const PlsaConfig& config() const { return config_; }

  double TopicWordProb(size_t topic, TermId word) const override {
    return phi_.TopicWordProb(topic, word);
  }

  /// Memory (bytes) a straightforward EM implementation of PLSA needs for
  /// a corpus of `num_docs` documents with `avg_doc_terms` distinct words
  /// each over a `vocab_size` vocabulary at `num_topics` topics: the θ and
  /// φ parameter matrices (plus M-step accumulators) and the E-step
  /// posterior table P(z|d,w) over every (document, word) pair — the term
  /// that actually blows past the paper's 32 GB constraint. (This
  /// implementation streams the E-step and never materialises the
  /// posterior table, but the estimate reflects the classical layout the
  /// constraint was evaluated against.)
  static size_t EstimateMemoryBytes(size_t num_docs, size_t vocab_size,
                                    size_t num_topics,
                                    size_t avg_doc_terms = 10);

  void SaveState(snapshot::Encoder* enc) const override;
  Status LoadState(snapshot::Decoder* dec) override;

 private:
  PlsaConfig config_;
  FlatPhi phi_;
};

}  // namespace microrec::topic

#endif  // MICROREC_TOPIC_PLSA_H_
