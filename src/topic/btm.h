// Biterm Topic Model (Yan et al. 2013, Cheng et al. 2014): models the
// generation of *biterms* — unordered word pairs co-occurring within a
// context window — over the whole corpus, which sidesteps the sparsity of
// short documents (challenge C1). Documents have no generative role; their
// topic distributions are inferred as P(z|d) = Σ_b P(z|b) P(b|d).
#ifndef MICROREC_TOPIC_BTM_H_
#define MICROREC_TOPIC_BTM_H_

#include <string>
#include <utility>
#include <vector>

#include "topic/parallel_gibbs.h"
#include "topic/topic_model.h"

namespace microrec::topic {

/// BTM hyperparameters (Table 4): |Z| ∈ {50,100,150,200}, alpha = 50/|Z|,
/// beta = 0.01, 1,000 iterations, context window r = 30 for pooled
/// pseudo-documents; for individual tweets the window is the whole tweet.
struct BtmConfig {
  size_t num_topics = 50;
  double alpha = -1.0;  // < 0 -> 50 / |Z|
  double beta = 0.01;
  int train_iterations = 1000;
  /// Max distance between the two words of a biterm; <= 0 means unbounded
  /// (whole document).
  int window = 30;
  /// Sharded-training parallelism (parallel_gibbs.h); default sequential.
  /// BTM shards the flat biterm list rather than documents.
  TrainOptions train;
  /// Optional deadline / cancellation checked between sweeps (not owned).
  const resilience::CancelContext* cancel = nullptr;

  double ResolvedAlpha() const {
    return alpha >= 0.0 ? alpha : 50.0 / static_cast<double>(num_topics);
  }
};

/// Collapsed-Gibbs BTM.
class Btm : public TopicModel {
 public:
  explicit Btm(const BtmConfig& config) : config_(config) {}

  Status Train(const DocSet& docs, Rng* rng) override;
  size_t num_topics() const override { return config_.num_topics; }
  size_t vocab_size() const override { return phi_.vocab_size(); }
  /// Infers P(z|d) by iterating the document's biterms — no Gibbs sampling
  /// at test time, which is why BTM has the lowest ETime (Section 5).
  std::vector<double> InferDocument(const std::vector<TermId>& words,
                                    Rng* rng) const override;
  std::string name() const override { return "BTM"; }

  const BtmConfig& config() const { return config_; }
  size_t num_train_biterms() const { return num_train_biterms_; }

  double TopicWordProb(size_t topic, TermId word) const override {
    return phi_.TopicWordProb(topic, word);
  }

  /// Extracts the biterms of a word sequence under window `window`
  /// (<= 0: unbounded). Exposed for tests.
  static std::vector<std::pair<TermId, TermId>> ExtractBiterms(
      const std::vector<TermId>& words, int window);

  void SaveState(snapshot::Encoder* enc) const override;
  Status LoadState(snapshot::Decoder* dec) override;

 private:
  BtmConfig config_;
  FlatPhi phi_;
  std::vector<double> theta_;  // corpus-level topic distribution
  size_t num_train_biterms_ = 0;
};

}  // namespace microrec::topic

#endif  // MICROREC_TOPIC_BTM_H_
