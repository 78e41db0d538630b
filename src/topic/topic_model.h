// Common interface of the context-agnostic (topic) representation models
// (Section 3): PLSA, LDA, LLDA, HDP, HLDA and BTM.
//
// Usage in the recommendation pipeline (Section 4): a single model is
// trained per representation source on the pooled training documents of all
// users; the per-tweet topic distributions inferred from it are then
// aggregated into user models (centroid / Rocchio) and compared to test
// tweets with cosine similarity.
#ifndef MICROREC_TOPIC_TOPIC_MODEL_H_
#define MICROREC_TOPIC_TOPIC_MODEL_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "resilience/deadline.h"
#include "snapshot/format.h"
#include "topic/doc_set.h"
#include "util/rng.h"
#include "util/status.h"

namespace microrec::topic {

/// Abstract topic model. Train() must be called exactly once, before any
/// InferDocument(). Implementations are deterministic given the Rng seed.
class TopicModel {
 public:
  virtual ~TopicModel() = default;

  /// Fits the model to the training corpus.
  virtual Status Train(const DocSet& docs, Rng* rng) = 0;

  /// Number of topics after training. For nonparametric models (HDP, HLDA)
  /// this is only known post-training.
  virtual size_t num_topics() const = 0;

  /// Number of words the trained (or restored) model spans: the word ids
  /// InferDocument() accepts are [0, vocab_size()).
  virtual size_t vocab_size() const = 0;

  /// Infers the topic distribution θ_d of an unseen document given as
  /// word ids over the training vocabulary (DocSet::Lookup maps a
  /// document's gram ids to them, dropping unseen grams). Returns a
  /// probability vector of length num_topics(); an empty document yields a
  /// uniform distribution.
  virtual std::vector<double> InferDocument(const std::vector<TermId>& words,
                                            Rng* rng) const = 0;

  /// Model display name ("LDA", "BTM", ...).
  virtual std::string name() const = 0;

  /// Smoothed probability of `word` under topic `topic` (φ_z,w). Valid
  /// after Train(); topics index [0, num_topics()).
  virtual double TopicWordProb(size_t topic, TermId word) const = 0;

  /// Serializes the trained posterior (φ and any model-specific state —
  /// HDP stick weights, the HLDA tree) into a snapshot section payload.
  /// Valid only after a successful Train().
  virtual void SaveState(snapshot::Encoder* enc) const = 0;

  /// Restores state written by SaveState() into a model constructed with
  /// the *same* configuration; afterwards InferDocument() behaves exactly
  /// as on the instance that trained. Structural damage and configuration
  /// mismatches yield non-OK (the decoder carries file offsets).
  /// Nonparametric dimensions (HDP topic count, LLDA label count) are
  /// adopted from the persisted state.
  virtual Status LoadState(snapshot::Decoder* dec) = 0;
};

/// The frozen φ of the parametric samplers (LDA, LLDA, PLSA, BTM) and HDP:
/// a row-major [topic * vocab + word] matrix. Empty until the model's
/// Train() or LoadState() fills it, and a model is trained exactly when its
/// FlatPhi is non-empty.
class FlatPhi {
 public:
  /// Sizes the matrix to `num_topics` rows of `vocab_size` zero cells.
  void Assign(size_t num_topics, size_t vocab_size);
  /// Adopts `cells`, `num_topics` rows of `vocab_size` (PLSA's estimate).
  void Adopt(size_t num_topics, size_t vocab_size, std::vector<double> cells);
  /// Sets row `topic` to the smoothed estimate (counts[w] + beta) / denom.
  void SetRow(size_t topic, const uint32_t* counts, double beta,
              double denom);

  bool empty() const { return cells_.empty(); }
  size_t num_topics() const { return num_topics_; }
  size_t vocab_size() const { return vocab_size_; }
  /// φ_topic,word; 0 while empty.
  double TopicWordProb(size_t topic, TermId word) const {
    return cells_.empty() ? 0.0 : cells_[topic * vocab_size_ + word];
  }
  /// The fold-in table of `words`: φ_k,w_i at [i * num_topics() + k].
  std::vector<double> TokenProbs(const std::vector<TermId>& words) const;

  /// Snapshot layout: vocabulary size, topic count, then the cells. Load
  /// rejects a cell count that does not match the dimensions (a spliced or
  /// bit-flipped length field) and changes nothing when it fails; models
  /// load into a fresh FlatPhi and adopt it after their own checks pass.
  void Save(snapshot::Encoder* enc) const;
  Status Load(snapshot::Decoder* dec, const char* model);
  /// FailedPrecondition unless φ has `num_topics` topics: a loaded snapshot
  /// trained under another configuration.
  Status ExpectTopics(const char* model, size_t num_topics) const;

 private:
  size_t num_topics_ = 0;
  size_t vocab_size_ = 0;
  std::vector<double> cells_;
};

/// Fold-in length: the Gibbs sweeps of GibbsFoldIn, and PLSA's folding-in
/// EM steps.
inline constexpr int kFoldInIterations = 20;

/// The collapsed-Gibbs fold-in of LDA, LLDA, HDP and HLDA: infers θ of one
/// unseen document of N tokens against frozen word probabilities
/// `token_probs` (φ_k,w_i at [i * K + k], with K = prior.size() > 0).
/// Draws every token's initial topic uniformly from [0, K), runs
/// kFoldInIterations sweeps that redraw token i from
/// (n_k + prior_k) · φ_k,w_i, and returns θ_k = (n_k + prior_k) /
/// (N + prior_mass). `prior_mass` is the caller's Σ prior_k, passed rather
/// than re-summed: K·α and a K-term sum differ in their last bits.
std::vector<double> GibbsFoldIn(const std::vector<double>& prior,
                                double prior_mass,
                                const std::vector<double>& token_probs,
                                Rng* rng);

/// True when the summed mass of `weights` is finite — the cheap one-pass
/// health check the samplers run once per sweep on their posterior scratch
/// (a single NaN or infinity poisons the sum).
bool FinitePosteriorMass(const double* weights, size_t n);

/// Validates sampler hyperparameters at Train() entry: alpha and beta must
/// be finite, alpha >= 0, and beta > 0 (a zero beta collapses the smoothing
/// denominators); `gamma` (concentration, where the model has one) must be
/// finite and > 0.
Status ValidateHyperparameters(const char* model, double alpha, double beta,
                               double gamma = 1.0);

/// Per-sweep resilience hook shared by all samplers: fires the
/// `topic.gibbs.sweep` fault site, honors an optional cancel context
/// (deadline / cancellation between sweeps), and — when `weights` is
/// non-null — flags a non-finite posterior from the previous sweep as an
/// Internal error.
Status GuardSweep(const char* model, int sweep,
                  const resilience::CancelContext* cancel,
                  const double* weights, size_t n);

/// The mass-validation half of GuardSweep, without the fault point or the
/// cancel check. The samplers call this once after their final sweep,
/// before freezing φ — GuardSweep only ever sees the *previous* iteration's
/// weights, so without this the last sweep's output went unchecked.
/// Deliberately not a fault site: adding one would shift the
/// `topic.gibbs.sweep` trigger cadence the chaos tests pin down.
Status CheckPosteriorMass(const char* model, int sweep, const double* weights,
                          size_t n);

/// kInternal when `draws` > 0: the sweep absorbed that many degenerate-mass
/// categorical draws (Rng::DegenerateFallback). The fallback keeps release
/// builds memory-safe; this guard keeps them statistically honest — a
/// sampler that hit it was drawing from a corrupt posterior row, and the
/// result must not be silently used.
Status GuardDegenerateDraws(const char* model, int sweep, uint64_t draws);

/// Decrements a u32 topic count unless it is already zero, which would wrap
/// to 2^32-1 and poison every posterior weight that divides by it
/// (reachable from corrupted fold-in / snapshot-restore state). Asserts in
/// debug builds; callers accumulate the result and surface kDataLoss.
inline bool GuardedDecrement(uint32_t* count) {
  assert(*count > 0);
  if (*count == 0) return false;
  --*count;
  return true;
}

/// The kDataLoss status for a sweep whose GuardedDecrement flag went false.
Status CountUnderflowError(const char* model, int sweep);

/// Held-out perplexity of a document set under a trained model:
/// exp(-Σ_d Σ_w log Σ_z θ_d,z φ_z,w / N). Lower is better. Standard topic-
/// model diagnostic (Blei et al. 2003); exposed for the ablation benches
/// and tests. Words outside the training vocabulary must be filtered by
/// the caller (DocSet::Lookup drops the grams it has not seen).
double Perplexity(const TopicModel& model,
                  const std::vector<std::vector<TermId>>& docs, Rng* rng);

/// Cosine similarity between two topic distributions (the ranking measure
/// used for all topic models, Section 3.2).
double TopicCosine(const std::vector<double>& a, const std::vector<double>& b);

/// Aggregates per-tweet distributions into a user model.
/// With `rocchio` false: centroid of the distributions (positives and
/// negatives alike are averaged — matching the centroid aggregation).
/// With `rocchio` true: alpha/|P| Σ_pos − beta/|N| Σ_neg over L2-normalised
/// distributions.
std::vector<double> AggregateDistributions(
    const std::vector<std::vector<double>>& dists,
    const std::vector<bool>& positive, bool rocchio, double alpha = 0.8,
    double beta = 0.2);

}  // namespace microrec::topic

#endif  // MICROREC_TOPIC_TOPIC_MODEL_H_
