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

/// Serialization of the flat [topic * vocab + word] φ matrix shared by the
/// parametric samplers (LDA, LLDA, PLSA, BTM) and HDP: dimensions first,
/// then the row-major cells. LoadFlatPhi rejects a cell count that does not
/// match the dimensions (a spliced or bit-flipped length field) before the
/// caller adopts anything.
void SaveFlatPhi(snapshot::Encoder* enc, size_t vocab_size, size_t num_topics,
                 const std::vector<double>& phi);
Status LoadFlatPhi(snapshot::Decoder* dec, const char* model,
                   size_t* vocab_size, size_t* num_topics,
                   std::vector<double>* phi);

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
