// The bag (vector-space) representation models TN and CN (Section 3.2).
//
// Lifecycle per (user, representation source):
//   1. Fit()             — learn the vocabulary and document frequencies
//                          from the user's training documents;
//   2. BuildUserVector() — aggregate training-document vectors into the
//                          user model (sum / centroid / Rocchio) in one
//                          document-order fold over the dense local ids;
//   3. EmbedDocument() + Score() — embed each test tweet and rank by
//                          similarity to the user model.
//
// The modeler sees documents only as gram-id sequences (GramDoc) in a
// dictionary someone else owns: for corpus tweets the one built per corpus
// by rec::PreprocessedCorpus::Grams, for other documents one the caller
// featurizes into with GramIds(). Its vocabulary (IdVocabulary) maps those
// dictionary ids to local ids in order of first appearance, so vectors,
// document frequencies and scores are the ones string interning gave.
//
// Fit() and BuildUserVector() intern and are not thread-safe. Scoring only
// reads the modeler: EmbedDocument() numbers a candidate's unseen n-grams
// above the vocabulary instead of interning them, so the set-based
// similarities (JS, GJS) still see the correct union size and concurrent
// scoring is safe.
#ifndef MICROREC_BAG_BAG_MODEL_H_
#define MICROREC_BAG_BAG_MODEL_H_

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bag/bag_config.h"
#include "bag/sparse_vector.h"
#include "text/vocabulary.h"
#include "util/flat_map.h"

namespace microrec::bag {

/// A training or test document a caller assembles, already pre-processed:
/// lower-cased, squeezed, stop-filtered tokens, as views of strings the
/// caller keeps. Character n-grams are extracted from the tokens joined with
/// single spaces, so both TN and CN see exactly the same pre-processing
/// (Section 4).
using TokenDoc = std::vector<std::string_view>;

/// A document as its n-gram ids in a dictionary, in document order.
using GramDoc = std::span<const TermId>;

/// The n-gram ids of `doc` in `*dictionary`, interning grams it has not
/// seen: the one place the bag and graph models turn strings into ids.
std::vector<TermId> GramIds(std::span<const std::string_view> doc,
                            NgramKind kind, int n,
                            text::Vocabulary* dictionary);

/// The vocabulary of one modeler over dictionary gram ids: each gram it
/// has seen has a dense local id, assigned in order of first appearance.
/// Holds no strings.
class IdVocabulary {
 public:
  /// The local id of dictionary gram `gram`, assigned on first sight. No
  /// dictionary holds kInvalidTerm: it is not stored, and returned as is.
  TermId Intern(TermId gram);

  /// Interns every gram of `doc`, writing their local ids to `*ids`.
  void InternAll(GramDoc doc, std::vector<TermId>* ids);

  /// The dictionary gram of every local id, in local-id order.
  const std::vector<TermId>& grams() const { return grams_; }

  size_t size() const { return grams_.size(); }

  /// The local id of dictionary gram `gram`; kInvalidTerm when unseen.
  TermId Find(TermId gram) const {
    const TermId* local = locals_.Find(gram);
    return local != nullptr ? *local : text::kInvalidTerm;
  }

  /// Whether any of `doc`'s grams has a local id.
  bool ContainsAny(GramDoc doc) const;

  /// Writes the local ids of `doc`'s grams to `*ids` without interning. An
  /// unseen gram gets an id above the vocabulary, numbered by first
  /// appearance in `doc`: the id Intern() would assign it, so scores match
  /// a freshly built or loaded model's.
  void Translate(GramDoc doc, std::vector<TermId>* ids) const;

 private:
  FlatMap<TermId, TermId> locals_;  // dictionary gram -> local id
  std::vector<TermId> grams_;       // local id -> dictionary gram
};

/// TN / CN modeler for a single user.
class BagModeler {
 public:
  explicit BagModeler(const BagConfig& config) : config_(config) {}

  /// Learns vocabulary + document frequencies from the train documents: a
  /// term's df counts the documents it occurs in, once per document.
  void Fit(const std::vector<GramDoc>& docs);

  /// Embeds one document with the configured weighting scheme. IDF uses the
  /// fitted document frequencies; unseen terms receive df = 0 (max IDF).
  SparseVector EmbedDocument(GramDoc doc) const;

  /// Aggregates the training documents into the user model. `positive`
  /// must parallel `docs` and is consulted only by Rocchio. Interns grams
  /// the vocabulary has not seen (the hashtag and followee recommenders
  /// aggregate documents they never fitted).
  /// Sums weight x factor per local id in document order (factor 1 for
  /// sum, 1/|d| for centroid and Rocchio, which skip |d| = 0), then scales
  /// once: the bits of adding one document at a time with AddScaled.
  SparseVector BuildUserVector(const std::vector<GramDoc>& docs,
                               const std::vector<bool>& positive);

  /// Similarity of a user model and a document model under the configured
  /// measure. Symmetric.
  double Score(const SparseVector& user, const SparseVector& doc) const {
    return Kernel(user, user.Magnitude(), doc).value_or(0.0);
  }

  /// The similarity kernel behind Score(), given the profile's magnitude:
  /// it walks `doc` and looks each term up in `profile`, adding the same
  /// terms in the same ascending-id order as the SparseVector merges, so
  /// the bits match them. std::nullopt when the supports are disjoint,
  /// where every measure is exactly 0; GJS then skips its merge.
  std::optional<double> Kernel(const SparseVector& profile,
                               double profile_magnitude,
                               const SparseVector& doc) const;

  /// EmbedDocument() then Kernel(), except that a document none of whose
  /// grams the vocabulary has seen is disjoint from the profile by
  /// construction: std::nullopt without weighing it.
  std::optional<double> ScoreDocument(const SparseVector& profile,
                                      double profile_magnitude,
                                      GramDoc doc) const;

  const BagConfig& config() const { return config_; }
  size_t vocabulary_size() const { return vocab_.size(); }
  size_t num_train_docs() const { return num_train_docs_; }

  /// Fitted state, exposed for snapshot persistence (the serialization
  /// itself lives in the rec layer). `doc_frequencies` may be shorter than
  /// the vocabulary: terms past its end have df 0.
  const IdVocabulary& vocabulary() const { return vocab_; }
  const std::vector<uint32_t>& doc_frequencies() const { return df_; }

  /// Restores the fitted state captured by the accessors above into a
  /// freshly constructed modeler, replacing Fit().
  void RestoreFitted(IdVocabulary vocab, std::vector<uint32_t> df,
                     size_t num_train_docs);

 private:
  /// The weighted vector of a document's local term ids.
  SparseVector Weigh(const std::vector<TermId>& terms) const;

  BagConfig config_;
  IdVocabulary vocab_;
  std::vector<uint32_t> df_;  // document frequency per fitted term id
  size_t num_train_docs_ = 0;
};

}  // namespace microrec::bag

#endif  // MICROREC_BAG_BAG_MODEL_H_
