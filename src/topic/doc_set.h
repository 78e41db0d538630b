// Training input for topic models: pooled pseudo-documents converted to
// word-id sequences over a shared topic vocabulary, with optional per-doc
// observed labels (Labeled LDA). Documents arrive as gram ids of a
// dictionary someone else owns (for corpus tweets, the (token, 1)
// rec::GramTable); the vocabulary numbers them by first appearance and
// holds no strings.
#ifndef MICROREC_TOPIC_DOC_SET_H_
#define MICROREC_TOPIC_DOC_SET_H_

#include <utility>
#include <vector>

#include "bag/bag_model.h"

namespace microrec::topic {

using text::TermId;

/// One training document: its word ids, plus the observed label ids that
/// Labeled LDA may constrain its topics to (empty for other models).
struct TopicDoc {
  std::vector<TermId> words;
  std::vector<uint32_t> labels;
};

/// A corpus of word-id documents and the vocabulary they index into.
class DocSet {
 public:
  DocSet() = default;

  /// A DocSet with no documents over a restored vocabulary: what a
  /// warm-started engine needs for Lookup() (inference) only.
  explicit DocSet(bag::IdVocabulary vocabulary)
      : vocab_(std::move(vocabulary)) {}

  /// Interns the gram ids of one document; returns its index.
  size_t AddDocument(bag::GramDoc grams);

  /// Attaches observed label ids to a document (LLDA).
  void SetLabels(size_t doc_index, std::vector<uint32_t> labels);

  /// The word ids of `grams` under the *existing* vocabulary only; grams
  /// never seen in training are dropped (a topic model cannot explain
  /// unseen words). Used at inference time.
  std::vector<TermId> Lookup(bag::GramDoc grams) const;

  const std::vector<TopicDoc>& docs() const { return docs_; }
  size_t num_docs() const { return docs_.size(); }
  size_t vocab_size() const { return vocab_.size(); }

  /// Total number of word occurrences across all documents.
  size_t total_tokens() const { return total_tokens_; }

  /// The dictionary gram of every word id, in word-id order: what a
  /// snapshot persists so Lookup() works after a warm start.
  const bag::IdVocabulary& vocabulary() const { return vocab_; }

 private:
  bag::IdVocabulary vocab_;
  std::vector<TopicDoc> docs_;
  size_t total_tokens_ = 0;
};

}  // namespace microrec::topic

#endif  // MICROREC_TOPIC_DOC_SET_H_
