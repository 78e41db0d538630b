// One-time pre-processing shared by every model and configuration:
// tokenization, stop-token computation (the most frequent tokens of a stop
// basis; Section 4 drops the top 100), the stop-filtered tokens (views into
// the tokenized ones, in one flat array), and, per (gram kind, n) in use,
// the featurized tweets every model fits and scores on (the topic models on
// the token unigrams).
// Building this once keeps the 223-configuration sweep from re-tokenizing
// 13 sources x 60 users worth of tweets per configuration, and every user
// from re-extracting the n-grams of every candidate.
#ifndef MICROREC_REC_PREPROCESSED_H_
#define MICROREC_REC_PREPROCESSED_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "bag/bag_config.h"
#include "corpus/corpus.h"
#include "corpus/stop_tokens.h"
#include "corpus/tokenized.h"
#include "text/vocabulary.h"
#include "util/thread_pool.h"

namespace microrec::rec {

/// One (gram kind, n)'s featurization of a corpus: each tweet's gram ids, in
/// document order, in one flat array. Ids number the grams of every tweet's
/// Filtered() tokens by first appearance (bag::GramIds); no string is kept.
class GramTable {
 public:
  /// The number of distinct grams: every id lies in [0, size()).
  size_t size() const { return size_; }

  /// snapshot::FingerprintTerms over the grams in id order: the binding a
  /// snapshot, whose rows or vocab section hold these ids, records.
  uint64_t fingerprint() const { return fingerprint_; }

  /// Tweet `id`'s gram ids, in document order.
  std::span<const text::TermId> Of(corpus::TweetId id) const {
    return {ids_.data() + offsets_[id], ids_.data() + offsets_[id + 1]};
  }

 private:
  friend class PreprocessedCorpus;

  size_t size_ = 0;
  uint64_t fingerprint_ = 0;
  std::vector<text::TermId> ids_;
  std::vector<size_t> offsets_;  // tweet t's ids: [offsets_[t], offsets_[t+1])
};

/// Immutable pre-processed view over a corpus.
class PreprocessedCorpus {
 public:
  /// Tokenizes every tweet and derives the stop-token set: the `stop_top_k`
  /// most frequent tokens of the `stop_basis` tweets. Every run passes
  /// eval::StopBasis, every post of every cohort user (test phase
  /// included), through eval::CorpusStack, which defines that rule.
  /// When `stop_basis` is empty the stop filter is empty (ablation mode).
  /// `tokenizer_options` default to the paper's pipeline; the prep ablation
  /// bench toggles letter squeezing through them. Tokenizing and the stop
  /// test run corpus::TokenizedCorpus::kChunkTweets tweets per task on
  /// `pool`, or, when it is null, on a pool of ThreadPool::HardwareThreads()
  /// workers made for the call; the stop tokens are counted, and the
  /// results assembled, on the calling thread. Every token and the stop set
  /// are the same at any pool size.
  PreprocessedCorpus(const corpus::Corpus& corpus,
                     const std::vector<corpus::TweetId>& stop_basis,
                     size_t stop_top_k = 100, ThreadPool* pool = nullptr,
                     text::TokenizerOptions tokenizer_options = {});

  const corpus::Corpus& corpus() const { return corpus_; }
  const corpus::TokenizedCorpus& tokenized() const { return tokenized_; }
  const corpus::StopTokenFilter& stop_filter() const { return stop_filter_; }

  /// Stop-filtered tokens of a tweet, as views into tokenized(): what the
  /// gram tables and the followee recommender featurize.
  std::span<const std::string_view> Filtered(corpus::TweetId id) const {
    return {filtered_.data() + filtered_first_[id],
            filtered_.data() + filtered_first_[id + 1]};
  }

  /// The (kind, n) gram table, built on the first request and shared by
  /// every later one. Thread-safe: concurrent first requests build it once.
  /// The build interns tweet after tweet on the calling thread, so ids
  /// follow tweet order and are the same whatever pool the constructor ran
  /// on.
  const GramTable& Grams(bag::NgramKind kind, int n) const;

 private:
  struct GramSlot {
    std::once_flag built;
    GramTable table;
  };

  PreprocessedCorpus(const corpus::Corpus& corpus,
                     const std::vector<corpus::TweetId>& stop_basis,
                     size_t stop_top_k,
                     text::TokenizerOptions tokenizer_options,
                     ThreadPool& pool);

  void BuildGrams(bag::NgramKind kind, int n, GramTable* table) const;

  const corpus::Corpus& corpus_;
  corpus::TokenizedCorpus tokenized_;
  corpus::StopTokenFilter stop_filter_;
  std::vector<std::string_view> filtered_;  // into tokenized_, tweet by tweet
  // Tweet t's filtered tokens: [filtered_first_[t], filtered_first_[t + 1]).
  std::vector<uint32_t> filtered_first_;
  mutable std::mutex grams_mu_;  // guards the map, not the tables
  mutable std::map<std::pair<bag::NgramKind, int>, std::unique_ptr<GramSlot>>
      grams_;
};

}  // namespace microrec::rec

#endif  // MICROREC_REC_PREPROCESSED_H_
