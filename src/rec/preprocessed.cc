#include "rec/preprocessed.h"

#include <algorithm>

#include "bag/bag_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "resilience/fault.h"
#include "snapshot/format.h"

namespace microrec::rec {

PreprocessedCorpus::PreprocessedCorpus(
    const corpus::Corpus& corpus,
    const std::vector<corpus::TweetId>& stop_basis, size_t stop_top_k,
    ThreadPool* pool, text::TokenizerOptions tokenizer_options)
    // A pool made for a null `pool` lives until the delegated constructor
    // returns.
    : PreprocessedCorpus(corpus, stop_basis, stop_top_k, tokenizer_options,
                         *PoolForCall(pool)) {}

PreprocessedCorpus::PreprocessedCorpus(
    const corpus::Corpus& corpus,
    const std::vector<corpus::TweetId>& stop_basis, size_t stop_top_k,
    text::TokenizerOptions tokenizer_options, ThreadPool& pool)
    : corpus_(corpus),
      tokenized_(corpus, text::Tokenizer(tokenizer_options), &pool),
      stop_filter_(stop_basis.empty()
                       ? corpus::StopTokenFilter()
                       : corpus::StopTokenFilter::FromTopFrequent(
                             tokenized_, stop_basis, stop_top_k)) {
  MICROREC_SPAN("stop_filter");
  // The stop test runs on the pool, one flag per token; the views are then
  // written on the calling thread, in tweet order.
  const size_t num_tweets = corpus.num_tweets();
  const text::TokenList& tokens = tokenized_.tokens();
  std::vector<uint8_t> keep(tokens.size());
  pool.ParallelForShards(
      num_tweets, corpus::TokenizedCorpus::kChunkTweets,
      [&](size_t begin, size_t end) {
        if (resilience::FaultsArmed()) {
          resilience::MaybeThrowFault(resilience::kSitePoolTask);
        }
        for (size_t i = tokenized_.FirstToken(begin);
             i < tokenized_.FirstToken(end); ++i) {
          keep[i] = !stop_filter_.IsStop(tokens[i].text);
        }
      });
  const size_t kept_tokens = std::count(keep.begin(), keep.end(), 1);
  filtered_.reserve(kept_tokens);
  filtered_first_.reserve(num_tweets + 1);
  filtered_first_.push_back(0);
  for (corpus::TweetId t = 0; t < num_tweets; ++t) {
    for (size_t i = tokenized_.FirstToken(t); i < tokenized_.FirstToken(t + 1);
         ++i) {
      if (keep[i]) filtered_.push_back(tokens[i].text);
    }
    filtered_first_.push_back(static_cast<uint32_t>(filtered_.size()));
  }

  auto& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("rec.preprocessed.tweets")
      ->Set(static_cast<double>(corpus.num_tweets()));
  registry.GetCounter("rec.preprocessed.kept_tokens")->Add(kept_tokens);
}

const GramTable& PreprocessedCorpus::Grams(bag::NgramKind kind, int n) const {
  GramSlot* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(grams_mu_);
    std::unique_ptr<GramSlot>& entry = grams_[{kind, n}];
    if (entry == nullptr) entry = std::make_unique<GramSlot>();
    slot = entry.get();
  }
  std::call_once(slot->built, [&] { BuildGrams(kind, n, &slot->table); });
  return slot->table;
}

void PreprocessedCorpus::BuildGrams(bag::NgramKind kind, int n,
                                    GramTable* table) const {
  MICROREC_SPAN("featurize");
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "rec.preprocessed.featurize_seconds");
  obs::ScopedHistogramTimer timer(histogram);
  // Sequential, so dictionary ids follow tweet order at any thread count.
  // The table keeps only the dictionary's size and fingerprint.
  text::Vocabulary dictionary;
  const size_t num_tweets = corpus_.num_tweets();
  table->offsets_.reserve(num_tweets + 1);
  table->offsets_.push_back(0);
  for (corpus::TweetId t = 0; t < num_tweets; ++t) {
    std::vector<text::TermId> ids =
        bag::GramIds(Filtered(t), kind, n, &dictionary);
    table->ids_.insert(table->ids_.end(), ids.begin(), ids.end());
    table->offsets_.push_back(table->ids_.size());
  }
  table->ids_.shrink_to_fit();
  std::vector<std::string_view> terms;
  terms.reserve(dictionary.size());
  for (text::TermId id = 0; id < dictionary.size(); ++id) {
    terms.push_back(dictionary.TermOf(id));
  }
  table->size_ = dictionary.size();
  table->fingerprint_ = snapshot::FingerprintTerms(terms);
}

}  // namespace microrec::rec
