#include "rec/preprocessed.h"

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
  filtered_.resize(corpus.num_tweets());
  pool.ParallelFor(corpus.num_tweets(), [this](size_t i) {
    if (resilience::FaultsArmed()) {
      resilience::MaybeThrowFault(resilience::kSitePoolTask);
    }
    filtered_[i] = stop_filter_.Filter(tokenized_.TokensOf(i));
  });

  size_t kept_tokens = 0;
  for (const auto& tokens : filtered_) kept_tokens += tokens.size();
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
  table->offsets_.reserve(filtered_.size() + 1);
  table->offsets_.push_back(0);
  for (const std::vector<std::string_view>& tokens : filtered_) {
    std::vector<text::TermId> ids = bag::GramIds(tokens, kind, n, &dictionary);
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
