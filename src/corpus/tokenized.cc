#include "corpus/tokenized.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "resilience/fault.h"
#include "util/stopwatch.h"

namespace microrec::corpus {

TokenizedCorpus::TokenizedCorpus(const Corpus& corpus,
                                 const text::Tokenizer& tokenizer,
                                 ThreadPool* pool) {
  MICROREC_SPAN("tokenize_corpus");
  Stopwatch watch;
  tokens_.resize(corpus.num_tweets());
  auto tokenize_one = [&](size_t i) {
    // Escapes as FaultInjectedError; the pool captures it and rethrows
    // from Wait()/ParallelFor.
    if (resilience::FaultsArmed()) {
      resilience::MaybeThrowFault(resilience::kSitePoolTask);
    }
    tokens_[i] = tokenizer.Tokenize(corpus.tweet(i).text);
  };
  PoolForCall(pool)->ParallelFor(corpus.num_tweets(), tokenize_one);

  size_t total_tokens = 0;
  for (const auto& tweet_tokens : tokens_) total_tokens += tweet_tokens.size();
  const double elapsed = watch.ElapsedSeconds();
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("text.tokenizer.tweets")->Add(corpus.num_tweets());
  registry.GetCounter("text.tokenizer.tokens")->Add(total_tokens);
  registry.GetCounter("text.tokenizer.micros")
      ->Add(static_cast<uint64_t>(elapsed * 1e6));
  if (elapsed > 0.0) {
    registry.GetGauge("text.tokenizer.tokens_per_sec")
        ->Set(static_cast<double>(total_tokens) / elapsed);
  }
}

}  // namespace microrec::corpus
