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
  const size_t num_tweets = corpus.num_tweets();
  // Each chunk fills a list of its own; first_[t + 1] first holds where
  // tweet t ends in its chunk's list.
  std::vector<text::TokenList> chunks(
      ThreadPool::NumShards(num_tweets, kChunkTweets));
  first_.assign(num_tweets + 1, 0);
  PoolForCall(pool)->ParallelForShards(
      num_tweets, kChunkTweets, [&](size_t begin, size_t end) {
        // Escapes as FaultInjectedError; the pool captures it and rethrows
        // from Wait()/ParallelFor.
        if (resilience::FaultsArmed()) {
          resilience::MaybeThrowFault(resilience::kSitePoolTask);
        }
        text::TokenList& chunk = chunks[begin / kChunkTweets];
        for (size_t t = begin; t < end; ++t) {
          tokenizer.Tokenize(corpus.tweet(t).text, &chunk);
          first_[t + 1] = static_cast<uint32_t>(chunk.size());
        }
      });

  // Assembled in tweet order on the calling thread, so the one list is
  // the same at any pool size, and each chunk's list is freed as soon as
  // it is copied.
  size_t total_tokens = 0, total_bytes = 0;
  for (const text::TokenList& chunk : chunks) {
    total_tokens += chunk.size();
    total_bytes += chunk.bytes();
  }
  tokens_.Reserve(total_tokens, total_bytes);
  for (size_t c = 0; c < chunks.size(); ++c) {
    const auto [begin, end] =
        ThreadPool::ShardBounds(num_tweets, kChunkTweets, c);
    const auto base = static_cast<uint32_t>(tokens_.size());
    for (size_t t = begin; t < end; ++t) first_[t + 1] += base;
    tokens_.Append(chunks[c]);
    chunks[c] = text::TokenList();
  }

  const double elapsed = watch.ElapsedSeconds();
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("text.tokenizer.tweets")->Add(num_tweets);
  registry.GetCounter("text.tokenizer.tokens")->Add(total_tokens);
  registry.GetCounter("text.tokenizer.micros")
      ->Add(static_cast<uint64_t>(elapsed * 1e6));
  if (elapsed > 0.0) {
    registry.GetGauge("text.tokenizer.tokens_per_sec")
        ->Set(static_cast<double>(total_tokens) / elapsed);
  }
}

}  // namespace microrec::corpus
