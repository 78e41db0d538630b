#include "corpus/stop_tokens.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace microrec::corpus {

StopTokenFilter StopTokenFilter::FromTopFrequent(
    const TokenizedCorpus& tokenized, const std::vector<TweetId>& tweets,
    size_t top_k) {
  // Keyed by views into `tokenized`: no token string is copied to count it.
  std::unordered_map<std::string_view, size_t> counts;
  for (TweetId id : tweets) {
    for (const text::TokenView token : tokenized.TokensOf(id)) {
      ++counts[token.text];
    }
  }
  std::vector<std::pair<std::string_view, size_t>> ranked(counts.begin(),
                                                          counts.end());
  const size_t keep = std::min(top_k, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + keep, ranked.end(),
                    [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  StopTokenFilter out;
  for (size_t i = 0; i < keep; ++i) out.stop_tokens_.emplace(ranked[i].first);
  return out;
}

}  // namespace microrec::corpus
