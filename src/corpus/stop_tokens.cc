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
    for (const auto& token : tokenized.TokensOf(id)) {
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
  std::unordered_set<std::string> stop;
  for (size_t i = 0; i < keep; ++i) stop.emplace(ranked[i].first);
  return StopTokenFilter(std::move(stop));
}

std::vector<text::Token> StopTokenFilter::Filter(
    const std::vector<text::Token>& tokens) const {
  std::vector<text::Token> out;
  out.reserve(tokens.size());
  for (const auto& token : tokens) {
    if (!IsStop(token.text)) out.push_back(token);
  }
  return out;
}

std::vector<std::string> StopTokenFilter::FilterStrings(
    const std::vector<std::string>& tokens) const {
  std::vector<std::string> out;
  out.reserve(tokens.size());
  for (const auto& token : tokens) {
    if (!IsStop(token)) out.push_back(token);
  }
  return out;
}

}  // namespace microrec::corpus
