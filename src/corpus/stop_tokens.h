// Corpus-level stop-token removal: the paper removes the 100 most frequent
// tokens across all training tweets as a language-agnostic substitute for
// stop-word lists (Section 4).
#ifndef MICROREC_CORPUS_STOP_TOKENS_H_
#define MICROREC_CORPUS_STOP_TOKENS_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "corpus/tokenized.h"
#include "util/string_util.h"

namespace microrec::corpus {

/// Set of tokens to drop before any model sees a document.
class StopTokenFilter {
 public:
  /// Computes the `top_k` most frequent token strings over the given tweets
  /// (typically: every user's training-phase tweets). Ties are broken
  /// lexicographically for determinism.
  static StopTokenFilter FromTopFrequent(const TokenizedCorpus& tokenized,
                                         const std::vector<TweetId>& tweets,
                                         size_t top_k = 100);

  /// Looks `token` up as it is: no std::string per probe.
  bool IsStop(std::string_view token) const {
    return stop_tokens_.find(token) != stop_tokens_.end();
  }

  /// The texts of `tokens` (a TokenRange, or Token or TokenView values)
  /// that are not stop tokens, in order: views of the tokens' text, valid
  /// as long as it is.
  template <typename Tokens>
  std::vector<std::string_view> Filter(const Tokens& tokens) const {
    std::vector<std::string_view> out;
    for (const auto& token : tokens) {
      if (!IsStop(token.text)) out.push_back(token.text);
    }
    return out;
  }

  size_t size() const { return stop_tokens_.size(); }

 private:
  std::unordered_set<std::string, StringHash, std::equal_to<>> stop_tokens_;
};

}  // namespace microrec::corpus

#endif  // MICROREC_CORPUS_STOP_TOKENS_H_
