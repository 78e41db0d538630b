// Language-agnostic microblog tokenizer implementing the paper's
// pre-processing pipeline (Section 4):
//   * lower-case the raw text,
//   * tokenize on whitespace and punctuation,
//   * squeeze repeated letters ("yeeees" -> "yees", challenge C4),
//   * keep URLs, hashtags, mentions and emoticons together as single tokens.
//
// No stemming, lemmatization or other language-specific processing is
// applied (challenge C3). Stop-token removal (the 100 most frequent tokens)
// is a corpus-level operation and lives in corpus/stop_tokens.h.
#ifndef MICROREC_TEXT_TOKENIZER_H_
#define MICROREC_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

#include "text/token_list.h"

namespace microrec::text {

/// A single token: its (lower-cased, squeezed) surface form plus its type.
struct Token {
  std::string text;
  TokenType type = TokenType::kWord;

  bool operator==(const Token& other) const = default;
};

/// Emoticon sentiment families used by Labeled LDA (Section 4: "9 categories
/// of emoticons").
enum class EmoticonClass {
  kSmile,
  kFrown,
  kWink,
  kBigGrin,
  kHeart,
  kSurprise,
  kAwkward,
  kConfused,
  kTongue,
  kNone,
};

/// Maps a token string to its emoticon family, or kNone if the token is not
/// a recognised emoticon.
EmoticonClass ClassifyEmoticon(std::string_view token);

/// Options controlling the tokenizer; defaults match the paper.
struct TokenizerOptions {
  bool lowercase = true;
  /// Collapse runs of >= 3 identical letters down to 2.
  bool squeeze_repeats = true;
  /// Maximum run length kept when squeezing.
  int max_repeat_run = 2;
};

/// Stateless tokenizer; safe to share across threads.
class Tokenizer {
 public:
  explicit Tokenizer(TokenizerOptions options = {}) : options_(options) {}

  /// Appends the tokens of one microblog post to `*out`, in order.
  void Tokenize(std::string_view raw, TokenList* out) const;

  /// Tokenizes one microblog post.
  std::vector<Token> Tokenize(std::string_view raw) const;

  /// Convenience: returns only the token strings.
  std::vector<std::string> TokenizeToStrings(std::string_view raw) const;

  const TokenizerOptions& options() const { return options_; }

 private:
  TokenizerOptions options_;
};

/// Removes hashtags, mentions, URLs and emoticons from a tweet, returning
/// the residual text. Used to reduce noise before language detection
/// (Section 4, Table 3 pipeline).
std::string StripTwitterEntities(std::string_view raw);

}  // namespace microrec::text

#endif  // MICROREC_TEXT_TOKENIZER_H_
