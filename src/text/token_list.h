// Tokens held back to back. A corpus has hundreds of thousands of short
// tokens (8-9 bytes on average), so a std::string each (32 bytes before any
// text, and a heap block past 15 bytes) would outweigh the text several
// times over. A TokenList keeps every token's bytes in one buffer, with a
// 4-byte end offset and a 1-byte type per token, and hands out views: 5
// bytes per token beyond its text.
#ifndef MICROREC_TEXT_TOKEN_LIST_H_
#define MICROREC_TEXT_TOKEN_LIST_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace microrec::text {

/// Classification of a produced token. Word covers everything that is not a
/// recognised Twitter entity; note that for space-free scripts (Chinese,
/// Japanese, ...) a whole phrase may surface as one Word token — exactly the
/// failure mode (challenge C3) that motivates character-based models.
enum class TokenType : uint8_t {
  kWord,
  kHashtag,   // "#edbt"
  kMention,   // "@alice"
  kUrl,       // "http://...", "https://...", "www...."
  kEmoticon,  // ":)", ":D", "<3", ...
};

/// A token as read from a TokenList: a view of its text and its type.
struct TokenView {
  std::string_view text;
  TokenType type = TokenType::kWord;
};

class TokenRange;

/// Tokens back to back: token i's bytes are chars_[ends_[i - 1], ends_[i]).
/// Offsets are 4 bytes, so a list holds at most 4 GiB of token bytes.
class TokenList {
 public:
  /// Appends one token. Throws std::length_error when the list would pass
  /// 4 GiB of token bytes.
  void Append(std::string_view text, TokenType type);

  /// Appends every token of `other`, in order.
  void Append(const TokenList& other);

  /// Reserves room for `tokens` more tokens of `bytes` more bytes in all.
  void Reserve(size_t tokens, size_t bytes);

  size_t size() const { return types_.size(); }
  /// The token bytes held, summed over every token.
  size_t bytes() const { return chars_.size(); }

  TokenView operator[](size_t i) const {
    const uint32_t begin = i == 0 ? 0 : ends_[i - 1];
    return {std::string_view(chars_.data() + begin, ends_[i] - begin),
            types_[i]};
  }

  /// Tokens [begin, end), as views into this list.
  TokenRange Range(size_t begin, size_t end) const;

 private:
  std::string chars_;           // every token's bytes, in order
  std::vector<uint32_t> ends_;  // token i ends at chars_[ends_[i]]
  std::vector<TokenType> types_;
};

/// Tokens [begin, end) of a TokenList, read as TokenViews by index or by a
/// range-for. Valid as long as the list is and is not appended to.
class TokenRange {
 public:
  class Iterator {
   public:
    TokenView operator*() const { return (*list_)[index_]; }
    Iterator& operator++() {
      ++index_;
      return *this;
    }
    bool operator==(const Iterator& other) const = default;

   private:
    friend class TokenRange;
    Iterator(const TokenList* list, size_t index)
        : list_(list), index_(index) {}

    const TokenList* list_ = nullptr;
    size_t index_ = 0;
  };

  Iterator begin() const { return {list_, begin_}; }
  Iterator end() const { return {list_, end_}; }
  size_t size() const { return end_ - begin_; }
  TokenView operator[](size_t i) const { return (*list_)[begin_ + i]; }

 private:
  friend class TokenList;
  TokenRange(const TokenList* list, size_t begin, size_t end)
      : list_(list), begin_(begin), end_(end) {}

  const TokenList* list_ = nullptr;
  size_t begin_ = 0;
  size_t end_ = 0;
};

inline TokenRange TokenList::Range(size_t begin, size_t end) const {
  return {this, begin, end};
}

}  // namespace microrec::text

#endif  // MICROREC_TEXT_TOKEN_LIST_H_
