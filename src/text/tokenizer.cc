#include "text/tokenizer.h"

#include <array>
#include <cassert>

#include "text/unicode.h"
#include "util/string_util.h"

namespace microrec::text {

namespace {

struct EmoticonEntry {
  std::string_view surface;
  EmoticonClass cls;
};

// Longest-match table of recognised emoticons. Kept sorted by descending
// length inside the matcher; order here groups by family for readability.
constexpr std::array<EmoticonEntry, 38> kEmoticons = {{
    {":-)", EmoticonClass::kSmile},    {":)", EmoticonClass::kSmile},
    {"(-:", EmoticonClass::kSmile},    {"(:", EmoticonClass::kSmile},
    {"=)", EmoticonClass::kSmile},     {"^_^", EmoticonClass::kSmile},
    {":-(", EmoticonClass::kFrown},    {":(", EmoticonClass::kFrown},
    {")-:", EmoticonClass::kFrown},    {"):", EmoticonClass::kFrown},
    {"=(", EmoticonClass::kFrown},     {":'(", EmoticonClass::kFrown},
    {";-)", EmoticonClass::kWink},     {";)", EmoticonClass::kWink},
    {";-d", EmoticonClass::kWink},     {";d", EmoticonClass::kWink},
    {":-d", EmoticonClass::kBigGrin}, {":d", EmoticonClass::kBigGrin},
    {"=d", EmoticonClass::kBigGrin},  {"xd", EmoticonClass::kBigGrin},
    {"<3", EmoticonClass::kHeart},     {"<33", EmoticonClass::kHeart},
    {":-o", EmoticonClass::kSurprise}, {":o", EmoticonClass::kSurprise},
    {":-0", EmoticonClass::kSurprise}, {"o_o", EmoticonClass::kSurprise},
    {":-/", EmoticonClass::kAwkward},  {":/", EmoticonClass::kAwkward},
    {":-\\", EmoticonClass::kAwkward}, {":\\", EmoticonClass::kAwkward},
    {":-s", EmoticonClass::kConfused}, {":s", EmoticonClass::kConfused},
    {"%-)", EmoticonClass::kConfused}, {"o.o", EmoticonClass::kConfused},
    {":-p", EmoticonClass::kTongue},   {":p", EmoticonClass::kTongue},
    {"=p", EmoticonClass::kTongue},    {";p", EmoticonClass::kTongue},
}};

// True if the byte at `pos` begins an emoticon; sets `*len` to its byte
// length. Requires a token boundary before `pos` (checked by the caller).
bool MatchEmoticon(std::string_view lower, size_t pos, size_t* len) {
  size_t best = 0;
  for (const auto& entry : kEmoticons) {
    if (entry.surface.size() > best &&
        lower.compare(pos, entry.surface.size(), entry.surface) == 0) {
      best = entry.surface.size();
    }
  }
  if (best == 0) return false;
  // The match must end at a boundary (whitespace/end), so ":)x" stays a
  // non-emoticon and "<3dmodel" is not a heart.
  size_t end = pos + best;
  if (end < lower.size()) {
    size_t probe = end;
    Codepoint next = DecodeNext(lower, &probe);
    if (!IsWhitespace(next)) return false;
  }
  *len = best;
  return true;
}

bool MatchUrlPrefix(std::string_view lower, size_t pos) {
  return lower.compare(pos, 7, "http://") == 0 ||
         lower.compare(pos, 8, "https://") == 0 ||
         lower.compare(pos, 4, "www.") == 0;
}

// Consumes a URL starting at `pos`: everything up to the next whitespace.
size_t ConsumeUrl(std::string_view lower, size_t pos) {
  size_t i = pos;
  while (i < lower.size()) {
    size_t probe = i;
    Codepoint cp = DecodeNext(lower, &probe);
    if (IsWhitespace(cp)) break;
    i = probe;
  }
  return i;
}

bool IsTagChar(Codepoint cp) {
  return IsAsciiLetter(cp) || IsAsciiDigit(cp) || cp == '_' ||
         ClassifyScript(cp) == Script::kHan ||
         ClassifyScript(cp) == Script::kHiragana ||
         ClassifyScript(cp) == Script::kKatakana ||
         ClassifyScript(cp) == Script::kHangul;
}

// Consumes hashtag/mention body characters after the sigil.
size_t ConsumeTagBody(std::string_view lower, size_t pos) {
  size_t i = pos;
  while (i < lower.size()) {
    size_t probe = i;
    Codepoint cp = DecodeNext(lower, &probe);
    if (!IsTagChar(cp)) break;
    i = probe;
  }
  return i;
}

}  // namespace

EmoticonClass ClassifyEmoticon(std::string_view token) {
  for (const auto& entry : kEmoticons) {
    if (entry.surface == token) return entry.cls;
  }
  return EmoticonClass::kNone;
}

void Tokenizer::Tokenize(std::string_view raw, TokenList* out) const {
  std::string lower =
      options_.lowercase ? ToLowerUtf8(raw) : std::string(raw);
  std::string_view input = lower;

  std::string word;    // pending word, UTF-8
  Codepoint last = 0;  // the last codepoint of `word`
  int run_length = 0;  // current repeated-letter run in `word`

  auto flush_word = [&] {
    if (!word.empty()) {
      out->Append(word, TokenType::kWord);
      word.clear();
    }
    run_length = 0;
  };

  size_t pos = 0;
  bool at_boundary = true;  // true at start or after whitespace
  while (pos < input.size()) {
    // Entity matches only begin at token boundaries.
    if (at_boundary) {
      size_t emo_len = 0;
      if (MatchEmoticon(input, pos, &emo_len)) {
        flush_word();
        out->Append(input.substr(pos, emo_len), TokenType::kEmoticon);
        pos += emo_len;
        at_boundary = false;
        continue;
      }
      if (MatchUrlPrefix(input, pos)) {
        flush_word();
        size_t end = ConsumeUrl(input, pos);
        out->Append(input.substr(pos, end - pos), TokenType::kUrl);
        pos = end;
        at_boundary = false;
        continue;
      }
      if ((input[pos] == '#' || input[pos] == '@') && pos + 1 < input.size()) {
        size_t body_end = ConsumeTagBody(input, pos + 1);
        if (body_end > pos + 1) {
          flush_word();
          TokenType type =
              input[pos] == '#' ? TokenType::kHashtag : TokenType::kMention;
          out->Append(input.substr(pos, body_end - pos), type);
          pos = body_end;
          at_boundary = false;
          continue;
        }
      }
    }

    Codepoint cp = DecodeNext(input, &pos);
    if (IsWhitespace(cp)) {
      flush_word();
      at_boundary = true;
      continue;
    }
    at_boundary = false;
    if (IsPunctuation(cp)) {
      flush_word();
      // A punctuation run can start an emoticon only after whitespace, which
      // was handled above; stray punctuation is dropped (split point).
      continue;
    }
    // Letter squeezing: cap identical-letter runs (challenge C4).
    if (options_.squeeze_repeats && !word.empty() && last == cp) {
      ++run_length;
      if (run_length > options_.max_repeat_run) continue;
    } else {
      run_length = 1;
    }
    Encode(cp, &word);
    last = cp;
  }
  flush_word();
}

std::vector<Token> Tokenizer::Tokenize(std::string_view raw) const {
  TokenList list;
  Tokenize(raw, &list);
  std::vector<Token> tokens;
  tokens.reserve(list.size());
  for (const TokenView token : list.Range(0, list.size())) {
    tokens.push_back({std::string(token.text), token.type});
  }
  return tokens;
}

std::vector<std::string> Tokenizer::TokenizeToStrings(
    std::string_view raw) const {
  std::vector<Token> tokens = Tokenize(raw);
  std::vector<std::string> out;
  out.reserve(tokens.size());
  for (auto& token : tokens) out.push_back(std::move(token.text));
  return out;
}

std::string StripTwitterEntities(std::string_view raw) {
  static const Tokenizer tokenizer{TokenizerOptions{
      .lowercase = false, .squeeze_repeats = false, .max_repeat_run = 2}};
  std::vector<Token> tokens = tokenizer.Tokenize(raw);
  std::vector<std::string_view> kept;
  for (const auto& token : tokens) {
    if (token.type == TokenType::kWord) kept.push_back(token.text);
  }
  return Join(kept, " ");
}

}  // namespace microrec::text
