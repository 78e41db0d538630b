// Token and character n-gram extraction — the shared feature layer of the
// local context-aware (bag: TN/CN) and global context-aware (graph: TNG/CNG)
// models of the taxonomy in Section 3.1.
//
// Character n-grams are computed over *codepoints* so multilingual text
// (challenge C3) is segmented correctly, and they span token boundaries with
// a single space separator, as in the n-gram-graph literature.
#ifndef MICROREC_TEXT_NGRAM_H_
#define MICROREC_TEXT_NGRAM_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace microrec::text {

/// Joins `n` consecutive tokens into an n-gram key. The joiner is U+001F
/// (unit separator) so that multi-token n-grams can never collide with a
/// single token containing spaces.
inline constexpr char kNgramJoiner = '\x1f';

/// Extracts all token n-grams of size `n` (n >= 1) from a token sequence.
/// A document with fewer than `n` tokens yields no n-grams.
std::vector<std::string> TokenNgrams(std::span<const std::string_view> tokens,
                                     int n);

/// Extracts all character n-grams of size `n` (n >= 1) from UTF-8 text.
/// Consecutive whitespace is collapsed to a single space first, so the
/// n-grams are insensitive to formatting runs.
std::vector<std::string> CharNgrams(std::string_view text, int n);

/// Normalises text for character n-gram extraction: collapses whitespace
/// runs to one space and trims the ends. Exposed for the graph models,
/// which need the codepoint stream itself.
std::vector<uint32_t> NormalizedCodepoints(std::string_view text);

}  // namespace microrec::text

#endif  // MICROREC_TEXT_NGRAM_H_
