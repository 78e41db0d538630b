// Small string helpers shared across the library. Deliberately minimal:
// anything Unicode-aware lives in text/, not here.
#ifndef MICROREC_UTIL_STRING_UTIL_H_
#define MICROREC_UTIL_STRING_UTIL_H_

#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace microrec {

/// Hash of a string-keyed unordered container that also hashes a
/// std::string_view, so that find() and count() (with std::equal_to<>)
/// look a view up without building a std::string. Same values as
/// std::hash<std::string>.
struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view text) const {
    return std::hash<std::string_view>{}(text);
  }
};

/// Splits `input` on any character contained in `delims`; empty pieces are
/// dropped.
std::vector<std::string> SplitAny(std::string_view input,
                                  std::string_view delims);

/// Joins `parts` with `sep`.
std::string Join(std::span<const std::string_view> parts,
                 std::string_view sep);

/// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// True if `text` ends with `suffix`.
bool EndsWith(std::string_view text, std::string_view suffix);

/// Strips leading/trailing ASCII whitespace.
std::string_view TrimAscii(std::string_view text);

/// Lower-cases ASCII letters only (Unicode folding lives in text/unicode.h).
std::string AsciiToLower(std::string_view text);

/// Formats a double with `digits` digits after the decimal point.
std::string FormatDouble(double value, int digits);

/// Formats an integer with thousands separators, e.g. 1234567 -> "1,234,567".
std::string FormatWithCommas(int64_t value);

}  // namespace microrec

#endif  // MICROREC_UTIL_STRING_UTIL_H_
