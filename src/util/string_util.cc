#include "util/string_util.h"

#include <cctype>
#include <cstdio>

namespace microrec {

std::vector<std::string> SplitAny(std::string_view input,
                                  std::string_view delims) {
  std::vector<std::string> out;
  size_t begin = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || delims.find(input[i]) != std::string_view::npos) {
      if (i > begin) out.emplace_back(input.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  return out;
}

std::string Join(std::span<const std::string_view> parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string_view TrimAscii(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string AsciiToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string FormatDouble(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string FormatWithCommas(int64_t value) {
  std::string digits = std::to_string(value < 0 ? -value : value);
  std::string out;
  int count = 0;
  for (size_t i = digits.size(); i > 0; --i) {
    out.insert(out.begin(), digits[i - 1]);
    if (++count % 3 == 0 && i > 1) out.insert(out.begin(), ',');
  }
  if (value < 0) out.insert(out.begin(), '-');
  return out;
}

}  // namespace microrec
