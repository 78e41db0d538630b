#include "text/ngram.h"

#include <cassert>

#include "text/unicode.h"

namespace microrec::text {

std::vector<std::string> TokenNgrams(std::span<const std::string_view> tokens,
                                     int n) {
  assert(n >= 1);
  std::vector<std::string> out;
  if (tokens.size() < static_cast<size_t>(n)) return out;
  out.reserve(tokens.size() - static_cast<size_t>(n) + 1);
  for (size_t i = 0; i + static_cast<size_t>(n) <= tokens.size(); ++i) {
    std::string gram(tokens[i]);
    for (size_t k = 1; k < static_cast<size_t>(n); ++k) {
      gram += kNgramJoiner;
      gram += tokens[i + k];
    }
    out.push_back(std::move(gram));
  }
  return out;
}

std::vector<uint32_t> NormalizedCodepoints(std::string_view text) {
  std::vector<uint32_t> cps;
  cps.reserve(text.size());
  size_t pos = 0;
  bool pending_space = false;
  while (pos < text.size()) {
    Codepoint cp = DecodeNext(text, &pos);
    if (IsWhitespace(cp)) {
      pending_space = !cps.empty();
      continue;
    }
    if (pending_space) {
      cps.push_back(' ');
      pending_space = false;
    }
    cps.push_back(cp);
  }
  return cps;
}

std::vector<std::string> CharNgrams(std::string_view text, int n) {
  assert(n >= 1);
  std::vector<uint32_t> cps = NormalizedCodepoints(text);
  std::vector<std::string> out;
  if (cps.size() < static_cast<size_t>(n)) return out;
  out.reserve(cps.size() - static_cast<size_t>(n) + 1);
  for (size_t i = 0; i + static_cast<size_t>(n) <= cps.size(); ++i) {
    std::string gram;
    for (size_t k = 0; k < static_cast<size_t>(n); ++k) {
      Encode(cps[i + k], &gram);
    }
    out.push_back(std::move(gram));
  }
  return out;
}

}  // namespace microrec::text
