#include "text/token_list.h"

#include <stdexcept>

namespace microrec::text {

namespace {

void CheckFits(size_t bytes) {
  if (bytes > UINT32_MAX) {
    throw std::length_error("TokenList holds at most 4 GiB of token bytes");
  }
}

}  // namespace

void TokenList::Append(std::string_view text, TokenType type) {
  CheckFits(chars_.size() + text.size());
  chars_.append(text);
  ends_.push_back(static_cast<uint32_t>(chars_.size()));
  types_.push_back(type);
}

void TokenList::Append(const TokenList& other) {
  CheckFits(chars_.size() + other.chars_.size());
  const uint32_t base = static_cast<uint32_t>(chars_.size());
  chars_.append(other.chars_);
  for (uint32_t end : other.ends_) ends_.push_back(base + end);
  types_.insert(types_.end(), other.types_.begin(), other.types_.end());
}

void TokenList::Reserve(size_t tokens, size_t bytes) {
  chars_.reserve(chars_.size() + bytes);
  ends_.reserve(ends_.size() + tokens);
  types_.reserve(types_.size() + tokens);
}

}  // namespace microrec::text
