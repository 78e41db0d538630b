#include "text/vocabulary.h"

namespace microrec::text {

TermId Vocabulary::Intern(std::string_view term) {
  auto it = index_.find(term);
  if (it != index_.end()) return it->second;
  TermId id = static_cast<TermId>(terms_.size());
  terms_.emplace_back(term);
  index_.emplace(terms_.back(), id);
  return id;
}

TermId Vocabulary::Find(std::string_view term) const {
  auto it = index_.find(term);
  return it == index_.end() ? kInvalidTerm : it->second;
}

std::vector<TermId> Vocabulary::InternAll(
    const std::vector<std::string>& terms) {
  std::vector<TermId> ids;
  ids.reserve(terms.size());
  for (const auto& term : terms) ids.push_back(Intern(term));
  return ids;
}

}  // namespace microrec::text
